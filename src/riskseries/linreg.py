"""Ordinary least-squares engine with a full spreadsheet-style report.

fit_ols solves by QR factorization rather than raw normal equations, so
near-collinear lagged designs stay well behaved, and reports the
coefficient table (estimate, standard error, t, two-sided p, 95% CI)
plus the ANOVA block (sums of squares, F, significance F) and the R
statistics exactly as spreadsheet regression output lays them out.

A fit runs in two stages, and fit_ols is ``_report(_solve(y, regressors))``:

- ``_solve`` checks the input, builds the design X, factors it once by
  QR, tests its rank on the singular values of the k x k factor R (X = QR
  with orthonormal Q, so they are X's own), takes y's mean and solves;
- ``_report`` takes the three sums of squares of a solve (``_sums``) and
  builds the standard errors, t and p, the intervals, the ANOVA block and
  the R statistics from them.

A caller that needs only the coefficients, such as the trend line, takes
the solve alone and pays for no fitted values, sums, t quantile or
p-value. y's mean and total sum of squares come from a ``_Moments``: a
fit on a slice of a series passes the series' own, whose mean comes from
the series' one exact total, so a run takes them once per slice; a fit
on a bare column takes the exact total of y alone.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ._record import Record
from .dist import f_upper_tail, student_t_critical, student_t_two_sided_p
from .errors import DataError, NumericalError, UsageError
from .series import _Moments, _sum_of_squares

RANK_TOLERANCE = 1e-10
CI_ALPHA = 0.05


class CoefficientStat(Record):
    term: str  # "intercept", then x1, x2, ... in caller order
    estimate: float
    std_error: float
    t_stat: float
    p_value: float
    ci_lower_95: float
    ci_upper_95: float


class AnovaBlock(Record):
    df_regression: int
    df_residual: int
    regression_ss: float
    residual_ss: float
    total_ss: float
    regression_ms: float
    residual_ms: float
    f_stat: float
    significance_f: float


class RegressionReport(Record):
    n: int
    r_multiple: float
    r_squared: float
    r_squared_adj: float
    std_error_regression: float
    anova: AnovaBlock
    coefficients: tuple[CoefficientStat, ...]  # intercept first, then caller order


def _column_label(j: int) -> str:
    return "intercept" if j == 0 else f"x{j}"


def _raise_rank_deficient(r: np.ndarray, singular_values: np.ndarray):
    # Name the last caller column in the null direction of R, which is X's;
    # the structural intercept is only blamed when nothing else is involved.
    _, _, vt = np.linalg.svd(r)
    null_direction = np.abs(vt[-1])
    involved = np.flatnonzero(null_direction > 0.1 * null_direction.max())
    offending = int(involved[-1])
    raise NumericalError(
        f"design matrix is rank-deficient near column '{_column_label(offending)}' "
        f"(smallest singular value {singular_values[-1]:.3e} vs largest "
        f"{singular_values[0]:.3e})"
    )


def _design(n: int, regressors: Sequence[Sequence[float]]) -> np.ndarray:
    """[1, x1, x2, ...] as one C-ordered (n, k) float array, filled column by column.

    Equal, bit for bit and in layout, to ``np.column_stack`` of a ones
    column and each regressor as a float array, without its temporaries.
    """
    x = np.empty((n, len(regressors) + 1))
    x[:, 0] = 1.0
    for j, column in enumerate(regressors, start=1):
        x[:, j] = column
    return x


class _Solve(NamedTuple):
    """A least-squares solve: the coefficients and what the report reads of the fit."""

    n: int
    coef: np.ndarray  # intercept first, then caller order
    r: np.ndarray  # the R factor of the design's QR
    x: np.ndarray  # the design
    y: _Moments  # the response, with its mean and total sum of squares


def fit_ols(
    y: Sequence[float], regressors: Sequence[Sequence[float]], *, _moments: _Moments | None = None
) -> RegressionReport:
    """Least-squares fit of y on an intercept plus the given regressors.

    ``_moments`` are y's, kept by the series y is a slice of.
    """
    return _report(_solve(y, regressors, _moments))


def _solve(
    y: Sequence[float], regressors: Sequence[Sequence[float]], moments: _Moments | None = None
) -> _Solve:
    """Check the input, factor the design once by QR, test its rank on R, and solve."""
    if len(regressors) == 0:
        raise UsageError("at least one regressor is required")
    y_vec = np.asarray(y, dtype=float)
    if y_vec.ndim != 1:
        raise UsageError("y must be a one-dimensional vector")
    n = y_vec.shape[0]
    for j, column in enumerate(regressors, start=1):
        if len(column) != n:
            raise UsageError(
                f"regressor x{j} has length {len(column)}, expected {n} to match y"
            )
    if not np.all(np.isfinite(y_vec)):
        raise DataError("y contains non-finite entries")
    x = _design(n, regressors)
    k = x.shape[1]
    if n <= k:
        raise UsageError(f"need more rows than columns, got n={n}, k={k}")
    if not np.all(np.isfinite(x)):
        raise DataError("design matrix contains non-finite entries")

    q, r = np.linalg.qr(x)
    # The R of an overflowing design holds NaN, and numpy's SVD of a matrix
    # with NaN may raise instead of returning NaN, so R is tested first.
    overflows = not np.all(np.isfinite(r))
    singular_values = None if overflows else np.linalg.svd(r, compute_uv=False)
    if overflows or not math.isfinite(singular_values[0]):
        raise NumericalError(
            "design matrix overflows: its largest singular value is not finite"
        )
    if singular_values[-1] <= RANK_TOLERANCE * singular_values[0]:
        _raise_rank_deficient(r, singular_values)
    if moments is None:
        moments = _Moments(y_vec)
    # Before the solve, so a response whose sum or squared deviations
    # overflow raises here instead of after numpy's overflow warnings.
    moments.sum_of_squares()
    coef = np.linalg.solve(r, q.T @ y_vec)
    return _Solve(n, coef, r, x, moments)


def _sums(solve: _Solve) -> tuple[float, float, float]:
    """The total, regression and residual sums of squares of a solve."""
    fitted = solve.x @ solve.coef
    residuals = solve.y.column - fitted
    # The same IEEE operations as Python floats would take: differences and
    # products round alike in numpy, and _sum_of_squares squares through
    # libm's pow, as ``** 2`` does. The squared deviations come first, so
    # finite input whose squares overflow raises OverflowError there.
    total_ss = solve.y.sum_of_squares()
    regression_ss = _sum_of_squares(fitted - solve.y.mean())
    residual_ss = math.fsum(memoryview(residuals * residuals))
    return total_ss, regression_ss, residual_ss


def _report(solve: _Solve) -> RegressionReport:
    """Standard errors, t and p, intervals, ANOVA and R statistics of a solve."""
    n, coef, r = solve.n, solve.coef, solve.r
    total_ss, regression_ss, residual_ss = _sums(solve)
    k = len(coef)
    df_residual = n - k
    df_regression = k - 1
    residual_ms = residual_ss / df_residual
    regression_ms = regression_ss / df_regression

    # (X'X)^-1 diagonal from the R factor: (R^-1)(R^-1)'. inv makes the
    # same LAPACK gesv call as solve(r, np.eye(k)), so the bits are the same.
    r_inv = np.linalg.inv(r)
    xtx_inv_diag = np.sum(r_inv * r_inv, axis=1)
    std_errors = np.sqrt(residual_ms * xtx_inv_diag)

    t_critical = student_t_critical(CI_ALPHA, df_residual)
    stats = []
    for j, (estimate, std_error) in enumerate(zip(coef, std_errors)):
        estimate = float(estimate)
        std_error = float(std_error)
        if std_error > 0.0:
            t_stat = estimate / std_error
        else:
            # Exact fit: no sampling noise. The t tail reads p = 0 at +-inf, 1 at 0.
            t_stat = math.copysign(math.inf, estimate) if estimate != 0.0 else 0.0
        half_width = t_critical * std_error
        stats.append(
            CoefficientStat(
                term=_column_label(j),
                estimate=estimate,
                std_error=std_error,
                t_stat=t_stat,
                p_value=student_t_two_sided_p(t_stat, df_residual),
                ci_lower_95=estimate - half_width,
                ci_upper_95=estimate + half_width,
            )
        )

    if total_ss > 0.0:
        r_squared = 1.0 - residual_ss / total_ss
        f_stat = regression_ms / residual_ms if residual_ms > 0.0 else math.inf
    else:
        # Constant response: nothing to explain, and the F tail reads 1 at F = 0.
        r_squared = 0.0
        f_stat = 0.0

    anova = AnovaBlock(
        df_regression=df_regression,
        df_residual=df_residual,
        regression_ss=regression_ss,
        residual_ss=residual_ss,
        total_ss=total_ss,
        regression_ms=regression_ms,
        residual_ms=residual_ms,
        f_stat=f_stat,
        significance_f=f_upper_tail(f_stat, df_regression, df_residual),
    )
    return RegressionReport(
        n=n,
        r_multiple=math.sqrt(max(r_squared, 0.0)),
        r_squared=r_squared,
        r_squared_adj=1.0 - (1.0 - r_squared) * (n - 1) / (n - k),
        std_error_regression=math.sqrt(residual_ms),
        anova=anova,
        coefficients=tuple(stats),
    )
