"""Ordinary least-squares engine with a full spreadsheet-style report.

fit_ols solves by QR factorization rather than raw normal equations, so
near-collinear lagged designs stay well behaved, and reports the
coefficient table (estimate, standard error, t, two-sided p, 95% CI)
plus the ANOVA block (sums of squares, F, significance F) and the R
statistics exactly as spreadsheet regression output lays them out.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import Record
from .dist import f_upper_tail, student_t_critical, student_t_two_sided_p
from .errors import DataError, NumericalError, UsageError
from .series import _sum_of_squares

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


def _raise_rank_deficient(x: np.ndarray, singular_values: np.ndarray):
    # Name the last caller column that participates in the null direction;
    # the structural intercept is only blamed when nothing else is involved.
    _, _, vt = np.linalg.svd(x)
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


def fit_ols(y: Sequence[float], regressors: Sequence[Sequence[float]]) -> RegressionReport:
    """Least-squares fit of y on an intercept plus the given regressors."""
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

    singular_values = np.linalg.svd(x, compute_uv=False)
    if not math.isfinite(singular_values[0]):
        raise NumericalError(
            "design matrix overflows: its largest singular value is not finite"
        )
    if singular_values[-1] <= RANK_TOLERANCE * singular_values[0]:
        _raise_rank_deficient(x, singular_values)
    # Before the solve, so a response whose sum overflows raises here
    # instead of after numpy's overflow warnings.
    y_mean = math.fsum(memoryview(y_vec)) / n

    q, r = np.linalg.qr(x)
    coef = np.linalg.solve(r, q.T @ y_vec)
    fitted = x @ coef
    residuals = y_vec - fitted

    # The same IEEE operations as Python floats would take: differences and
    # products round alike in numpy, and _sum_of_squares squares through
    # libm's pow, as ``** 2`` does. The squared deviations come first, so
    # finite input whose squares overflow raises OverflowError there.
    total_ss = _sum_of_squares(y_vec - y_mean)
    regression_ss = _sum_of_squares(fitted - y_mean)
    residual_ss = math.fsum(memoryview(residuals * residuals))

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
            p_value = student_t_two_sided_p(t_stat, df_residual)
        else:
            # Exact fit: the coefficient is determined with no sampling noise.
            t_stat = math.copysign(math.inf, estimate) if estimate != 0.0 else 0.0
            p_value = 0.0 if estimate != 0.0 else 1.0
        half_width = t_critical * std_error
        stats.append(
            CoefficientStat(
                term=_column_label(j),
                estimate=estimate,
                std_error=std_error,
                t_stat=t_stat,
                p_value=p_value,
                ci_lower_95=estimate - half_width,
                ci_upper_95=estimate + half_width,
            )
        )

    if total_ss > 0.0:
        r_squared = 1.0 - residual_ss / total_ss
        if residual_ms > 0.0:
            f_stat = regression_ms / residual_ms
        else:
            f_stat = math.inf
        significance_f = f_upper_tail(f_stat, df_regression, df_residual)
    else:
        # Constant response: nothing to explain.
        r_squared = 0.0
        f_stat = 0.0
        significance_f = 1.0

    anova = AnovaBlock(
        df_regression=df_regression,
        df_residual=df_residual,
        regression_ss=regression_ss,
        residual_ss=residual_ss,
        total_ss=total_ss,
        regression_ms=regression_ms,
        residual_ms=residual_ms,
        f_stat=f_stat,
        significance_f=significance_f,
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
