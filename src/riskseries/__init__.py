"""Extreme-event time-series analysis and loss-exceedance risk curves.

The library side covers the full pipeline: peak extraction (block maxima
and peaks over threshold), linear trend fitting and removal, the
Mann-Kendall test, autoregression by least squares with top-down order
selection, residual diagnostics, and the extreme-value / risk-curve
mathematics. ``riskseries.cli`` adds the command-line front end.

The public names (``__all__``) are those the imports below bind, plus the
extreme-value names, which are served from ``riskseries.evt_risk``: it is
imported on first use, and the time-series pipeline never runs it.
"""

from types import ModuleType as _ModuleType

from .autoreg import (
    ARModel,
    OrderSelectionStep,
    OrderSelectionTrace,
    build_lagged_design,
    fit_ar,
    lag_correlation,
    select_order,
)
from .dist import (
    f_upper_tail,
    normal_cdf,
    normal_quantile,
    regularized_incomplete_beta,
    student_t_critical,
    student_t_two_sided_p,
)
from .errors import DataError, NumericalError, RiskSeriesError, UsageError
from .linreg import AnovaBlock, CoefficientStat, RegressionReport, fit_ols
from .peaks import (
    EventSeries,
    Provenance,
    ThresholdSpec,
    block_maxima,
    pot_compact,
    pot_zerofill,
)
from .residuals import (
    ResidualReport,
    percentile_column,
    plot_data,
    residual_analysis,
)
from .series import SummaryStats, TimeSeries, reindex, summarize
from .trend import MKResult, TrendLine, detrend, fit_trend, mann_kendall

__version__ = "0.1.0"

_EVT_RISK = frozenset({
    "GevParams",
    "HazardCurve",
    "RiskCurve",
    "VulnerabilityCurve",
    "build_segments",
    "conditional_exceedance",
    "conditional_nonexceedance",
    "gev_pdf",
    "lognormal_params",
    "risk_curve",
})

# Importing a submodule binds it here too; it is not a public name.
__all__ = [
    *sorted(name for name, value in globals().items()
            if not (name.startswith("_") or isinstance(value, _ModuleType))),
    *sorted(_EVT_RISK),
]
del _ModuleType


def __getattr__(name: str):
    if name in _EVT_RISK:
        from . import evt_risk

        return getattr(evt_risk, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EVT_RISK)
