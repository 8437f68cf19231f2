"""Extreme-event time-series analysis and loss-exceedance risk curves.

The library side covers the full pipeline: peak extraction (block maxima
and peaks over threshold), linear trend fitting and removal, the
Mann-Kendall test, autoregression by least squares with top-down order
selection, residual diagnostics, and the extreme-value / risk-curve
mathematics. ``riskseries.cli`` adds the command-line front end.

The extreme-value names are served from ``riskseries.evt_risk``, which is
imported on first use: the time-series pipeline never runs it.
"""

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

__all__ = [
    "ARModel",
    "AnovaBlock",
    "CoefficientStat",
    "DataError",
    "EventSeries",
    "GevParams",
    "HazardCurve",
    "MKResult",
    "NumericalError",
    "OrderSelectionStep",
    "OrderSelectionTrace",
    "Provenance",
    "RegressionReport",
    "ResidualReport",
    "RiskCurve",
    "RiskSeriesError",
    "SummaryStats",
    "ThresholdSpec",
    "TimeSeries",
    "TrendLine",
    "UsageError",
    "VulnerabilityCurve",
    "VulnerabilityPoint",
    "block_maxima",
    "build_lagged_design",
    "build_segments",
    "conditional_exceedance",
    "conditional_nonexceedance",
    "detrend",
    "f_upper_tail",
    "fit_ar",
    "fit_ols",
    "fit_trend",
    "gev_pdf",
    "lag_correlation",
    "lognormal_params",
    "mann_kendall",
    "normal_cdf",
    "normal_quantile",
    "percentile_column",
    "plot_data",
    "pot_compact",
    "pot_zerofill",
    "regularized_incomplete_beta",
    "reindex",
    "residual_analysis",
    "risk_curve",
    "select_order",
    "student_t_critical",
    "student_t_two_sided_p",
    "summarize",
]

_EVT_RISK = frozenset({
    "GevParams",
    "HazardCurve",
    "RiskCurve",
    "VulnerabilityCurve",
    "VulnerabilityPoint",
    "build_segments",
    "conditional_exceedance",
    "conditional_nonexceedance",
    "gev_pdf",
    "lognormal_params",
    "risk_curve",
})


def __getattr__(name: str):
    if name in _EVT_RISK:
        from . import evt_risk

        return getattr(evt_risk, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EVT_RISK)
