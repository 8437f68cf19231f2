"""The ``analyze`` pipeline: its configuration, its report, and the run of every stage."""
from __future__ import annotations

from . import autoreg, peaks, residuals, trend
from ._readers import DECIMAL_POINT
from ._record import Record
from .errors import DataError, NumericalError, UsageError
from .series import SummaryStats, TimeSeries, summarize

DETREND_DISABLED = "detrending disabled by configuration"


class AnalysisConfig(Record):
    input_path: str
    decimal: str = DECIMAL_POINT
    threshold: peaks.ThresholdSpec | None = None
    max_lag: int = 3
    alpha: float = 0.05
    detrend: bool = True
    outlier_threshold: float = 3.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_max_lag(self.max_lag)


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha!r}")


def _check_max_lag(max_lag: int):
    if max_lag < 1:
        raise UsageError(f"max lag must be >= 1, got {max_lag!r}")


class PipelineReport(Record):
    """Every pipeline product, or the reason it was skipped (a string)."""

    config: AnalysisConfig
    series_n: int
    pot_events: peaks.EventSeries | str
    summary_raw: SummaryStats
    summary_detrended: SummaryStats | str
    trend_line: trend.TrendLine
    mk: trend.MKResult | str
    ar_raw: dict[int, autoreg.ARModel | str]  # keyed by order
    ar_detrended: dict[int, autoreg.ARModel | str] | str
    lag1_raw: float | str
    lag1_detrended: float | str
    order_raw: autoreg.OrderSelectionTrace | str
    order_detrended: autoreg.OrderSelectionTrace | str
    residuals_raw_ar1: residuals.ResidualReport | str


def run_pipeline(series: TimeSeries, config: AnalysisConfig) -> PipelineReport:
    """Run every analysis stage; failures of optional stages become skips."""
    if config.threshold is not None:
        events = peaks.pot_compact(series, config.threshold)
        pot_section: peaks.EventSeries | str = events
        working: TimeSeries = events
        if len(working) == 0:
            raise DataError(
                f"threshold {config.threshold.threshold} removed every observation"
            )
    else:
        pot_section = "no threshold configured"
        working = series

    summary_raw = summarize(working)
    trend_line = trend.fit_trend(working)

    if config.detrend:
        detrended: TimeSeries | None = trend.detrend(working, trend_line)
        summary_detrended: SummaryStats | str = summarize(detrended)
    else:
        detrended = None
        summary_detrended = DETREND_DISABLED

    try:
        mk_result: trend.MKResult | str = trend.mann_kendall(working, config.alpha)
    except (UsageError, NumericalError) as exc:
        mk_result = str(exc)

    def fit_all(source: TimeSeries, label: str) -> dict[int, autoreg.ARModel | str]:
        # Orders above max_order(n) cannot fit. Try those up to it (always
        # AR(1), whose reason the residual report names), then max_lag
        # alone: its length error is the one skip entry for every order
        # above the cap, so the report's size follows n, not the flag.
        top = min(config.max_lag, max(autoreg.max_order(len(source)), 1))
        orders = list(range(1, top + 1)) + ([config.max_lag] if config.max_lag > top else [])
        models: dict[int, autoreg.ARModel | str] = {}
        for p in orders:
            try:
                models[p] = autoreg.fit_ar(source, p, fitted_on=label)
            except (UsageError, NumericalError) as exc:
                models[p] = str(exc)
        return models

    ar_raw = fit_all(working, autoreg.RAW)
    ar_detrended: dict[int, autoreg.ARModel | str] | str
    if detrended is not None:
        ar_detrended = fit_all(detrended, autoreg.DETRENDED)
    else:
        ar_detrended = DETREND_DISABLED

    def lag1(source: TimeSeries | None) -> float | str:
        if source is None:
            return DETREND_DISABLED
        try:
            return autoreg.lag_correlation(source, 1)
        except (UsageError, NumericalError) as exc:
            return str(exc)

    def order(models: dict[int, autoreg.ARModel | str] | str):
        if isinstance(models, str):
            return models
        failed = [model for model in models.values() if isinstance(model, str)]
        return failed[-1] if failed else autoreg.select_order(list(models.values()), config.alpha)

    lag1_raw = lag1(working)
    lag1_detrended = lag1(detrended)
    order_raw = order(ar_raw)
    order_detrended = order(ar_detrended)

    first_raw = ar_raw[1]
    if isinstance(first_raw, autoreg.ARModel):
        residual_report: residuals.ResidualReport | str = residuals.residual_analysis(
            first_raw, working, config.outlier_threshold
        )
    else:
        residual_report = f"raw AR(1) unavailable: {first_raw}"

    return PipelineReport(
        config=config,
        series_n=len(series),
        pot_events=pot_section,
        summary_raw=summary_raw,
        summary_detrended=summary_detrended,
        trend_line=trend_line,
        mk=mk_result,
        ar_raw=ar_raw,
        ar_detrended=ar_detrended,
        lag1_raw=lag1_raw,
        lag1_detrended=lag1_detrended,
        order_raw=order_raw,
        order_detrended=order_detrended,
        residuals_raw_ar1=residual_report,
    )
