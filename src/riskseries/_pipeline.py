"""The ``analyze`` pipeline: its configuration, its report, and the run of every stage."""
from __future__ import annotations

from . import autoreg, peaks, residuals, trend
from ._readers import DECIMAL_POINT
from ._record import Record
from .errors import DataError, NumericalError, UsageError
from .series import SummaryStats, TimeSeries, summarize

DETREND_DISABLED = "detrending disabled by configuration"


class AnalysisConfig(Record):
    input: str
    decimal: str = DECIMAL_POINT
    threshold: peaks.ThresholdSpec | None = None
    max_lag: int = 3
    alpha: float = 0.05
    detrend: bool = True
    outlier_threshold: float = 3.0

    def __post_init__(self):
        autoreg.z_alpha_threshold(self.alpha)
        _check_max_lag(self.max_lag)


def _check_max_lag(max_lag: int):
    if max_lag < 1:
        raise UsageError(f"max lag must be >= 1, got {max_lag!r}")


class PipelineReport(Record):
    """Every pipeline product, or the reason it was skipped (a string).

    ``summary``, ``ar``, ``lag1`` and ``order`` map ``"raw"`` and then
    ``"detrended"`` to that stage's product on each series.
    """

    config: AnalysisConfig
    series_n: int
    pot_events: peaks.EventSeries | str
    summary: dict[str, SummaryStats | str]
    trend_line: trend.TrendLine
    mk: trend.MKResult | str
    ar: dict[str, dict[int, autoreg.ARModel | str] | str]  # models keyed by order
    lag1: dict[str, float | str]
    order: dict[str, autoreg.OrderSelectionTrace | str]
    residuals_raw_ar1: residuals.ResidualReport | str


def _or_reason(stage, *args):
    """``stage(*args)``, or the message of the usage or numerical error it raises."""
    try:
        return stage(*args)
    except (UsageError, NumericalError) as exc:
        return str(exc)


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

    # The raw summary comes before the trend fit, so its errors come first.
    summary_raw = summarize(working)
    trend_line = trend.fit_trend(working)
    sources = {
        autoreg.RAW: working,
        autoreg.DETRENDED: trend.detrend(working, trend_line) if config.detrend else None,
    }

    def per_series(stage) -> dict:
        """``stage(series, label)`` on the raw series, then on the detrended
        one, or ``DETREND_DISABLED`` in its place when detrending is off."""
        return {label: DETREND_DISABLED if source is None else stage(source, label)
                for label, source in sources.items()}

    summary = per_series(
        lambda source, label: summary_raw if label == autoreg.RAW else summarize(source)
    )

    mk_result = _or_reason(trend.mann_kendall, working, config.alpha)

    def search(source: TimeSeries, label: str) -> dict[int, autoreg.ARModel | str]:
        return {p: model if isinstance(model, autoreg.ARModel) else str(model)
                for p, model in autoreg.fit_orders(source, config.max_lag, label)}

    def order(source: TimeSeries, label: str) -> autoreg.OrderSelectionTrace | str:
        models = list(ar[label].values())
        failed = [model for model in models if isinstance(model, str)]
        return failed[-1] if failed else autoreg.select_order(models, config.alpha)

    ar = per_series(search)
    lag1 = per_series(lambda source, label: _or_reason(autoreg.lag_correlation, source, 1))
    selected = per_series(order)

    first_raw = ar[autoreg.RAW][1]
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
        summary=summary,
        trend_line=trend_line,
        mk=mk_result,
        ar=ar,
        lag1=lag1,
        order=selected,
        residuals_raw_ar1=residual_report,
    )
