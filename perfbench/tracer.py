"""In-memory call tracing for the traced benchmark run.

Every public function of every ``riskseries`` module is wrapped at each
name it is looked up by: ``linreg`` binds ``student_t_critical`` through
``from .dist import``, so the wrapper is installed in ``linreg``'s globals
as well as in ``dist``'s. Each call through a wrapper records a span
(name, start, end, parent, op id). The layer of a span is the module that
defines the function, and a layer's self time is its spans' durations
minus the durations of their direct child spans.

Two leaf functions run hundreds of thousands of times per operation and
are only counted, never given a span, so their time stays with the
caller: ``dist.regularized_incomplete_beta`` (time goes to the dist span
that called it) and ``evt_risk.conditional_nonexceedance`` (time goes to
``evt_risk``). Their counting wrappers are switched on only for the ops
whose counts are reported. ``dist.normal_cdf`` is not wrapped at all for
the same reason; its time is part of whichever layer calls it.

Nothing here changes what the program computes; the wrappers only add
time, which the benchmark reports as tracing overhead.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
from collections import Counter
from time import perf_counter_ns

import numpy as np

COUNT_ONLY = {"regularized_incomplete_beta", "conditional_nonexceedance"}
UNWRAPPED = {"normal_cdf"}

LAYERS = ("cli", "series", "peaks", "trend", "linreg", "dist", "autoreg", "residuals", "evt_risk")


class Recorder:
    """Spans and counters of one process, kept in memory until the end."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[int, Counter] = {}
        self.designs: dict[int, set] = {}
        self._patches: list = []  # (owner, name, original, wrapper)
        self.begin_op(-1)  # calls made outside any benchmark op

    # ------------------------------------------------------------ ops
    def begin_op(self, op: int):
        self.op = op
        self.counts[op] = Counter()
        self.designs[op] = set()

    def count(self, key: str, amount=1):
        self.counts[self.op][key] += amount

    # ---------------------------------------------------- installation
    def install(self):
        """Find every binding to wrap, then enable the wrappers."""
        package = importlib.import_module("riskseries")
        modules = [package] + [
            importlib.import_module(f"riskseries.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or name in UNWRAPPED:
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_classmethods(obj, layer)
                elif _is_function_of(obj, module):
                    wrappers[id(obj)] = self._wrapper(obj, f"{layer}.{name}")
        # Patch every binding of each wrapped function, in every module.
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj, wrapper))
        self.enable()

    def enable(self, count: bool = True):
        """Install the span wrappers, and the count-only ones if ``count``.

        The count-only wrappers are the costly ones, so runs switch them on
        only for the ops whose counts they report.
        """
        for owner, name, original, wrapper in self._patches:
            if count or not getattr(wrapper, "count_only", False):
                setattr(owner, name, wrapper)

    def disable(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _wrap_classmethods(self, cls, layer: str):
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, classmethod) and not name.startswith("_"):
                wrapped = self._wrapper(attr.__func__, f"{layer}.{cls.__name__}.{name}")
                self._patches.append((cls, name, attr, classmethod(wrapped)))

    def _wrapper(self, fn, name: str):
        short = name.rsplit(".", 1)[1]
        if short in COUNT_ONLY:
            key = f"calls.{short}"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[self.op][key] += 1
                return fn(*args, **kwargs)

            counted.count_only = True
            return counted

        before, after = _HOOKS.get(short, (_nothing, _nothing))
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(self, fn, args)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            after(self, fn, state, result)
            return result

        return traced

    def span(self, name: str):
        """Context manager recording one span around benchmark code."""
        return _Span(self, name)

    # ------------------------------------------------------- reduction
    def op_summaries(self) -> dict[int, dict]:
        """Per op: self time in ns per layer, span counts, counters."""
        children_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children_ns[parent] += end - start
        summaries: dict[int, dict] = {}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            summary = summaries.setdefault(op, {"self_ns": Counter(), "calls": Counter()})
            self_ns = end - start - children_ns[index]
            summary["self_ns"][name.split(".", 1)[0]] += self_ns
            summary["self_ns"][name] += self_ns
            summary["calls"][name] += 1
        for op, counts in self.counts.items():
            summary = summaries.setdefault(op, {"self_ns": Counter(), "calls": Counter()})
            summary["counts"] = counts
            summary["designs"] = len(self.designs.get(op, ()))
        return summaries

    def dump(self, path: str, extra: dict | None = None):
        """Write spans and per-op summaries as JSON."""
        payload = {
            "spans": self.spans,
            "ops": {str(op): _jsonable(s) for op, s in self.op_summaries().items()},
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _Span:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        rec = self.recorder
        self.parent = rec.stack[-1] if rec.stack else -1
        self.index = len(rec.spans)
        rec.spans.append(None)
        rec.stack.append(self.index)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        rec = self.recorder
        rec.stack.pop()
        rec.spans[self.index] = (self.name, self.start, end, self.parent, rec.op)
        return False


def _is_function_of(obj, module) -> bool:
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def _jsonable(summary: dict) -> dict:
    return {
        "self_ns": dict(summary["self_ns"]),
        "calls": dict(summary["calls"]),
        "counts": dict(summary.get("counts", {})),
        "designs": summary.get("designs", 0),
    }


# --------------------------------------------------------------- hooks
# ``before(rec, fn, args)`` runs ahead of a call and returns a state that
# ``after(rec, fn, state, result)`` receives. Their cost falls on the caller.

def _before_fit_ols(rec, fn, args):
    y, regressors = args[0], args[1]
    rec.designs[rec.op].add(hash((_bytes(y),) + tuple(_bytes(c) for c in regressors)))
    rec.count("linreg.rows_fitted", len(y))


def _before_t_critical(rec, fn, args):
    info = getattr(fn, "cache_info", None)
    return info().hits if info else None


def _after_t_critical(rec, fn, hits_before, result):
    if hits_before is not None:
        rec.count("dist.t_critical_hits", fn.cache_info().hits - hits_before)


def _before_mann_kendall(rec, fn, args):
    n = len(args[0])
    rec.count("trend.mk_pairs", n * (n - 1) // 2)


def _before_pot(rec, fn, args):
    rec.count("peaks.input_points", len(args[0]))


def _after_pot(rec, fn, state, result):
    rec.count("peaks.kept_points", len(result))


def _before_risk_curve(rec, fn, args):
    rec.count("evt_risk.point_losses", len(args[1]) * len(args[0]))


def _bytes(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def _nothing(*_):
    return None


_HOOKS = {
    "fit_ols": (_before_fit_ols, _nothing),
    "student_t_critical": (_before_t_critical, _after_t_critical),
    "mann_kendall": (_before_mann_kendall, _nothing),
    "pot_compact": (_before_pot, _after_pot),
    "risk_curve": (_before_risk_curve, _nothing),
}


# ------------------------------------------------------------ metrics

def layer_metrics(summaries: list[dict], window: int) -> dict[str, float]:
    """Per-layer metrics from per-op summaries in run order.

    Times are medians over all traced ops. Counts are totals over the
    first ``window`` ops divided by ``window``, so they repeat exactly
    for a given seed.
    """
    metrics: dict[str, float] = {}

    def self_ms(summary, *names):
        return sum(summary["self_ns"].get(name, 0) for name in names) / 1e6

    def median_ms(*names):
        return statistics.median(self_ms(s, *names) for s in summaries)

    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = median_ms(layer)
    metrics["cli.parse_ms"] = median_ms(
        "cli.parse_csv", "cli.parse_hazard_csv", "cli.parse_vulnerability_csv"
    )
    metrics["cli.render_ms"] = median_ms("cli.render", *_names_like(summaries, "cli.", "_to_dict"))
    # Risk-grid ops alternate two shapes; other workloads never call evt_risk.
    for k, shape in enumerate(("grid200x2000", "grid2000x200")):
        metrics[f"evt_risk.{shape}_self_ms"] = statistics.median(
            self_ms(s, "evt_risk") for s in summaries[k::2]
        ) if summaries[k::2] else 0.0
    metrics["trend.fit_ms"] = median_ms("trend.fit_trend", "trend.detrend")
    metrics["trend.mk_ms"] = median_ms("trend.mann_kendall")

    head = summaries[:window]
    counts = Counter()
    calls = Counter()
    designs = 0
    for summary in head:
        counts.update(summary.get("counts", {}))
        calls.update(summary["calls"])
        designs += summary.get("designs", 0)
    per_op = float(len(head))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    t_calls = calls["dist.student_t_critical"]
    metrics.update({
        "cli.output_bytes": counts["cli.output_bytes"] / per_op,
        "peaks.kept_ratio": ratio(counts["peaks.kept_points"], counts["peaks.input_points"]),
        "trend.mk_pairs": counts["trend.mk_pairs"] / per_op,
        "linreg.fit_calls": calls["linreg.fit_ols"] / per_op,
        "linreg.rows_fitted": counts["linreg.rows_fitted"] / per_op,
        "dist.incbeta_calls": counts["calls.regularized_incomplete_beta"] / per_op,
        "dist.t_critical_calls": t_calls / per_op,
        "dist.t_critical_hit_ratio": ratio(counts["dist.t_critical_hits"], t_calls),
        "autoreg.fit_reuse_ratio": ratio(designs, calls["linreg.fit_ols"]),
        "evt_risk.cdf_evals": counts["calls.conditional_nonexceedance"] / per_op,
        "evt_risk.cdf_evals_per_point_loss": ratio(
            counts["calls.conditional_nonexceedance"], counts["evt_risk.point_losses"]
        ),
    })
    return metrics


def _names_like(summaries, prefix, suffix):
    names = set()
    for summary in summaries:
        names.update(n for n in summary["self_ns"] if n.startswith(prefix) and n.endswith(suffix))
    return sorted(names)
