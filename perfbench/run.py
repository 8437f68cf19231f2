"""riskseries benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload station-batch --seed 1 --seconds 20 --trace 0

Workloads: cli-cold, station-batch, long-record, risk-grid (see
BENCHMARK.json for why each exists). With ``--trace 0`` the run reports
the end-to-end metrics of an untraced worker process: op costs, each op's
time over that of a reference routine timed beside it (reference.py),
and set-up time as the median over several fresh processes. With
``--trace 1`` it traces a first window of ops, then alternates untraced
and traced ops, and reports the per-layer metrics of the traced ops plus
the tracing overhead between the pairs. Every op's output is checked against an
independent numpy oracle outside the timed region; a failed check, a
non-zero exit or an exception is a failed op.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report. Everything the run writes goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("cli-cold", "station-batch", "long-record", "risk-grid")
TAIL_BEYOND = 10        # the tail percentile has at least this many samples above it
DEADLINE_S = 170.0      # the whole run ends well inside 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(root: Path, out: Path, args, seconds: float, deadline: float, *flags) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("no time left before the deadline")
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
        "--out", str(out), *flags, "--spawn-ns",
    ]
    command.append(str(time.monotonic_ns()))  # read last, just before the spawn
    process = subprocess.Popen(
        command, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from None
    if process.returncode != 0:
        raise BenchError(f"worker exited {process.returncode}:\n{stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(latencies_ms: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 3 * TAIL_BEYOND:
        # That percentile would sit too near the median to be a tail.
        return ordered[-1], f"max of {n} ops (fewer than {3 * TAIL_BEYOND})"
    percentile = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{percentile:.1f} of {n} ops"


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict, list[str]]:
    """Gated metrics, their notes, and the report-only lines."""
    latencies = [ns / 1e6 for ns in result["latencies_ns"]]
    refs = result["refs_ns"]
    # Each op's time in units of the reference routine sampled during and after it.
    costs = [ns / ref for ns, ref in zip(result["latencies_ns"], refs)]
    tail_ms, tail_note = tail(latencies)
    metrics = {
        "op_cost_ref": (statistics.fmean(costs), "ref"),
        "op_cost_p50_ref": (statistics.median(costs), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "op_cost_ref": f"mean of {len(costs)} ops; reference routine "
                       f"{statistics.median(refs) / 1e3:.1f} us, median over ops",
        "op_cost_p50_ref": f"median of {len(costs)} ops",
        "setup_s": f"median of {len(setups)} fresh processes",
    }
    # Reported but not in the JSON metrics: wall-clock figures move with
    # the host's speed state by more than any bound the benchmark may set,
    # and on the long workloads the cost tail is the largest of a few ops.
    op_s = sum(latencies) / 1e3
    cost_tail, cost_tail_note = tail(costs)
    extra = [
        f"op_cost_tail_ref {cost_tail:.6g} ref ({cost_tail_note})",
        f"ops_per_s {len(latencies) / op_s:.6g} 1/s ({len(latencies)} ops over {op_s:.3f} s of op time)",
        f"op_latency_p50_ms {statistics.median(latencies):.6g} ms (median of {len(latencies)} ops)",
        f"op_latency_tail_ms {tail_ms:.6g} ms ({tail_note})",
    ]
    return metrics, notes, extra


LAYER_UNITS = {
    "startup.interpreter_ms": "ms", "startup.numpy_import_ms": "ms",
    "startup.riskseries_import_ms": "ms",
    "cli.self_ms": "ms", "cli.parse_ms": "ms", "cli.render_ms": "ms", "cli.output_bytes": "bytes",
    "series.self_ms": "ms",
    "peaks.self_ms": "ms", "peaks.kept_ratio": "ratio",
    "trend.self_ms": "ms", "trend.fit_ms": "ms", "trend.mk_ms": "ms", "trend.mk_pairs": "count",
    "linreg.self_ms": "ms", "linreg.fit_calls": "count", "linreg.rows_fitted": "count",
    "dist.self_ms": "ms", "dist.incbeta_calls": "count", "dist.t_critical_calls": "count",
    "dist.t_critical_hit_ratio": "ratio",
    "autoreg.self_ms": "ms", "autoreg.fit_reuse_ratio": "ratio",
    "residuals.self_ms": "ms",
    "evt_risk.self_ms": "ms", "evt_risk.cdf_evals": "count",
    "evt_risk.cdf_evals_per_point_loss": "ratio",
    "evt_risk.grid200x2000_self_ms": "ms", "evt_risk.grid2000x200_self_ms": "ms",
    "trace.overhead_pct": "%",
}


def per_layer(traced: dict) -> tuple[dict, dict, list[str]]:
    metrics = {name: (traced["layers"][name], unit) for name, unit in LAYER_UNITS.items()}
    return metrics, {"trace.overhead_pct": traced["overhead_note"]}, []


def report(args, metrics: dict, notes: dict, extra: list[str], result: dict):
    print(f"riskseries benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {value:>14.6g} {unit}{note}")
    print(f"  {'failed_op_ratio':<{width}}  {result['failed'] / result['attempted']:>14.6g} ratio"
          f"  ({result['failed']} failed of {result['attempted']} attempted)")
    for line in extra:
        print(f"  report only: {line}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    # One CPU for this process and all it starts (workers, CLI children,
    # BLAS), so an op and the reference routine beside it share a CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (root / "src" / "riskseries" / "__init__.py").is_file():
        print(f"error: no riskseries sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            result = run_worker(root, out, args, args.seconds, deadline, "--traced")
            setups = [result["setup"]]
            metrics, notes, extra = per_layer(result)
        else:
            result = run_worker(root, out, args, args.seconds, deadline)
            setups = result["setups"]
            metrics, notes, extra = end_to_end(result, [setup["setup_s"] for setup in setups])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    report(args, metrics, notes, extra, result)
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**summary, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "notes": notes, "report_only": extra,
              "fingerprint": result["fingerprint"],
              "setups": setups, "failures": result["failures"],
              "untraced_latencies_ns": result["latencies_ns"],
              "untraced_refs_ns": result.get("refs_ns", [])}
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"full record: {out / 'result.json'}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
