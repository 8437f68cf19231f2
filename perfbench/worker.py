"""One benchmark process: set up, run the timed loop, check every output.

Started by run.py from the root of a checkout; ``--spawn-ns`` is the
parent's CLOCK_MONOTONIC reading just before the spawn, so set-up time
includes interpreter start. Prints one JSON object on stdout.
"""
import time

STARTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


STARTUP_KEYS = ("interpreter_ms", "numpy_import_ms", "riskseries_import_ms")
SETUP_PROBES = 6   # fresh set-up-only processes spread over an untraced run


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()

    t0 = time.monotonic_ns()
    import numpy
    t1 = time.monotonic_ns()
    sys.path.insert(0, str(root / "src"))
    from riskseries import cli
    t2 = time.monotonic_ns()
    import oracles
    import reference
    import workloads
    out = Path(args.out)
    workload = workloads.WORKLOADS[args.workload](root, out, args.seed)
    ready = time.monotonic_ns()
    setup = {
        "setup_s": (ready - args.spawn_ns) / 1e9,
        "interpreter_ms": (STARTED_NS - args.spawn_ns) / 1e6,
        "numpy_import_ms": (t1 - t0) / 1e6,
        "riskseries_import_ms": (t2 - t1) / 1e6,
        "inputs_ms": (ready - t2) / 1e6,
    }
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    recorder = None  # in-process tracing; cli-cold children trace themselves
    if args.traced and workload.in_process:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
        recorder.disable()
    budget_ns = int(args.seconds * 1e9)
    # Set-up probes run between ops at evenly spaced points of the run, so
    # their median spans the host's states over the whole run.
    probe_at = [] if args.traced else [budget_ns * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]
    setups = [setup]
    records = []  # (traced, latency ns, output bytes, pair) per op
    failures: list[str] = []
    # Untraced runs time the reference routine during and after every op.
    sampler = None if args.traced else reference.Sampler(workload.reference_unit)
    refs_ns: list[float] = []  # per op: mean reference unit CPU time
    busy_ns = 0
    traced_ops = 0
    for index, traced, pair, can_stop in schedule(workload, args.traced):
        while probe_at and busy_ns >= probe_at[0]:
            setups.append(probe_setup(args, out / "probe"))
            probe_at.pop(0)
        if busy_ns >= budget_ns and can_stop:
            break
        workload.prepare(index)
        error = None
        output = ""
        span = recorder.span("bench.op") if traced and recorder else contextlib.nullcontext()
        if traced and recorder:
            recorder.begin_op(traced_ops)
            recorder.enable(count=traced_ops < workload.count_window)
        sampled_ns = 0
        start = time.perf_counter_ns()
        if sampler:
            sampler.start()
        try:
            with span:
                output = workload.run(index, cli, traced)
        except Exception as exc:  # any failure of the program is a failed op
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if sampler:
                sampled_ns = sampler.stop()
        end = time.perf_counter_ns()
        elapsed = end - start - sampled_ns
        if traced and recorder:
            recorder.disable()
            recorder.begin_op(-1)
        if sampler:
            refs_ns.append(sampler.reference_ns())
        busy_ns += time.perf_counter_ns() - start
        traced_ops += traced
        records.append((traced, elapsed, len(output.encode("utf-8")), pair))
        if error is None:
            try:
                workload.check(index, output)
            except (oracles.CheckFailed, LookupError, TypeError, ValueError) as exc:
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"op {len(records) - 1} (input {index}): {error}")

    workload.close()
    for _ in probe_at:  # a run whose last op overshot the budget
        setups.append(probe_setup(args, out / "probe"))
    if workload.in_process:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_rss_kb = workload.child_peak_rss_kb
    result = {
        "setup": setup,
        "setups": setups,
        "latencies_ns": [latency for traced, latency, _, _ in records if not traced],
        "refs_ns": refs_ns,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "fingerprint": fingerprint(root, numpy),
    }
    if args.traced:
        result["layers"], result["overhead_note"] = traced_metrics(workload, recorder, records, setup, out)
    print(json.dumps(result))
    return 0


def probe_setup(args, out: Path) -> dict:
    """Set-up timings of a fresh worker that stops before its first op."""
    out.mkdir(exist_ok=True)
    command = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--out", str(out), "--setup-only", "--spawn-ns",
    ]
    command.append(str(time.monotonic_ns()))  # read last, just before the spawn
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup"]


def schedule(workload, traced: bool):
    """Yield (input index, traced?, pair, may stop before this op) in run order.

    Untraced runs just count up. A traced run first traces the count window
    alone, from a fresh process, so its counts see the same cold caches on
    every run. Then it alternates an untraced and a traced op, in turn
    order, so both halves of each pair meet the same machine state; the
    pairs give the tracing overhead.
    """
    if not traced:
        for index in itertools.count():
            yield index, False, None, index >= 1 and not (workload.paired and index % 2)
        return
    for index in range(workload.count_window):
        yield index, True, None, False
    for pair in itertools.count():
        index = workload.count_window + pair
        ops = [(workload.plain_input(index), False), (index, True)]
        if pair % 2:
            ops.reverse()
        for position, (op_input, op_traced) in enumerate(ops):
            yield op_input, op_traced, pair, position == 0 and pair >= 1


def traced_metrics(workload, recorder, records, setup, out: Path) -> tuple[dict, str]:
    import tracer

    traced = [record for record in records if record[0]]
    if recorder:
        summaries = recorder.op_summaries()
        ops = [summaries[i] for i in range(len(traced))]
        recorder.dump(str(out / "spans.json"))
        startup = {key: setup[key] for key in STARTUP_KEYS}
    else:
        ops = workload.child_ops
        startup = {key: statistics.median(s["startup_ms"][key] for s in ops) for key in STARTUP_KEYS}
    for summary, (_, _, size, _) in zip(ops, traced):
        summary.setdefault("counts", {})["cli.output_bytes"] = size
    layers = tracer.layer_metrics(ops, workload.count_window)
    layers.update({f"startup.{key}": value for key, value in startup.items()})
    # The run only stops between pairs, so every pair has both halves.
    plain_ns = sum(latency for traced, latency, _, pair in records if pair is not None and not traced)
    traced_ns = sum(latency for traced, latency, _, pair in records if pair is not None and traced)
    pairs = len({pair for *_, pair in records if pair is not None})
    layers["trace.overhead_pct"] = 100.0 * (traced_ns / plain_ns - 1.0)
    return layers, f"{pairs} pairs: traced {traced_ns / 1e9:.3f} s vs untraced {plain_ns / 1e9:.3f} s"


def fingerprint(root: Path, numpy) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": blas_build,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libraries):
        if not path.startswith("/"):
            continue
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return function()
    return None


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (checkout has no .git)"


if __name__ == "__main__":
    sys.exit(main())
