"""The four benchmark workloads: inputs made from a seed, one op each.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned. ``prepare`` and ``check`` run outside the
timed region; ``run`` is the op that is timed.
"""
from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracles
import reference
from oracles import CheckFailed

CASE_STUDY = "tests/data/extreme_precipitation.csv"
CLI_SNIPPET = "import sys; from riskseries.cli import main; sys.exit(main())"

# The traced cold CLI times its own imports, then runs main under the tracer.
TRACED_SNIPPET = """\
import sys, time
t0 = time.monotonic_ns()
import numpy
t1 = time.monotonic_ns()
import riskseries.cli
t2 = time.monotonic_ns()
sys.path.insert(0, {bench_dir!r})
import tracer
recorder = tracer.Recorder()
recorder.install()
recorder.begin_op(0)
code = riskseries.cli.main()
recorder.dump({dump!r}, {{"startup_ns": [t0, t1, t2]}})
sys.exit(code)
"""


class OpFailed(Exception):
    """The program exited non-zero or raised."""


def run_cli(cli, argv: list[str]) -> str:
    """``riskseries`` CLI in-process; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def write_series_csv(path: Path, values: np.ndarray):
    lines = ["month,value"] + [f"{i},{v!r}" for i, v in enumerate(values.tolist(), start=1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Workload:
    in_process = True
    count_window = 1   # ops whose counts the traced run reports
    paired = False     # stop only after an even number of ops
    reference_unit = staticmethod(reference.numeric_unit)  # see reference.py

    def __init__(self, root: Path, out: Path, seed: int):
        self.root = root
        self.out = out
        self.seed = seed

    def prepare(self, index: int):
        pass

    def plain_input(self, index: int) -> int:
        """Input of the untraced op paired with traced op ``index``."""
        return index

    def run(self, index: int, cli, traced: bool) -> str:
        raise NotImplementedError

    def check(self, index: int, output: str):
        raise NotImplementedError

    def close(self):
        pass


class CliCold(Workload):
    """A fresh interpreter per op running ``analyze`` on the case study."""

    in_process = False
    reference_unit = staticmethod(reference.startup_unit)

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        self.data = root / CASE_STUDY
        if not self.data.is_file():
            raise FileNotFoundError(f"case-study data missing: {self.data}")
        self.oracle = None
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.child_ops: list[dict] = []  # traced: per-op summaries from the children
        self.child_peak_rss_kb = 0  # largest CLI child, from its own rusage
        self.stderr = None  # a file, not a pipe, so a long traceback cannot block the child

    def run(self, index, cli, traced):
        argv = ["analyze", CASE_STUDY, "--format", "json"]
        if not traced:
            return self._spawn([sys.executable, "-c", CLI_SNIPPET, *argv])
        dump = self.out / f"cli-op{len(self.child_ops)}.json"
        snippet = TRACED_SNIPPET.format(bench_dir=str(Path(__file__).parent), dump=str(dump))
        spawned = time.monotonic_ns()
        output = self._spawn([sys.executable, "-c", snippet, *argv])
        child = json.loads(dump.read_text(encoding="utf-8"))
        t0, t1, t2 = child["startup_ns"]
        summary = child["ops"]["0"]
        summary["startup_ms"] = {
            "interpreter_ms": (t0 - spawned) / 1e6,
            "numpy_import_ms": (t1 - t0) / 1e6,
            "riskseries_import_ms": (t2 - t1) / 1e6,
        }
        self.child_ops.append(summary)
        return output

    def _spawn(self, command):
        # Reaped with wait4 rather than through subprocess, for the child's
        # own peak RSS: RUSAGE_CHILDREN would also count the set-up probes.
        if self.stderr is None:
            self.stderr = open(self.out / "cli_stderr.txt", "w+b")
        self.stderr.seek(0)
        self.stderr.truncate()
        child = subprocess.Popen(command, cwd=self.root, env=self.env,
                                 stdout=subprocess.PIPE, stderr=self.stderr)
        with child.stdout:
            stdout = child.stdout.read().decode("utf-8")
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, usage.ru_maxrss)
        self.stderr.seek(0)
        stderr = self.stderr.read().decode("utf-8", "replace")
        if child.returncode != 0 or "Traceback" in stderr:
            raise OpFailed(f"exit {child.returncode}: {stderr.strip()[-300:]}")
        return stdout

    def close(self):
        if self.stderr is not None:
            self.stderr.close()

    def check(self, index, output):
        if self.oracle is None:
            rows = self.data.read_text(encoding="utf-8").splitlines()[1:]
            values = [float(row.split(",")[1]) for row in rows if row.strip()]
            self.oracle = oracles.AnalyzeOracle(np.array(values))
        payload = json.loads(output)
        oracles.check_case_study_golden(payload)
        self.oracle.check(payload)


def station_values(seed: int, station: int) -> np.ndarray:
    """Monthly record, 240-1200 months: Gumbel noise, AR(1), mild trend."""
    rng = np.random.default_rng([seed, station])
    n = int(rng.integers(240, 1201))
    phi = rng.uniform(0.2, 0.6)
    noise = rng.gumbel(0.0, rng.uniform(15.0, 40.0), size=n)
    dependent = np.empty(n)
    level = 0.0
    for t, shock in enumerate(noise.tolist()):
        level = phi * level + shock
        dependent[t] = level
    trend = rng.uniform(0.0, 0.03) * np.arange(n)
    return np.maximum(np.round(120.0 + trend + dependent, 1), 0.0)


UNTRACED_STATIONS = 1_000_000  # first station index of the untraced stream


class StationBatch(Workload):
    """One synthetic station per op: ``analyze --threshold <q90>``."""

    count_window = 32

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        self.path = out / "station.csv"

    def prepare(self, index):
        values = station_values(self.seed, index)
        self.threshold = float(np.quantile(values, 0.9))
        self.kept = values[values > self.threshold]
        write_series_csv(self.path, values)

    def plain_input(self, index):
        # Untraced ops take stations of their own, so they never warm the
        # t-quantile cache for the traced station they are paired with.
        return UNTRACED_STATIONS + index

    def run(self, index, cli, traced):
        argv = ["analyze", str(self.path), "--threshold", repr(self.threshold), "--format", "json"]
        return run_cli(cli, argv)

    def check(self, index, output):
        payload = json.loads(output)
        if payload["pot"]["n"] != len(self.kept):
            raise CheckFailed(f"POT kept {payload['pot']['n']} events, expected {len(self.kept)}")
        oracles.AnalyzeOracle(self.kept).check(payload)


def long_record_values(seed: int, n: int = 10_000) -> np.ndarray:
    """Daily record: about 60% dry days (exact 0.0), wet amounts to 0.1 mm."""
    rng = np.random.default_rng([seed, 10_000])
    wet = rng.random(n) < 0.4
    amounts = np.maximum(np.round(rng.gamma(0.7, 9.0, size=n), 1), 0.1)
    return np.where(wet, amounts, 0.0)


class LongRecord(Workload):
    """``analyze`` with no threshold on one 10,000-day record."""

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        self.values = long_record_values(seed)
        self.path = out / "long_record.csv"
        write_series_csv(self.path, self.values)
        self.oracle = None

    def run(self, index, cli, traced):
        return run_cli(cli, ["analyze", str(self.path), "--format", "json"])

    def check(self, index, output):
        if self.oracle is None:
            self.oracle = oracles.AnalyzeOracle(self.values)
        self.oracle.check(json.loads(output))


RISK_SHAPES = ((200, 2000), (2000, 200))  # (hazard points, losses)
RISK_SAMPLE = 16


class RiskGrid(Workload):
    """``risk-curve`` from CSVs, alternating the two shapes."""

    count_window = 2
    paired = True

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        self.shapes = [self._make_shape(k, points, losses) for k, (points, losses)
                       in enumerate(RISK_SHAPES)]

    def _make_shape(self, k: int, points: int, losses: int) -> dict:
        rng = np.random.default_rng([self.seed, 20_000 + k])
        s = np.linspace(0.5, 10.0, points) + rng.uniform(0.0, 0.4, points) * (9.5 / points)
        g = rng.uniform(0.5, 5.0) * np.exp(-rng.uniform(0.2, 1.2) * (s - s[0]))
        g *= rng.uniform(0.995, 1.0, points).cumprod()
        mean = np.sort(rng.uniform(0.05, 2.0, points))
        cov = rng.uniform(0.1, 1.5, points)
        grid = np.linspace(0.0, 3.0 * float(mean.max()), losses)
        paths = {name: self.out / f"risk{k}_{name}.csv" for name in ("hazard", "vulnerability", "losses")}
        paths["hazard"].write_text(
            "s,G\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(s.tolist(), g.tolist())),
            encoding="utf-8",
        )
        paths["vulnerability"].write_text(
            "s,mean_loss,cov\n" + "".join(
                f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(s.tolist(), mean.tolist(), cov.tolist())
            ),
            encoding="utf-8",
        )
        paths["losses"].write_text("x\n" + "".join(f"{x!r}\n" for x in grid.tolist()), encoding="utf-8")
        return {"s": s, "g": g, "mean": mean, "cov": cov, "losses": grid, "paths": paths,
                "sample": None, "reference": None}

    def run(self, index, cli, traced):
        paths = self.shapes[index % 2]["paths"]
        return run_cli(cli, [
            "risk-curve", "--hazard", str(paths["hazard"]),
            "--vulnerability", str(paths["vulnerability"]),
            "--loss-csv", str(paths["losses"]), "--format", "json",
        ])

    def check(self, index, output):
        shape = self.shapes[index % 2]
        if shape["sample"] is None:
            sample = np.unique(np.linspace(0, len(shape["losses"]) - 1, RISK_SAMPLE).astype(int))
            shape["sample"] = sample
            shape["reference"] = np.array([
                oracles.risk_trapezoid(float(shape["losses"][i]), shape["s"], shape["g"],
                                       shape["mean"], shape["cov"])
                for i in sample
            ])
        payload = json.loads(output)
        oracles.check_risk(payload["frequencies"], shape["losses"], shape["sample"], shape["reference"])


WORKLOADS = {
    "cli-cold": CliCold,
    "station-batch": StationBatch,
    "long-record": LongRecord,
    "risk-grid": RiskGrid,
}
