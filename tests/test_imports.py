"""A command loads only the modules it runs, and none of them is large to compile.

A cold ``analyze --format json`` pays for every module it imports, and the
package is compiled from source on every run when bytecode is not written.
These checks run in fresh interpreters and assert which modules are loaded
and how much memory compiling each one takes, not how long anything takes.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskseries

SRC = Path(__file__).resolve().parent.parent / "src"
CASE_STUDY = str(Path(__file__).resolve().parent / "data" / "extreme_precipitation.csv")
WATCHED = ("riskseries.evt_risk", "riskseries._risk_commands", "riskseries._text", "dataclasses")
RISK = ["riskseries.evt_risk", "riskseries._risk_commands"]
# A module's compile is a cold run's largest temporary allocation and sets its peak memory.
COMPILE_PEAK_LIMIT = 1_000_000

PROBE = """\
import io, json, sys
from contextlib import redirect_stdout
import riskseries.cli
loaded = {{"import": [m for m in {watched!r} if m in sys.modules]}}
with redirect_stdout(io.StringIO()):
    code = riskseries.cli.main({argv!r})
loaded["main"] = [m for m in {watched!r} if m in sys.modules]
loaded["code"] = code
print(json.dumps(loaded))
"""


# Every riskseries module the run loaded, compiled again from its source
# bytes as the import system compiles them, with the peak memory traced.
COMPILE_PROBE = """\
import io, json, sys, tracemalloc
from contextlib import redirect_stdout
import riskseries.cli
with redirect_stdout(io.StringIO()):
    code = riskseries.cli.main({argv!r})
peaks = {{}}
for name, module in sorted(sys.modules.items()):
    if name.partition(".")[0] == "riskseries":
        with open(module.__file__, "rb") as handle:
            source = handle.read()
        tracemalloc.start()
        compile(source, module.__file__, "exec")
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
print(json.dumps({{"code": code, "peaks": peaks}}))
"""


def _loaded_after(argv: list[str], probe: str = PROBE) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe.format(watched=WATCHED, argv=argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_analyze_json_loads_neither_evt_risk_nor_text_nor_dataclasses():
    loaded = _loaded_after(["analyze", CASE_STUDY, "--format", "json"])
    assert loaded == {"import": [], "main": [], "code": 0}


def test_every_module_of_a_cold_analyze_compiles_in_under_a_megabyte():
    run = _loaded_after(["analyze", CASE_STUDY, "--format", "json"], COMPILE_PROBE)
    assert run["code"] == 0
    peaks = run["peaks"]
    assert {"riskseries.cli", "riskseries._readers", "riskseries._pipeline",
            "riskseries._report"} <= peaks.keys()
    assert {name: peak for name, peak in peaks.items() if peak > COMPILE_PEAK_LIMIT} == {}


def test_risk_curve_loads_evt_risk(tmp_path):
    hazard = tmp_path / "hazard.csv"
    vulnerability = tmp_path / "vulnerability.csv"
    hazard.write_text("s,G\n1.0,2.0\n2.0,1.0\n")
    vulnerability.write_text("s,mean_loss,cov\n1.0,0.2,0.5\n2.0,0.5,0.5\n")
    loaded = _loaded_after(["risk-curve", "--hazard", str(hazard), "--vulnerability",
                            str(vulnerability), "--losses", "0,0.5", "--format", "json"])
    assert loaded == {"import": [], "main": RISK, "code": 0}


def test_gev_pdf_loads_the_risk_code():
    loaded = _loaded_after(["gev-pdf", "--mu", "0", "--sigma", "1", "--xi", "0.1",
                            "--x", "0,1", "--format", "json"])
    assert loaded == {"import": [], "main": RISK, "code": 0}


def test_text_format_loads_the_text_renderers():
    loaded = _loaded_after(["analyze", CASE_STUDY, "--format", "text"])
    assert loaded == {"import": [], "main": ["riskseries._text"], "code": 0}


def test_package_import_leaves_evt_risk_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = f"import sys, riskseries; print([m for m in {RISK!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_every_exported_name_resolves_and_is_listed():
    for name in riskseries.__all__:
        assert getattr(riskseries, name) is not None, name
    assert set(riskseries.__all__) <= set(dir(riskseries))


def test_star_import_gives_every_exported_name():
    namespace: dict = {}
    exec("from riskseries import *", namespace)
    assert set(riskseries.__all__) <= set(namespace)
    assert namespace["risk_curve"] is riskseries.evt_risk.risk_curve


def test_unknown_attribute_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        riskseries.not_a_name


def test_names_that_moved_out_of_cli_still_resolve_there():
    from riskseries import _pipeline, _report, _risk_commands, cli

    assert cli.ColumnTable is _report.ColumnTable
    assert cli.SCHEMA_VERSION == _report.SCHEMA_VERSION == 1
    assert cli.PipelineReport is _pipeline.PipelineReport
    assert cli.DETREND_DISABLED == _pipeline.DETREND_DISABLED
    assert cli.parse_hazard_csv is _risk_commands.parse_hazard_csv
    assert cli.parse_vulnerability_csv is _risk_commands.parse_vulnerability_csv
    assert {"ColumnTable", "parse_vulnerability_csv", "main"} <= set(dir(cli))
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        cli.not_a_name
