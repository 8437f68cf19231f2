"""A command loads only the modules it runs.

A cold ``analyze --format json`` pays for every module it imports, and the
package is compiled from source on every run when bytecode is not written.
These checks run in fresh interpreters and assert which modules are loaded,
not how long anything takes.
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
WATCHED = ("riskseries.evt_risk", "riskseries._text", "dataclasses")

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


def _loaded_after(argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE.format(watched=WATCHED, argv=argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_analyze_json_loads_neither_evt_risk_nor_text_nor_dataclasses():
    loaded = _loaded_after(["analyze", CASE_STUDY, "--format", "json"])
    assert loaded == {"import": [], "main": [], "code": 0}


def test_risk_curve_loads_evt_risk(tmp_path):
    hazard = tmp_path / "hazard.csv"
    vulnerability = tmp_path / "vulnerability.csv"
    hazard.write_text("s,G\n1.0,2.0\n2.0,1.0\n")
    vulnerability.write_text("s,mean_loss,cov\n1.0,0.2,0.5\n2.0,0.5,0.5\n")
    loaded = _loaded_after(["risk-curve", "--hazard", str(hazard), "--vulnerability",
                            str(vulnerability), "--losses", "0,0.5", "--format", "json"])
    assert loaded == {"import": [], "main": ["riskseries.evt_risk"], "code": 0}


def test_text_format_loads_the_text_renderers():
    loaded = _loaded_after(["analyze", CASE_STUDY, "--format", "text"])
    assert loaded == {"import": [], "main": ["riskseries._text"], "code": 0}


def test_package_import_leaves_evt_risk_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = "import sys, riskseries; print('riskseries.evt_risk' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


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
