"""The CSV readers against their per-row reference.

``row_readers.py`` is a frozen copy of the readers that split, strip and
convert one row at a time. The CLI's readers take the good case as whole
columns and hand everything else to their own per-row loop, so on every
input of the corpus below they must return the same bits or raise the same
error, and the CLI must print the same bytes and exit with the same code.
"""
import math
from types import SimpleNamespace

import pytest

import row_readers as reference
from riskseries import _readers, _risk_commands, cli, evt_risk
from riskseries.errors import DataError, UsageError

# The program's readers, by the names the reference module gives them.
PROGRAM = SimpleNamespace(
    parse_csv=_readers.parse_csv,
    parse_hazard_csv=_risk_commands.parse_hazard_csv,
    parse_vulnerability_csv=_risk_commands.parse_vulnerability_csv,
    _parse_loss_grid=_risk_commands._parse_loss_grid,
)

HEADERS = {"csv": "month,value", "hazard": "s,G", "vulnerability": "s,mean_loss,cov", "losses": "x"}
GOOD_ROWS = {
    "csv": [["1", "10"], ["2", "20.5"], ["5", "0.1"], ["7", "1e-3"]],
    "hazard": [["1.0", "2.0"], ["2.0", "1.0"], ["3.0", "0.5"]],
    "vulnerability": [["1.0", "0.2", "0.5"], ["2.0", "0.5", "0.5"], ["3.0", "0.9", "0.3"]],
    "losses": [["0.5"], ["0"], ["1.5"]],
}
BIG = 2 ** 63


def _text(header, rows, sep="\n", cell_sep=","):
    return sep.join([header] + [cell_sep.join(row) for row in rows]) + sep


def _with_cell(rows, i, j, cell):
    rows = [list(row) for row in rows]
    rows[i][j % len(rows[i])] = cell
    return rows


def _variants(kind):
    """(name, file bytes) pairs: the good file and its variations."""
    header, rows = HEADERS[kind], GOOD_ROWS[kind]
    width = len(rows[0])
    good = _text(header, rows)
    yield "good", good.encode()
    yield "bom", b"\xef\xbb\xbf" + good.encode()
    yield "double-bom", b"\xef\xbb\xbf\xef\xbb\xbf" + good.encode()
    for name, sep in [("crlf", "\r\n"), ("cr", "\r"), ("vt", "\x0b"), ("ff", "\x0c"),
                      ("fs", "\x1c"), ("nel", "\x85"), ("ls", "\u2028")]:
        yield f"lines-{name}", _text(header, rows, sep=sep).encode()
    yield "no-final-newline", good.rstrip("\n").encode()
    yield "blank-lines", ("\n \n" + header + "\n\n\t\n" + "\n \n".join(
        ",".join(row) for row in rows) + "\n\n").encode()
    yield "spaces", _text(f" {header} ", [[f" {c} " for c in row] for row in rows]).encode()
    yield "tabs", _text(header, [[f"\t{c}\t" for c in row] for row in rows]).encode()
    yield "nbsp", _text(header, [[f"\u00a0{c}\u2003" for c in row] for row in rows]).encode()
    yield "unit-separator", _text(header, _with_cell(rows, 1, -1, rows[1][-1] + "\x1f")).encode()
    yield "header-case", _text(header.upper(), rows).encode()
    yield "header-extra-column", _text(header + ",extra", rows).encode()
    yield "header-missing", _text("", rows).lstrip("\n").encode()
    yield "header-only", (header + "\n").encode()
    yield "header-then-blank-lines", (header + "\n\n \n\t\n").encode()
    yield "empty", b""
    yield "blank-only", b"\n \n"
    yield "plus", _text(header, [["+" + c for c in row] for row in rows]).encode()
    yield "underscore", _text(header, _with_cell(rows, 0, 0, "1_0" if kind == "csv" else "0_1.0")).encode()
    yield "arabic-digit", _text(header, _with_cell(rows, 0, 0, "\u0661")).encode()
    yield "exponent", _text(header, [[c if "." not in c else f"{float(c) * 10}e-1"
                                      for c in row] for row in rows]).encode()
    yield "month-exponent", _text(header, _with_cell(rows, 0, 0, "1e0")).encode()
    yield "hex", _text(header, _with_cell(rows, 0, -1, "0x10")).encode()
    yield "empty-cell", _text(header, _with_cell(rows, 1, -1, "")).encode()
    for j in range(width):
        for cell in ["nan", "inf", "-inf", "1e400", "-1", "0", "-0.0", "5e-324"]:
            yield f"col{j}-{cell}", _text(header, _with_cell(rows, 1, j, cell)).encode()
    for cell in [str(BIG), str(2 ** 64), str(-BIG - 1), str(BIG - 1)]:
        yield f"huge-first-{cell}", _text(header, _with_cell(rows, -1, 0, cell)).encode()
    yield "huge-both", _text(header, [[str(BIG + i)] + row[1:] for i, row in enumerate(rows)]).encode()
    yield "missing-field", _text(header, rows[:1] + [rows[1][:-1]] + rows[2:]).encode()
    yield "extra-field", _text(header, rows[:1] + [rows[1] + ["1"]] + rows[2:]).encode()
    # Two rows whose cells add up to a whole number of rows, but not per row.
    yield "misaligned", _text(header, [rows[0][:-1], rows[1] + ["1"]] + rows[2:]).encode()
    yield "misaligned-5-678", _text(header, [["5"], ["6", "7", "8"]]).encode()
    yield "reversed", _text(header, rows[::-1]).encode()
    yield "duplicated", _text(header, rows[:1] + rows).encode()
    yield "one-row", _text(header, rows[:1]).encode()
    yield "short", _text(header, rows[:-1]).encode()
    yield "long", _text(header, rows + [[str(10 + j) for j in range(width)]]).encode()
    yield "semicolons", _text(header.replace(",", ";"), [[c.replace(".", ",") for c in row]
                                                           for row in rows], cell_sep=";").encode()
    yield "comma-decimals", _text(header, [row[:1] + [c.replace(".", ",") for c in row[1:]]
                                           for row in rows]).encode()
    yield "not-utf8", good.encode()[:-3] + b"\xff\n"
    yield "latin1", _text(header, _with_cell(rows, 0, -1, "1\u00e9")).encode("latin-1")


KINDS = ["csv", "hazard", "vulnerability", "losses"]
CASES = [(kind, name, data) for kind in KINDS for name, data in _variants(kind)]
# Both decimal modes of the month,value reader; the others have none.
RUNS = [(kind, name, data, decimal) for kind, name, data in CASES
        for decimal in ([cli.DECIMAL_POINT, cli.DECIMAL_COMMA] if kind == "csv"
                        else [cli.DECIMAL_POINT])]


def _bits(value):
    """A reader's result with every float as its hex bits."""
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "indices"):  # TimeSeries
        return value.indices.tolist(), [v.hex() for v in value.values.tolist()]
    if hasattr(value, "points"):  # HazardCurve
        return _bits(value.points)
    if hasattr(value, "mean_loss"):  # VulnerabilityCurve: one row of bits per point
        columns = (value.s, value.mean_loss, value.cov, value.theta, value.beta)
        return _bits(list(zip(*(column.tolist() for column in columns))))
    if isinstance(value, (tuple, list)):
        return [_bits(item) for item in value]
    return value


def _outcome(read):
    try:
        return "ok", _bits(read())
    except (DataError, UsageError) as exc:
        return type(exc).__name__, str(exc)


def _files(tmp_path, kind, data):
    paths = {k: tmp_path / f"{k}.csv" for k in KINDS}
    for k, path in paths.items():
        path.write_bytes(data if k == kind else _text(HEADERS[k], GOOD_ROWS[k]).encode())
    return {k: str(path) for k, path in paths.items()}


def _read(module, kind, paths, decimal):
    if kind == "csv":
        return module.parse_csv(paths["csv"], decimal)
    if kind == "hazard":
        return module.parse_hazard_csv(paths["hazard"])
    hazard = reference.parse_hazard_csv(paths["hazard"])
    if kind == "vulnerability":
        return module.parse_vulnerability_csv(paths["vulnerability"], hazard)
    return module._parse_loss_grid(None, paths["losses"])


def _argv(kind, paths, decimal):
    if kind == "csv":
        return ["summarize", paths["csv"], "--format", "json"] + (
            ["--decimal-comma"] if decimal == cli.DECIMAL_COMMA else [])
    return ["risk-curve", "--hazard", paths["hazard"], "--vulnerability", paths["vulnerability"],
            "--loss-csv", paths["losses"], "--format", "json"]


@pytest.mark.parametrize("kind, name, data, decimal", RUNS,
                         ids=[f"{k}-{n}-{d}" for k, n, _, d in RUNS])
def test_reader_matches_the_per_row_reference(tmp_path, capsys, monkeypatch, kind, name, data,
                                              decimal):
    paths = _files(tmp_path, kind, data)
    expected = _outcome(lambda: _read(reference, kind, paths, decimal))
    assert _outcome(lambda: _read(PROGRAM, kind, paths, decimal)) == expected

    code = cli.main(_argv(kind, paths, decimal))
    out, err = capsys.readouterr()
    # Each reader is replaced where the commands look it up.
    for module, reader in [(cli, "parse_csv"), (_risk_commands, "parse_hazard_csv"),
                           (_risk_commands, "parse_vulnerability_csv"),
                           (_risk_commands, "_parse_loss_grid")]:
        monkeypatch.setattr(module, reader, getattr(reference, reader))
    assert (code, out, err) == (cli.main(_argv(kind, paths, decimal)), *capsys.readouterr())


def test_corpus_exercises_both_paths_of_every_reader(tmp_path):
    """The corpus is worth running only if it has good and bad files of each kind."""
    for kind in KINDS:
        outcomes = {_outcome(lambda: _read(PROGRAM, kind, _files(tmp_path, kind, data),
                                           cli.DECIMAL_POINT))[0]
                    for k, _, data in CASES if k == kind}
        assert outcomes == {"ok", "DataError"}, kind


def _good_file(kind, n):
    if kind == "csv":
        rows = [[str(3 * i + 1), repr(0.1 * i)] for i in range(n)]
    elif kind == "losses":
        rows = [[repr(0.25 * i)] for i in range(n)]
    else:
        s = [repr(1.0 + 0.01 * i) for i in range(n)]
        rows = ([[s_i, repr(math.exp(-0.003 * i))] for i, s_i in enumerate(s)] if kind == "hazard"
                else [[s_i, repr(0.1 + 0.001 * i), "0.5"] for i, s_i in enumerate(s)])
    return _text(HEADERS[kind], rows).encode()


def test_good_files_never_reach_the_per_row_loop(tmp_path, monkeypatch):
    paths = {k: tmp_path / f"{k}.csv" for k in KINDS}
    for kind, path in paths.items():
        path.write_bytes(_good_file(kind, 1000))
    paths = {k: str(path) for k, path in paths.items()}
    expected = {kind: _bits(_read(reference, kind, paths, cli.DECIMAL_POINT)) for kind in KINDS}

    def per_row(*args):
        raise AssertionError("the per-row loop ran on a good file")

    # Each helper is replaced in every reader module that looks it up.
    for module in (_readers, _risk_commands):
        for helper in ["_numbered_rows", "_csv_rows", "_hazard_rows", "_vulnerability_rows",
                       "_loss_rows", "_finite_row"]:
            if hasattr(module, helper):
                monkeypatch.setattr(module, helper, per_row)
    for kind in KINDS:
        assert _bits(_read(PROGRAM, kind, paths, cli.DECIMAL_POINT)) == expected[kind]
    assert len(expected["vulnerability"]) == 1000


def test_a_good_vulnerability_file_builds_no_point_record(tmp_path, monkeypatch, capsys):
    paths = {k: tmp_path / f"{k}.csv" for k in KINDS}
    for kind, path in paths.items():
        path.write_bytes(_good_file(kind, 2000))
    paths = {k: str(path) for k, path in paths.items()}
    argv = _argv("vulnerability", paths, cli.DECIMAL_POINT)
    assert cli.main(argv) == 0
    expected = capsys.readouterr()

    def point_record(self):
        raise AssertionError("a VulnerabilityPoint was built from a good file")

    monkeypatch.setattr(evt_risk.VulnerabilityPoint, "__post_init__", point_record)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == expected
    assert len(cli.parse_vulnerability_csv(paths["vulnerability"],
                                           cli.parse_hazard_csv(paths["hazard"]))) == 2000
