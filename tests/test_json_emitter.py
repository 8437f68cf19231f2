"""``render``'s JSON writer against ``json.dumps(indent=2, allow_nan=True)``."""
import hashlib
import io
import json
import random
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from riskseries import _report, _risk_commands, cli, evt_risk, peaks
from riskseries.cli import (
    EXIT_OK,
    AnalysisConfig,
    ColumnTable,
    event_series_to_dict,
    main,
    parse_csv,
    pipeline_to_dict,
    render,
    run_pipeline,
)
from riskseries.series import TimeSeries
from test_cli_snapshots import COMMANDS

STRINGS = ["", "a", "month,value", "é", "雨量", "\U0001F327", "\x00\x01\x1f", "\n\t\r\b\f",
           '"quoted"', "back\\slash", "\x7f  ", "mixed é\x05\"\\"]
FLOATS = [0.0, -0.0, 1.0, -1.5, 0.1, 1e16, 1e-7, 1e-5, 123456789.0, 1.7976931348623157e308,
          5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308,
          float("nan"), float("inf"), float("-inf")]
INTS = [0, 1, -1, 2**53 + 1, -(2**63), 2**70, 10**30]


def _table_rows(value) -> list:
    """``json.dumps``'s ``default``: a ColumnTable stands for the list of its row dicts."""
    if isinstance(value, ColumnTable):
        return list(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _expected(value) -> str:
    return json.dumps(value, indent=2, allow_nan=True, default=_table_rows) + "\n"


def _random_float(rng: random.Random) -> float:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(FLOATS)
    if kind == 1:  # any bit pattern, NaNs and subnormals included
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    if kind == 2:
        return rng.uniform(-1e3, 1e3)
    return rng.random() * 10.0 ** rng.randint(-320, 308)


def _random_leaf(rng: random.Random):
    kind = rng.randrange(9)
    if kind == 0:
        return rng.choice(STRINGS)
    if kind == 1:
        return None
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return rng.choice([0, 1])  # next to the bools, as ints
    if kind == 4:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randint(-10**20, 10**20)
    if kind == 5:
        return np.float64(_random_float(rng))
    if kind == 6:
        return rng.choice([{}, [], ()])
    return _random_float(rng)


def _random_payload(rng: random.Random, depth: int = 0):
    if depth >= 4 or rng.random() < 0.3:
        return _random_leaf(rng)
    size = rng.randrange(5)
    kind = rng.randrange(4)
    if kind == 3:
        return _random_rows(rng)
    if kind == 0:
        return {
            rng.choice(STRINGS) + str(rng.randrange(100)): _random_payload(rng, depth + 1)
            for _ in range(size)
        }
    items = [_random_payload(rng, depth + 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


def _random_rows(rng: random.Random) -> list:
    """A list of equal-length lists of scalars, sometimes bent out of shape."""
    n = rng.choice([1, 2, 3, 8, 60])
    kinds = [rng.choice(ROW_COLUMN_KINDS) for _ in range(rng.choice([0, 1, 2, 3, 6]))]
    columns = [_scalar_column(rng, kind, n) for kind in kinds]
    rows = [[column[i] for column in columns] for i in range(n)]
    bend = rng.randrange(8)
    row = rng.randrange(n)
    if bend == 0 and rows[row]:  # ragged
        rows[row].pop()
    elif bend == 1:  # a nested list or record in one cell
        rows[row].append(rng.choice([[1.0, 2.0], [], {"k": 1.0}]))
    elif bend == 2:  # an empty row among full ones
        rows[row] = []
    elif bend == 3:  # one row a tuple
        rows[row] = tuple(rows[row])
    elif bend == 4 and rows[row]:  # one cell of another type
        rows[row][rng.randrange(len(rows[row]))] = _random_leaf(rng)
    return rows


def test_random_payloads_match_json_dumps():
    rng = random.Random(20161)
    for _ in range(3000):
        payload = _random_payload(rng)
        assert render(payload, "json", None) == _expected(payload)


def test_every_leaf_kind_at_top_level_and_nested():
    leaves = [*STRINGS, *FLOATS, *INTS, None, True, False, {}, [], (),
              *(np.float64(x) for x in FLOATS)]
    for leaf in leaves:
        assert render(leaf, "json", None) == _expected(leaf)
        payload = {"leaf": leaf, "list": [leaf, [leaf], {"k": leaf}], "tuple": (leaf,)}
        assert render(payload, "json", None) == _expected(payload)


def _long_record_csv(tmp_path, seed: int = 7, n: int = 10_000):
    """Daily record: about 60% dry days (exact 0.0), wet amounts to 0.1 mm."""
    rng = np.random.default_rng([seed, n])
    wet = rng.random(n) < 0.4
    amounts = np.maximum(np.round(rng.gamma(0.7, 9.0, size=n), 1), 0.1)
    values = np.where(wet, amounts, 0.0)
    path = tmp_path / "long_record.csv"
    path.write_text("month,value\n" + "".join(
        f"{m},{v!r}\n" for m, v in enumerate(values.tolist(), start=1)
    ))
    return path


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _first_difference(a: str, b: str) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _assert_same_text(text: str, expected: str):
    # Comparing long strings themselves would have pytest diff them for
    # minutes on a failure; the digest fails as surely, and at once.
    assert (len(text), _sha256(text)) == (len(expected), _sha256(expected)), \
        f"first difference at offset {_first_difference(text, expected)}"


def test_long_record_analyze_payload_matches_json_dumps(tmp_path):
    path = _long_record_csv(tmp_path)
    report = run_pipeline(parse_csv(str(path)), AnalysisConfig(input=str(path)))
    payload = pipeline_to_dict(report)
    assert payload["residuals"]["n"] == 9_999
    _assert_same_text(render(payload, "json", None), _expected(payload))


def test_exact_fit_ar_payload_with_infinity_matches_json_dumps(tmp_path):
    path = tmp_path / "doubling.csv"
    path.write_text("month,value\n" + "".join(f"{m},{2 ** m}\n" for m in range(1, 11)))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["ar", str(path), "--max-lag", "1", "--format", "json"]) == EXIT_OK
    text = out.getvalue()
    assert '"t_stat": Infinity' in text
    assert text == _expected(json.loads(text))


@pytest.mark.parametrize("value", [{1.0, 2.0}, np.array([1.0, 2.0]), np.int64(3), np.bool_(True),
                                   {"nested": [frozenset()]}, {1: "int key"}])
def test_values_outside_the_report_types_raise_type_error(value):
    # json.dumps would coerce the int key; reports only use str keys.
    with pytest.raises(TypeError):
        render(value, "json", None)


# Lists of one exact scalar type are written in one pass; every other list,
# lists of flat records or of flat lists included, is written item by item.

TEXTS = ["", "plain", "é", "雨量", "\U0001F327", "\x00\x01\x1f", "\n\t", "100%", "%s %(k)s",
         "{0}", "{", '"', '\\"{%}\\"', "\x7f", "mixed é\x05\"\\"]
SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324,
                  2.2250738585072009e-308, 1e16, -1e16, 1e22, 1.7976931348623157e308]


def _scalar_column(rng: random.Random, kind: str, n: int) -> list:
    if kind == "float":
        return [_random_float(rng) for _ in range(n)]
    if kind == "special":
        return [rng.choice(SPECIAL_FLOATS) if rng.random() < 0.5 else _random_float(rng)
                for _ in range(n)]
    if kind == "int01":
        return [rng.choice([0, 1]) for _ in range(n)]
    if kind == "bool":
        return [rng.choice([True, False]) for _ in range(n)]
    if kind == "bigint":
        return [rng.choice(INTS) if rng.random() < 0.3 else rng.randint(-10**40, 10**40)
                for _ in range(n)]
    if kind == "bool-int":  # bools next to ints: each keeps its own spelling
        return [rng.choice([True, False, 0, 1]) for _ in range(n)]
    if kind == "float-int":
        return [rng.choice([1.0, -0.0, 1, 0]) for _ in range(n)]
    if kind == "float64":
        return [np.float64(_random_float(rng)) for _ in range(n)]
    if kind == "none":
        return [None] * n
    return [rng.choice(TEXTS) + rng.choice(STRINGS) for _ in range(n)]


COLUMN_KINDS = ["float", "special", "int01", "bool", "bigint", "str", "none"]
ROW_COLUMN_KINDS = COLUMN_KINDS + ["bool-int", "float-int", "float64"]


@pytest.mark.parametrize("kind", COLUMN_KINDS)
def test_scalar_lists_of_one_type_match_json_dumps(kind):
    rng = random.Random(f"scalars-{kind}")
    for n in (1, 2, 3, 17, 400):
        items = _scalar_column(rng, kind, n)
        for payload in (items, tuple(items), {"values": items}, [[items], {"k": items}]):
            assert render(payload, "json", None) == _expected(payload)


def test_float_lists_with_every_special_value_match_json_dumps():
    for payload in (SPECIAL_FLOATS, [float("nan")] * 3, [float("inf"), 1.0], [-0.0, 0.0]):
        assert render(payload, "json", None) == _expected(payload)


def test_records_of_every_column_kind_match_json_dumps():
    rng = random.Random(20162)
    for trial in range(200):
        n = rng.choice([1, 2, 3, 10, 250])
        keys = [rng.choice(TEXTS) + str(j) for j in range(rng.randint(1, 8))]
        columns = {key: _scalar_column(rng, rng.choice(COLUMN_KINDS), n) for key in keys}
        rows = [{key: columns[key][i] for key in keys} for i in range(n)]
        if trial % 4 == 3:  # one row lists the same keys in another order
            row = rng.randrange(n)
            rows[row] = dict(rng.sample(list(rows[row].items()), len(keys)))
        payload = {"rows": rows, "n": n} if trial % 2 else rows
        assert render(payload, "json", None) == _expected(payload)


def test_rows_of_every_column_kind_match_json_dumps():
    rng = random.Random(20164)
    for trial in range(300):
        n = rng.choice([1, 2, 3, 10, 250])
        columns = [_scalar_column(rng, rng.choice(ROW_COLUMN_KINDS), n)
                   for _ in range(rng.randint(1, 6))]
        rows = [[column[i] for column in columns] for i in range(n)]
        payload = {"points": rows, "n": n} if trial % 2 else rows
        assert render(payload, "json", None) == _expected(payload)


@pytest.mark.parametrize("rows", [
    [[0, 1.0], [1, float("nan")], [2, float("inf")], [3, float("-inf")], [4, -0.0]],
    [[True, 1], [1, True], [False, 0]],  # bools and ints mixed per column
    [[1.0, 2.0], [3.0]],  # ragged
    [[1.0], [2.0, 3.0]],
    [[], []],  # empty rows
    [[], [1.0]],
    [[1.0], []],
    [[[1.0, 2.0]], [[3.0, 4.0]]],  # nested rows
    [[{"a": 1.0}], [{"a": 2.0}]],
    [[1.0, 2.0], (3.0, 4.0)],  # a tuple row
    [(1.0, 2.0), (3.0, 4.0)],
    [[1.0, None], [2.0, None]],
    [[np.float64(1.0), 2.0], [3.0, 4.0]],
    [["é", "\x00"], ["雨量", '"']],
    [[1.0, 2.0], {"a": 1.0}],
    [[5e-324, 1.7976931348623157e308]],  # one row
])
def test_lists_of_lists_match_json_dumps(rows):
    for payload in (rows, {"rows": rows}, [rows]):
        assert render(payload, "json", None) == _expected(payload)


def test_residual_shaped_records_with_non_finite_floats_match_json_dumps():
    rng = random.Random(20163)
    rows = [
        {
            "observation_id": i,
            "y": rng.choice(SPECIAL_FLOATS),
            "y_predicted": _random_float(rng),
            "residual": rng.choice(SPECIAL_FLOATS),
            "standardized": rng.choice([float("nan"), -0.0, 1e16]),
            "percentile": rng.random(),
            "outlier": rng.choice([True, False]),
            "flag": rng.choice([0, 1]),
        }
        for i in range(1, 300)
    ]
    assert render({"rows": rows}, "json", None) == _expected({"rows": rows})


@pytest.mark.parametrize("payload", [
    [True, 1, False, 0],  # bool and int mixed: each keeps its own spelling
    [0, 1, True],
    [1.0, np.float64(2.0), 3.0],
    [np.float64(1.5), np.float64(float("nan"))],
    [1.0, 2, 3.0],
    ["a", None, "b"],
    [{"a": 1, "b": 2.0}, {"b": 2.5, "a": 3}],  # reordered keys
    [{"a": 1.0, "b": 2.0}, {"b": 3.0, "a": 4.0}],  # reordered keys, one type
    [{"a": "x", "b": "y", "c": "z"}, {"a": "u", "c": "w", "b": "v"}],
    [{"a": 1.0, "b": 2.0}, {"a": 3.0}],  # missing key
    [{"a": 1.0}, {"a": 2.0, "b": 3.0}],  # extra key
    [{}, {}],
    [{}, {"a": 1}],
    [{"a": 1}, {}],
    [{"a": 1.0, "b": [1.0, 2.0]}, {"a": 2.0, "b": [3.0]}],  # nested container
    [{"a": {"x": 1}}, {"a": {"x": 2}}],
    [{"a": True, "b": 1}, {"a": 1, "b": True}],
    [{"a": 1.0, "b": np.float64(2.0)}, {"a": 3.0, "b": 4.0}],
    [{"a": None}, {"a": None}],
    [{"a": 1.0}, [1.0]],
    [[1.0, 2.0], [3.0]],
    [{"a": 1.0}],  # one row
    [{"a": float("nan"), "b": "é%{"}],
    [True],
    [float("-inf")],
    ["{%s}"],
])
def test_lists_that_fall_back_or_are_single_match_json_dumps(payload):
    assert render(payload, "json", None) == _expected(payload)
    assert render({"k": [payload]}, "json", None) == _expected({"k": [payload]})


@pytest.mark.parametrize("rows", [
    [{1: 1.0}, {1: 2.0}],
    [{"a": 1.0, 2: 3.0}, {"a": 1.0, 2: 3.0}],
    [{"a": 1.0}, {2: 3.0}],
])
def test_records_with_an_int_key_raise_the_same_type_error(rows):
    with pytest.raises(TypeError, match="^keys must be str, not int$"):
        render({"rows": rows}, "json", None)


def _count_write_json_calls(monkeypatch, payload) -> int:
    calls = 0
    write_json = _report._write_json

    def counting(value, parts, newline):
        nonlocal calls
        calls += 1
        write_json(value, parts, newline)

    monkeypatch.setattr(_report, "_write_json", counting)
    _assert_same_text(render(payload, "json", None), _expected(payload))
    return calls


def test_long_record_residual_rows_are_written_column_by_column(tmp_path, monkeypatch):
    path = _long_record_csv(tmp_path)
    report = run_pipeline(parse_csv(str(path)), AnalysisConfig(input=str(path)))
    payload = pipeline_to_dict(report)
    # One call per value would be about 80,000 for the 9,999 residual rows.
    assert _count_write_json_calls(monkeypatch, payload) < 2_000


def test_peaks_observation_rows_are_written_column_by_column(monkeypatch):
    series = TimeSeries.from_values(np.random.default_rng(1305).gamma(0.7, 9.0, size=2_500))
    threshold = float(np.sort(series.values)[-1_001])
    events = peaks.pot_compact(series, peaks.ThresholdSpec(threshold=threshold))
    payload = event_series_to_dict(events)
    assert payload["n"] == len(payload["observations"]) == 1_000
    # One call per row and per value would be about 3,000.
    assert _count_write_json_calls(monkeypatch, payload) < 10


# A ColumnTable is written as the list of its row dicts, from its columns.

def _table(rng: random.Random, kinds: list[str], n: int) -> ColumnTable:
    columns = {"observation_id": range(1, n + 1)}
    for j, kind in enumerate(kinds):
        columns[rng.choice(TEXTS) + f"{kind}{j}"] = _scalar_column(rng, kind, n)
    return ColumnTable(**columns)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 57, 1_000])
def test_column_tables_of_every_column_kind_match_json_dumps_of_their_rows(n, monkeypatch):
    rng = random.Random(f"table-{n}")
    for trial in range(20):
        table = _table(rng, rng.sample(COLUMN_KINDS * 2, rng.randint(1, 8)), n)
        rows = list(table)
        assert len(rows) == len(table) == n
        for payload, materialized in ((table, rows), ({"rows": table, "n": n}, {"rows": rows, "n": n}),
                                      ([table, table], [rows, rows])):
            _assert_same_text(render(payload, "json", None), _expected(materialized))
    # The columns are written in one call, with no call per row.
    table = _table(rng, COLUMN_KINDS, n)
    assert _count_write_json_calls(monkeypatch, {"rows": table}) == 2


def test_column_table_with_every_special_float_and_escaped_key_matches_json_dumps():
    floats = SPECIAL_FLOATS + [2.2250738585072014e-308, -2.2250738585072009e-308, 0.1]
    n = len(floats)
    table = ColumnTable(**{
        "id": range(n), "é\"\\\n": floats, "neg": [-x for x in floats],
        "flag": [i % 3 == 0 for i in range(n)], "count": [i % 2 for i in range(n)],
        "big": [2**70 - i for i in range(n)], "text": [TEXTS[i % len(TEXTS)] for i in range(n)],
    })
    assert render({"rows": table}, "json", None) == _expected({"rows": list(table)})


@pytest.mark.parametrize("kind", ["bool-int", "float-int", "float64"])
def test_column_table_with_a_mixed_column_is_written_row_by_row(kind, monkeypatch):
    rng = random.Random(f"mixed-{kind}")
    n = 40
    table = ColumnTable(id=range(1, n + 1), value=_scalar_column(rng, "float", n),
                        mixed=_scalar_column(rng, kind, n))
    if kind in ("bool-int", "float-int"):  # make sure both types are present
        table.columns["mixed"][:2] = [True, 1] if kind == "bool-int" else [1.0, 1]
    assert render(table, "json", None) == _expected(list(table))
    # One call for the table, then at least one per row: the item-by-item fallback.
    assert _count_write_json_calls(monkeypatch, {"rows": table}) >= 2 + n


def test_column_table_columns_must_share_one_length():
    with pytest.raises(ValueError, match="same length"):
        ColumnTable(a=[1.0, 2.0], b=[1.0])
    assert list(ColumnTable()) == [] and len(ColumnTable()) == 0
    assert render({"rows": ColumnTable(a=[], b=[])}, "json", None) == _expected({"rows": []})


def test_pipeline_residual_rows_iterate_to_the_row_dicts_of_the_report(event_series):
    report = run_pipeline(event_series, AnalysisConfig(input="fixture"))
    residual = report.residuals_raw_ar1
    rows = pipeline_to_dict(report)["residuals"]["rows"]
    columns = zip(
        residual.y.tolist(), residual.y_predicted.tolist(), residual.residual.tolist(),
        residual.standardized.tolist(), residual.percentile.tolist(), residual.outlier.tolist(),
    )
    expected = [
        {"observation_id": observation_id, "y": y, "y_predicted": y_predicted,
         "residual": e, "standardized": z, "percentile": percentile, "outlier": outlier}
        for observation_id, (y, y_predicted, e, z, percentile, outlier)
        in enumerate(columns, start=1)
    ]
    assert len(rows) == len(expected) == 30
    # Items in order, and each value's type: True == 1 would hide a bool turned int.
    assert [[(key, type(value), value) for key, value in row.items()] for row in rows] == \
        [[(key, type(value), value) for key, value in row.items()] for row in expected]
    assert list(rows) == list(rows)  # iterating again gives the rows again


# Every table of a report is declared as a ColumnTable by the dict layer.

def _payload(monkeypatch, argv) -> dict:
    """The dict that ``main(argv + ["--format", "json"])`` renders."""
    payloads = []
    render_ = _report.render

    def capturing(report_dict, *args):
        payloads.append(report_dict)
        return render_(report_dict, *args)

    with monkeypatch.context() as patch, redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        for module in (cli, _risk_commands):  # the modules whose commands call render
            patch.setattr(module, "render", capturing)
        main([*map(str, argv), "--format", "json"])
    assert len(payloads) == 1, argv
    return payloads[0]


def _containers(value):
    """The dicts, lists, tuples and tables of a payload, not descending into tables."""
    if isinstance(value, (dict, list, tuple, ColumnTable)):
        yield value
    if isinstance(value, (dict, list, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


def _station_csv(tmp_path, seed: int = 31, n: int = 600):
    """A monthly record like one station of station-batch, and its 0.9 quantile."""
    rng = np.random.default_rng(seed)
    level, values = 0.0, []
    for shock in rng.gumbel(0.0, 25.0, size=n).tolist():
        level = 0.4 * level + shock
        values.append(level)
    values = np.maximum(np.round(120.0 + 0.02 * np.arange(n) + np.array(values), 1), 0.0)
    path = tmp_path / "station.csv"
    path.write_text("month,value\n" + "".join(
        f"{m},{v!r}\n" for m, v in enumerate(values.tolist(), start=1)
    ))
    return path, float(np.quantile(values, 0.9))


def _report_argvs(tmp_path):
    station, threshold = _station_csv(tmp_path)
    return [args for _, args, code in COMMANDS if code == EXIT_OK] + [
        ["analyze", station, "--threshold", repr(threshold)],
    ]


def test_every_report_table_is_declared_and_written_in_one_call(tmp_path, monkeypatch):
    tables_seen = 0
    for argv in _report_argvs(tmp_path):
        payload = _payload(monkeypatch, argv)
        nodes = list(_containers(payload))
        tables = [node for node in nodes if isinstance(node, ColumnTable)]
        tables_seen += len(tables)
        for node in nodes:
            if isinstance(node, (list, tuple)):
                assert not any(isinstance(item, (dict, list, tuple, ColumnTable))
                               for item in node), argv
        for table in tables:
            for column in table.columns.values():
                assert _report._column_texts(column) is not None, argv
        calls = []
        write_json = _report._write_json

        def recording(value, parts, newline):
            calls.append(value)
            write_json(value, parts, newline)

        with monkeypatch.context() as patch:
            patch.setattr(_report, "_write_json", recording)
            _assert_same_text(render(payload, "json", None), _expected(payload))
        # Each table is written by one call, and no call writes a row of one.
        assert [call for call in calls if isinstance(call, ColumnTable)] == tables, argv
        containers = set(map(id, nodes))
        assert all(id(call) in containers for call in calls
                   if isinstance(call, (dict, list, tuple, ColumnTable))), argv
    assert tables_seen > 0


def _typed(rows) -> list:
    """Each row's type, and its items' keys, types and values: True == 1 would hide a bool."""
    return [
        (type(row), [(key, type(value), value) for key, value in row.items()]
         if isinstance(row, dict) else [(type(value), value) for value in row])
        for row in rows
    ]


def test_record_and_pair_tables_iterate_to_the_rows_of_the_report(tmp_path):
    path, threshold = _station_csv(tmp_path)
    config = AnalysisConfig(input=str(path),
                            threshold=peaks.ThresholdSpec(threshold=threshold))
    report = run_pipeline(parse_csv(str(path)), config)
    payload = pipeline_to_dict(report)
    assert list(report.ar) == list(report.order) == ["raw", "detrended"]
    for label, models in report.ar.items():
        assert len(models) == 3
        for p, model in models.items():
            coefficients = payload["ar"][label][f"p{p}"]["coefficients"]
            expected = [
                {"term": c.term, "estimate": c.estimate, "std_error": c.std_error,
                 "t_stat": c.t_stat, "p_value": c.p_value, "ci_lower_95": c.ci_lower_95,
                 "ci_upper_95": c.ci_upper_95}
                for c in model.report.coefficients
            ]
            assert len(coefficients) == len(expected) == p + 1
            assert _typed(coefficients) == _typed(expected)
        trace = report.order[label]
        steps = payload["order_selection"][label]["steps"]
        expected = [
            {"p": step.p, "coefficient": step.coefficient, "std_error": step.std_error,
             "z": step.z, "z_alpha": step.z_alpha, "decision": step.decision}
            for step in trace.steps
        ]
        assert 1 <= len(steps) == len(expected) <= 3
        assert _typed(steps) == _typed(expected)
    events = report.pot_events
    observations = payload["pot"]["observations"]
    expected = [[index, value]
                for index, value in zip(events.indices.tolist(), events.values.tolist())]
    assert len(observations) == len(expected) == payload["pot"]["n"] > 3
    assert _typed(observations) == _typed(expected)
    assert list(observations) == list(observations)  # iterating again gives the rows again


def test_gev_pdf_points_iterate_to_lists_of_x_and_density(monkeypatch):
    xs = [-40.0, 0.0, 60.0, 100.0, 125.5, 200.0, 1e3]
    payload = _payload(monkeypatch, ["gev-pdf", "--mu", "100", "--sigma", "25", "--xi", "0.2",
                                     "--x=" + ",".join(map(repr, xs))])
    params = evt_risk.GevParams(mu=100.0, sigma=25.0, xi=0.2)
    points = payload["points"]
    assert isinstance(points, ColumnTable) and points.keys is None
    expected = [[x, evt_risk.gev_pdf(x, params)] for x in xs]
    assert len(points) == len(expected)
    assert _typed(points) == _typed(expected)


def test_positional_column_tables_match_json_dumps_of_their_rows(monkeypatch):
    rng = random.Random(20165)
    for n in (0, 1, 2, 3, 57):
        for _ in range(20):
            kinds = rng.sample(ROW_COLUMN_KINDS, rng.randint(1, 4))
            table = ColumnTable(*(_scalar_column(rng, kind, n) for kind in kinds))
            rows = list(table)
            assert all(type(row) is list and len(row) == len(kinds) for row in rows)
            _assert_same_text(render({"points": table}, "json", None),
                              _expected({"points": rows}))
    with pytest.raises(ValueError, match="all named or all positional"):
        ColumnTable([1.0], y=[2.0])
    with pytest.raises(ValueError, match="same length"):
        ColumnTable([1.0, 2.0], [1.0])


# A float column in which at most half the entries are distinct is formatted
# one distinct value at a time; its text must not change.

_NAN = float("nan")
REPEATED_FLOAT_COLUMNS = {
    "both-zeros": [0.0, -0.0] * 50,
    "both-zeros-and-a-value": [-0.0, 0.0, 1.5] * 40,
    "one-nan-object": [_NAN, 1.0, 2.0, _NAN] * 25,
    "distinct-nan-objects": [float("nan") for _ in range(10)] + [0.1, -7.25] * 15,
    "infinities": [float("inf"), float("-inf"), 1e308, -0.0] * 30,
    "all-equal": [2.5] * 100,
    "half-distinct": [x / 7 for x in range(20)] * 2,
    "one-more-than-half": [x / 7 for x in range(21)] + [x / 7 for x in range(19)],
}


@pytest.mark.parametrize("name", REPEATED_FLOAT_COLUMNS)
def test_repeated_float_columns_match_json_dumps(name):
    column = REPEATED_FLOAT_COLUMNS[name]
    distinct = len(dict.fromkeys(column))
    if name == "half-distinct":
        assert 2 * distinct == len(column)
    if name == "one-more-than-half":
        assert 2 * distinct == len(column) + 2
    assert render(column, "json", None) == _expected(column)
    table = ColumnTable(id=range(len(column)), value=column, neg=[-x for x in column])
    assert render({"rows": table}, "json", None) == _expected({"rows": list(table)})
    points = ColumnTable(column, column[::-1])
    assert render(points, "json", None) == _expected(list(points))


@pytest.mark.parametrize("argv", [["residuals", "--lag", "1"], ["analyze"]],
                         ids=["residuals-lag1", "analyze"])
def test_signed_zero_record_reports_match_json_dumps(tmp_path, monkeypatch, argv):
    rng = random.Random(2022)
    values = [rng.choice([0.0, -0.0, 0.1, 2.5, 12.7]) for _ in range(400)]
    path = tmp_path / "signed_zeros.csv"
    path.write_text("month,value\n" + "".join(
        f"{m},{v!r}\n" for m, v in enumerate(values, start=1)
    ))
    payload = _payload(monkeypatch, [argv[0], path, *argv[1:]])
    rows = (payload if argv[0] == "residuals" else payload["residuals"])["rows"]
    ys = rows.columns["y"]
    assert {"0.0", "-0.0"} <= set(map(repr, ys)) and 2 * len(set(ys)) <= len(ys)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([argv[0], str(path), *argv[1:], "--format", "json"]) == EXIT_OK
    text = out.getvalue()
    assert '"y": -0.0' in text and '"y": 0.0' in text
    _assert_same_text(text, _expected(payload))
