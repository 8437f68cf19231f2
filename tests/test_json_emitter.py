"""``cli.render``'s JSON writer against ``json.dumps(indent=2, allow_nan=True)``."""
import hashlib
import io
import json
import random
import struct
from contextlib import redirect_stdout

import numpy as np
import pytest

from riskseries import cli, peaks
from riskseries.cli import (
    EXIT_OK,
    AnalysisConfig,
    event_series_to_dict,
    main,
    parse_csv,
    pipeline_to_dict,
    render,
    run_pipeline,
)
from riskseries.series import TimeSeries

STRINGS = ["", "a", "month,value", "é", "雨量", "\U0001F327", "\x00\x01\x1f", "\n\t\r\b\f",
           '"quoted"', "back\\slash", "\x7f  ", "mixed é\x05\"\\"]
FLOATS = [0.0, -0.0, 1.0, -1.5, 0.1, 1e16, 1e-7, 1e-5, 123456789.0, 1.7976931348623157e308,
          5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308,
          float("nan"), float("inf"), float("-inf")]
INTS = [0, 1, -1, 2**53 + 1, -(2**63), 2**70, 10**30]


def _expected(value) -> str:
    return json.dumps(value, indent=2, allow_nan=True) + "\n"


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


def test_long_record_analyze_payload_matches_json_dumps(tmp_path):
    path = _long_record_csv(tmp_path)
    report = run_pipeline(parse_csv(str(path)), AnalysisConfig(input_path=str(path)))
    payload = pipeline_to_dict(report)
    assert payload["residuals"]["n"] == 9_999
    text, expected = render(payload, "json", None), _expected(payload)
    # Comparing the 2.6 MB strings themselves would have pytest diff them
    # for minutes on a failure; the digest fails as surely, and at once.
    assert (len(text), _sha256(text)) == (len(expected), _sha256(expected)), \
        f"first difference at offset {_first_difference(text, expected)}"


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


# Lists of one exact scalar type, and lists of flat records with the same
# keys in the same order, are written column by column; the rest item by item.

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


COLUMN_KINDS = ["float", "special", "int01", "bool", "bigint", "str"]
ROW_COLUMN_KINDS = COLUMN_KINDS + ["bool-int", "float-int", "float64", "none"]


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
    write_json = cli._write_json

    def counting(value, parts, newline):
        nonlocal calls
        calls += 1
        write_json(value, parts, newline)

    monkeypatch.setattr(cli, "_write_json", counting)
    assert render(payload, "json", None) == _expected(payload)
    return calls


def test_long_record_residual_rows_are_written_column_by_column(tmp_path, monkeypatch):
    path = _long_record_csv(tmp_path)
    report = run_pipeline(parse_csv(str(path)), AnalysisConfig(input_path=str(path)))
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
