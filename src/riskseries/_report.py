"""Command reports as dicts, and those dicts as JSON or text.

A result record becomes a dict of its fields in declaration order, which
is the JSON schema; every table in a report is a ``ColumnTable``, each
array column as its record holds it. The JSON writer gives the bytes of
``json.dumps(indent=2, allow_nan=True)``, and text comes from
``riskseries._text``, imported only for a text run. A report is dicts
with ``str`` keys, scalars of an exact JSON type, and lists or table
columns whose items all have one exact scalar type. Each value takes one
path: a scalar its type's formatter, and each list and table column one
``_column_texts`` call (a float64 array once per distinct bit pattern),
each format by its own type table. Anything else raises TypeError.
"""
from __future__ import annotations

import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import autoreg, peaks, residuals
from ._pipeline import PipelineReport
from ._record import Record

SCHEMA_VERSION = 1


def _record_to_dict(record: Record) -> dict:
    """A result record as a dict: its fields in declaration order, which
    is the JSON schema. A nested record becomes a dict, and a non-empty
    tuple of records a ``ColumnTable`` with one column per field, in
    declaration order; every other value is shared, not copied.

    The order comes from ``_fields``, not from the instance's ``__dict__``,
    which holds the fields in whatever order the constructor's keywords
    came and may hold derived attributes as well.
    """
    attributes = vars(record)
    fields = {name: attributes[name] for name in record._fields}
    for key, value in fields.items():
        if isinstance(value, Record):
            fields[key] = _record_to_dict(value)
        elif type(value) is tuple and value and isinstance(value[0], Record):
            fields[key] = ColumnTable(**{
                name: [getattr(item, name) for item in value] for name in value[0]._fields
            })
    return fields


def _section(value, convert=_record_to_dict):
    """A report section, or ``{"skipped": reason}`` where the stage was skipped."""
    return {"skipped": value} if isinstance(value, str) else convert(value)


def regression_to_dict(model: autoreg.ARModel) -> dict:
    return {"p": model.p, "fitted_on": model.fitted_on, **_record_to_dict(model.report)}


class ColumnTable:
    """Rows held as columns, in schema order, all of one length.

    Named columns (``ColumnTable(y=..., z=...)``) hold rows that are
    dicts, keys in column order; positional ones (``ColumnTable(xs, ys)``)
    hold rows that are lists. ``columns`` maps each name, or position, to
    its column as given: a sequence of scalars or a 1-d numpy array, any dtype.
    Iterating yields the rows as Python scalars (an array through
    ``tolist()``), so ``list(table)`` builds the list the table stands
    for. Both writers format it column by column and build no row.
    """

    __slots__ = ("columns", "keys")

    def __init__(self, /, *positional, **named):
        if positional and named:
            raise ValueError("table columns must be all named or all positional")
        columns = named or dict(enumerate(positional))
        if len(set(map(len, columns.values()))) > 1:
            raise ValueError("table columns must all have the same length")
        self.columns = columns
        self.keys = tuple(named) if named else None

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __iter__(self):
        rows = zip(*(column.tolist() if isinstance(column, np.ndarray) else column
                     for column in self.columns.values()))
        if self.keys is None:
            return map(list, rows)
        keys = self.keys
        return (dict(zip(keys, row)) for row in rows)


def residuals_to_dict(report: residuals.ResidualReport) -> dict:
    return {
        "n": len(report.y),
        "scale": report.scale,
        "regression_std_error": report.regression_std_error,
        "outlier_threshold": report.outlier_threshold,
        "outliers": (report.outlier.nonzero()[0] + 1).tolist(),
        "rows": ColumnTable(
            observation_id=range(1, len(report.y) + 1),
            y=report.y,
            y_predicted=report.y_predicted,
            residual=report.residual,
            standardized=report.standardized,
            percentile=report.percentile,
            outlier=report.outlier,
        ),
    }


def event_series_to_dict(events: peaks.EventSeries) -> dict:
    return {
        "provenance": _record_to_dict(events.provenance),
        "n": len(events),
        "observations": ColumnTable(events.indices, events.values),
    }


def _ar_models_to_dict(models: dict[int, autoreg.ARModel | str]) -> dict:
    return {f"p{p}": _section(model, regression_to_dict) for p, model in models.items()}


def _per_series(stage: dict, convert=_record_to_dict) -> dict:
    """A per-series stage's sections, keyed by series label in the stage's order."""
    return {label: _section(value, convert) for label, value in stage.items()}


def pipeline_to_dict(report: PipelineReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": _record_to_dict(report.config),
        "series": {"n": report.series_n},
        "pot": _section(report.pot_events, event_series_to_dict),
        "summary": _per_series(report.summary),
        "trend": _record_to_dict(report.trend_line),
        "mann_kendall": _section(report.mk),
        "lag_correlation": _per_series(report.lag1, float),
        "ar": _per_series(report.ar, _ar_models_to_dict),
        "order_selection": _per_series(report.order),
        "residuals": _section(report.residuals_raw_ar1, residuals_to_dict),
    }


_FLOAT_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_SPECIAL.get(text, text)


# The JSON text of a scalar of exactly this type; no other type is written.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    float: _float_text,
}


def _float_texts(values: list[float]) -> list[str]:
    """The JSON text of each float: one ``float.__repr__`` each, and
    ``NaN``, ``Infinity`` or ``-Infinity`` for the non-finite ones."""
    texts = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        texts = [_FLOAT_SPECIAL.get(text, text) for text in texts]
    return texts


def _array_texts(column: np.ndarray, scalar_text: dict) -> list[str]:
    """The text of each entry of a float64 array, one format per distinct double.

    The entries are sorted by their bits read as int64, so each run of
    equal bits is one double: ``0.0`` and ``-0.0`` are two runs, and so
    are NaNs of two payloads. The first entry of each run is formatted,
    and each entry takes the text of its run.
    """
    bits = column.view(np.int64)
    order = bits.argsort()
    ordered = bits[order]
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    texts = np.array(_column_texts(column[order[starts]].tolist(), scalar_text), dtype=object)
    runs = np.empty(len(ordered), dtype=np.intp)
    runs[order] = starts.cumsum() - 1
    return texts[runs].tolist()


def _column_texts(column, scalar_text: dict = _SCALAR_TEXT) -> list[str]:
    """The text of each item of a list or table column, by the formatter
    ``scalar_text`` holds for the items' one exact type: JSON's by default,
    text cells' from ``riskseries._text``. Any other column raises TypeError.

    A float64 array is formatted once per distinct bit pattern, by
    ``_array_texts``, any other array is read as Python scalars, and JSON
    floats go through ``_float_texts``; an empty column has no texts.
    """
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return _array_texts(column, scalar_text)
        column = column.tolist()
    kinds = set(map(type, column))
    if not kinds:
        return []
    formatter = scalar_text.get(kinds.pop()) if len(kinds) == 1 else None
    if formatter is None:
        names = sorted({type(item).__name__ for item in column})
        raise TypeError(f"list items must be scalars of one JSON type, not {', '.join(names)}")
    if formatter is _float_text:
        return _float_texts(column)
    return list(map(formatter, column))


def _rows_text(table: ColumnTable, inner: str) -> str:
    """A table's rows, joined into the text between a list's brackets.

    A named table's rows are records, keys in column order, and a
    positional table's are flat lists. Each row is opening bracket, value
    (after its key prefix, for a record), comma, value, ..., closing
    bracket, taken from per-column lists in one join.
    """
    keys = table.keys
    prefixes = repeat("") if keys is None else [encode_basestring_ascii(k) + ": " for k in keys]
    opener, closer = "[]" if keys is None else "{}"
    row_inner = inner + "  "
    fields = []
    separator = opener
    for prefix, column in zip(prefixes, table.columns.values()):
        fields += (repeat(separator + row_inner + prefix), _column_texts(column))
        separator = ","
    closes = chain(repeat(inner + closer + "," + inner, len(table) - 1), (inner + closer,))
    return "".join(chain.from_iterable(zip(*fields, closes)))


def _write_json(value, parts: list[str], newline: str):
    """Append the text of ``json.dumps(value, indent=2, allow_nan=True)`` to parts.

    The bytes are those of the standard library's pure-Python encoder,
    which ``json.dumps`` uses whenever ``indent`` is set; writing them here
    skips that encoder's generator chain. ``newline`` is the line break
    plus the current indentation.

    A scalar, a dict value included, is written here alone, by the
    formatter ``_SCALAR_TEXT`` holds for its exact type. A list, or a
    ``ColumnTable``'s rows, is written from ``_column_texts`` of the list,
    or of each table column. Any other value, a subclass of a scalar type
    or a numpy scalar included, raises TypeError.
    """
    formatter = _SCALAR_TEXT.get(type(value))
    if formatter is not None:
        parts.append(formatter(value))
    elif isinstance(value, (list, tuple, ColumnTable)):
        inner = newline + "  "
        if not value:
            parts.append("[]")
        elif isinstance(value, ColumnTable):
            parts += ("[" + inner, _rows_text(value, inner), newline + "]")
        else:
            parts += ("[" + inner, ("," + inner).join(_column_texts(value)), newline + "]")
    elif isinstance(value, dict):
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(separator + encode_basestring_ascii(key) + ": ")
            _write_json(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render(report_dict: dict, output_format: str, text_renderer: str, *text_args) -> str:
    """The report as JSON, or as text.

    Text comes from the function of ``riskseries._text`` named
    ``text_renderer``, called with the report and ``text_args``. That
    module is imported here, so only a text run loads it.
    """
    if output_format == "json":
        parts: list[str] = []
        _write_json(report_dict, parts, "\n")
        parts.append("\n")
        return "".join(parts)
    from . import _text

    return getattr(_text, text_renderer)(report_dict, *text_args)
