"""Command reports as dicts, and those dicts as JSON or text.

A result record becomes a dict of its fields in declaration order, which
is the JSON schema; every table in a report is a ``ColumnTable``. The
JSON writer gives the bytes of ``json.dumps(indent=2, allow_nan=True)``,
and text comes from ``riskseries._text``, imported only for a text run.
It formats a float column in which at most half the entries are
distinct once per distinct value; zeros of both signs in one such column
send it back to entry-by-entry formatting, since ``0.0 == -0.0``.
"""
from __future__ import annotations

import math
from itertools import chain, filterfalse, repeat
from json.encoder import encode_basestring_ascii

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
    its column. Iterating yields the rows, so ``list(table)`` builds the
    list the table stands for. The JSON writer formats it column by column
    and builds no row.
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
        rows = zip(*self.columns.values())
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
            y=report.y.tolist(),
            y_predicted=report.y_predicted.tolist(),
            residual=report.residual.tolist(),
            standardized=report.standardized.tolist(),
            percentile=report.percentile.tolist(),
            outlier=report.outlier.tolist(),
        ),
    }


def event_series_to_dict(events: peaks.EventSeries) -> dict:
    return {
        "provenance": _record_to_dict(events.provenance),
        "n": len(events),
        "observations": ColumnTable(events.indices.tolist(), events.values.tolist()),
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


# The JSON text of a scalar of exactly this type; subclasses take the
# isinstance chain in _write_json.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    float: _float_text,
}


def _column_texts(column) -> list[str] | None:
    """The JSON text of each item, if all are scalars of one exact type; else None.

    A float column in which at most half the entries are distinct is
    formatted one distinct value at a time, and mapped through that table;
    any other float column is formatted entry by entry. The choice reads
    only the column, and both ways give the same texts. ``0.0`` and
    ``-0.0`` are one key, which takes the text of the first zero, so a
    column with zeros of both signs is formatted entry by entry. A NaN key
    matches only itself, which costs nothing: every NaN is ``NaN``.
    """
    kinds = set(map(type, column))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is float:
        table = dict.fromkeys(column)
        repeated = 2 * len(table) <= len(column)
        if repeated and 0.0 in table:
            zero_signs = set(map(math.copysign, repeat(1.0), filterfalse(None, column)))
            repeated = len(zero_signs) == 1
        values = table if repeated else column
        texts = list(map(float.__repr__, values))
        if not all(map(math.isfinite, values)):
            texts = [_FLOAT_SPECIAL.get(text, text) for text in texts]
        if repeated:
            return list(map(dict(zip(table, texts)).__getitem__, column))
        return texts
    formatter = _SCALAR_TEXT.get(kind)
    return None if formatter is None else list(map(formatter, column))


def _rows_text(columns, n: int, inner: str, keys: tuple[str, ...] | None) -> str | None:
    """``n`` rows given as columns, joined into the text between a list's brackets.

    The rows are records with ``keys`` or, if ``keys`` is None, flat lists. Each
    row is opening bracket, value (after its key prefix, for a record),
    comma, value, ..., closing bracket, taken from per-column lists in one
    join. None if a column fails ``_column_texts``.
    """
    if keys is None:
        prefixes = repeat("")
        opener, closer = "[", "]"
    else:
        prefixes = [encode_basestring_ascii(key) + ": " for key in keys]
        opener, closer = "{", "}"
    row_inner = inner + "  "
    fields = []
    separator = opener
    for prefix, column in zip(prefixes, columns):
        texts = _column_texts(column)
        if texts is None:
            return None
        fields += (repeat(separator + row_inner + prefix), texts)
        separator = ","
    closes = chain(repeat(inner + closer + "," + inner, n - 1), (inner + closer,))
    return "".join(chain.from_iterable(zip(*fields, closes)))


def _write_json(value, parts: list[str], newline: str):
    """Append the text of ``json.dumps(value, indent=2, allow_nan=True)`` to parts.

    Types are tested in the order of the standard library's pure-Python
    encoder, which ``json.dumps`` uses whenever ``indent`` is set, so the
    bytes are the same; writing them here skips that encoder's generator
    chain. ``newline`` is the line break plus the current indentation.

    A dict value whose exact type is ``str``, ``int``, ``float``, ``bool``
    or ``None`` is written in the dict's own loop, by the formatter that
    ``_SCALAR_TEXT`` holds for its type, which gives the text of the
    scalar branches below; any other value, a float or int subclass
    included, is written by a recursive call.

    A list is written in one pass when all its items are scalars of one
    exact type (``float``, ``int``, ``bool``, ``str`` or ``None``; a bool
    is never taken for an int, nor a float subclass for a float), each
    mapped through the formatter ``_SCALAR_TEXT`` holds for that type; any
    other list is written item by item. A ``ColumnTable`` is written as
    the list of its rows, one such column at a time, and no row is built;
    if a column does not qualify, the table is written row by row.
    """
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_float_text(value))
    elif isinstance(value, (list, tuple, ColumnTable)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        if isinstance(value, ColumnTable):
            text = _rows_text(value.columns.values(), len(value), inner, value.keys)
        else:
            texts = _column_texts(value)
            text = None if texts is None else ("," + inner).join(texts)
        if text is not None:
            parts += ("[" + inner, text, newline + "]")
            return
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        scalar_text = _SCALAR_TEXT.get
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            prefix = separator + encode_basestring_ascii(key) + ": "
            formatter = scalar_text(type(item))
            if formatter is None:
                parts.append(prefix)
                _write_json(item, parts, inner)
            else:
                parts.append(prefix + formatter(item))
            separator = "," + inner
        parts.append(newline + "}")
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
