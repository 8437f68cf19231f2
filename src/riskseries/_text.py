"""Text rendering of the command reports.

Every renderer reads the dictionary the JSON output is written from, so
the two formats never disagree. ``riskseries._report.render`` imports
this module only for ``--format text``. Every table is built from its
columns, a report table's read from its ``ColumnTable``: each column is
padded to its widest cell in one ``map`` and the rows are the padded
columns zipped, with no Python loop per cell.
"""
from __future__ import annotations

from itertools import repeat


_CELL_TEXT = {bool: ("no", "yes").__getitem__, float: "{:.9g}".format}


def _fmt(value) -> str:
    return _CELL_TEXT.get(type(value), str)(value)


def _table(columns: list[list[str]], indent: str = "  ") -> list[str]:
    """Lines of a table given as columns of cell texts, header first.

    Each column is padded to its widest cell, cells are joined by two
    spaces, and each row loses its trailing blanks: ANOVA rows end in
    empty cells.
    """
    padded = [map(str.ljust, column, repeat(max(map(len, column)))) for column in columns]
    return [indent + line for line in map(str.rstrip, map("  ".join, zip(*padded)))]


def _grid(headers, columns, indent: str = "  ") -> list[str]:
    """Lines of a table whose columns of values are formatted under their headers."""
    return _table([[header, *map(_fmt, column)] for header, column in zip(headers, columns)],
                  indent)


def _columns(table):
    """A ``ColumnTable``'s columns, in schema order, as Python scalars."""
    return map(table.column, table.columns)


def _fields(d: dict, labels: dict[str, str]) -> list[str]:
    """A label/value table of the fields of d that labels names, in labels' order."""
    return _table([list(labels.values()), [_fmt(d[key]) for key in labels]])


def _join(lines: list[str]) -> str:
    return "\n".join(lines).rstrip() + "\n"


def _section(d: dict, title: str, body) -> list[str]:
    """``body(d, title)``'s lines and a blank line, or one line giving the skip reason."""
    if "skipped" in d:
        return [f"{title}: skipped ({d['skipped']})", ""]
    return [*body(d, title), ""]


def _regression_lines(d: dict, title: str) -> list[str]:
    anova = d["anova"]
    return [
        title,
        *_fields(d, {"r_multiple": "r multiple", "r_squared": "r squared",
                     "r_squared_adj": "r squared adjusted",
                     "std_error_regression": "standard error", "n": "observations"}),
        "  anova",
        *_grid(["source", "df", "ss", "ms", "f", "significance f"], [
            ["regression", "residual", "total"],
            [anova["df_regression"], anova["df_residual"],
             anova["df_regression"] + anova["df_residual"]],
            [anova["regression_ss"], anova["residual_ss"], anova["total_ss"]],
            [anova["regression_ms"], anova["residual_ms"], ""],
            [anova["f_stat"], "", ""],
            [anova["significance_f"], "", ""],
        ], indent="    "),
        "  coefficients",
        *_grid(["term", "estimate", "std error", "t stat", "p value", "lower 95%", "upper 95%"],
               _columns(d["coefficients"]), indent="    "),
    ]


def _summary_lines(d: dict, title: str) -> list[str]:
    return [title, *_fields(d, {"n": "n", "mean": "mean", "variance": "variance",
                                "std_dev": "std dev", "min": "min", "max": "max"})]


def _trend_lines(d: dict, title: str) -> list[str]:
    return [title, *_fields(d, {"intercept": "intercept", "slope": "slope", "n": "observations"})]


def _mk_lines(d: dict, title: str) -> list[str]:
    decision = f"{d['decision']} (alpha {_fmt(d['alpha'])})"
    return [title, *_fields({**d, "decision": decision}, {
        "S": "S", "var_S": "var(S)", "Z": "Z", "p_value": "p value", "decision": "decision"})]


def _trace_lines(d: dict, title: str) -> list[str]:
    return [
        f"{title} (alpha {_fmt(d['alpha'])})",
        *_grid(["p", "coefficient", "std error", "z", "z_alpha", "decision"],
               _columns(d["steps"])),
        f"  selected order: {d['selected_order']}",
    ]


def _residual_lines(d: dict, title: str) -> list[str]:
    outliers = ", ".join(map(str, d["outliers"])) or "none"
    return [
        title,
        *_fields({**d, "outliers": outliers}, {
            "scale": "scale (rss/(n-1))", "regression_std_error": "regression std error",
            "outlier_threshold": "outlier threshold", "outliers": "outliers"}),
        *_grid(["obs", "y", "predicted", "residual", "standardized", "percentile", "outlier"],
               _columns(d["rows"])),
    ]


def _event_lines(d: dict, title: str) -> list[str]:
    provenance = d["provenance"]
    if provenance["method"] == "block-maxima":
        detail = f"block maxima, block size {provenance['block_size']}"
    else:
        detail = (
            f"pot, threshold {_fmt(provenance['threshold'])} ({provenance['comparison']}"
            f"{', zero-filled' if provenance['zero_filled'] else ''})"
        )
    return [f"{title} ({detail}, {d['n']} events)",
            *_grid(["index", "value"], _columns(d["observations"]))]


def _ar_lines(models: dict, label: str) -> list[str]:
    return [line for key, model in models.items()
            for line in _section(model, f"ar ({label}) order {key[1:]}", _regression_lines)]


# One renderer per command, each taking the command's report dictionary.

def summary(d: dict, title: str) -> str:
    return _join(_section(d, title, _summary_lines))


def events(d: dict) -> str:
    return _join(_section(d, "peaks", _event_lines))


def trend(d: dict) -> str:
    lines = _section(d["trend"], "trend line", _trend_lines)
    if "mann_kendall" in d:
        lines += _section(d["mann_kendall"], "mann-kendall", _mk_lines)
    return _join(lines)


def ar(d: dict) -> str:
    label = d["fitted_on"]
    lines = _ar_lines(d["ar"], label)
    lines += _section(d["order_selection"], f"order selection ({label})", _trace_lines)
    return _join(lines)


def residuals(d: dict) -> str:
    title = f"residuals ({d['model']['fitted_on']} AR({d['model']['p']}))"
    return _join(_section(d, title, _residual_lines))


def gev_pdf(d: dict) -> str:
    return _join(_grid(["x", "density"], _columns(d["points"]), indent=""))


def risk_curve(d: dict) -> str:
    return _join(_grid(["loss", "exceedance frequency"], [d["losses"], d["frequencies"]],
                       indent=""))


def pipeline(d: dict) -> str:
    def lag1(value) -> str:
        return _fmt(value) if not isinstance(value, dict) else f"skipped ({value['skipped']})"

    lags = d["lag_correlation"]
    lines = [
        f"riskseries analysis report (schema {d['schema_version']})",
        f"input: {d['config']['input']} ({d['series']['n']} observations)",
        "",
    ]
    lines += _section(d["pot"], "pot extraction", _event_lines)
    for label, block in d["summary"].items():
        lines += _section(block, f"summary ({label})", _summary_lines)
    lines += _section(d["trend"], "trend line", _trend_lines)
    lines += _section(d["mann_kendall"], "mann-kendall", _mk_lines)
    lines += ["lag-1 correlation", *_table([list(lags), list(map(lag1, lags.values()))]), ""]
    for label, block in d["ar"].items():
        if "skipped" in block:
            lines += [f"ar ({label}): skipped ({block['skipped']})", ""]
        else:
            lines += _ar_lines(block, label)
    for label, block in d["order_selection"].items():
        lines += _section(block, f"order selection ({label})", _trace_lines)
    lines += _section(d["residuals"], "residuals (raw AR(1))", _residual_lines)
    return _join(lines)
