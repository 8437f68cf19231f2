"""Text rendering of the command reports.

Every renderer reads the dictionary the JSON output is written from, so
the two formats never disagree. ``riskseries._report.render`` imports
this module only for ``--format text``.
"""
from __future__ import annotations


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.9g}"
    if value is None:
        return "-"
    return str(value)


def _table(rows: list[list[str]], indent: str = "  ") -> list[str]:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return [
        indent + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def _join(lines: list[str]) -> str:
    return "\n".join(lines).rstrip() + "\n"


def _section(d: dict, title: str, body) -> list[str]:
    """``body(d, title)``'s lines and a blank line, or one line giving the skip reason."""
    if "skipped" in d:
        return [f"{title}: skipped ({d['skipped']})", ""]
    return [*body(d, title), ""]


def _regression_lines(d: dict, title: str) -> list[str]:
    anova = d["anova"]
    coefficient_rows = [["term", "estimate", "std error", "t stat", "p value",
                         "lower 95%", "upper 95%"]]
    for c in d["coefficients"]:
        coefficient_rows.append([
            c["term"], _fmt(c["estimate"]), _fmt(c["std_error"]), _fmt(c["t_stat"]),
            _fmt(c["p_value"]), _fmt(c["ci_lower_95"]), _fmt(c["ci_upper_95"]),
        ])
    return [
        title,
        *_table([
            ["r multiple", _fmt(d["r_multiple"])],
            ["r squared", _fmt(d["r_squared"])],
            ["r squared adjusted", _fmt(d["r_squared_adj"])],
            ["standard error", _fmt(d["std_error_regression"])],
            ["observations", _fmt(d["n"])],
        ]),
        "  anova",
        *_table([
            ["source", "df", "ss", "ms", "f", "significance f"],
            ["regression", _fmt(anova["df_regression"]), _fmt(anova["regression_ss"]),
             _fmt(anova["regression_ms"]), _fmt(anova["f_stat"]),
             _fmt(anova["significance_f"])],
            ["residual", _fmt(anova["df_residual"]), _fmt(anova["residual_ss"]),
             _fmt(anova["residual_ms"]), "", ""],
            ["total", _fmt(anova["df_regression"] + anova["df_residual"]),
             _fmt(anova["total_ss"]), "", "", ""],
        ], indent="    "),
        "  coefficients",
        *_table(coefficient_rows, indent="    "),
    ]


def _summary_lines(d: dict, title: str) -> list[str]:
    return [
        title,
        *_table([
            ["n", _fmt(d["n"])],
            ["mean", _fmt(d["mean"])],
            ["variance", _fmt(d["variance"])],
            ["std dev", _fmt(d["std_dev"])],
            ["min", _fmt(d["min"])],
            ["max", _fmt(d["max"])],
        ]),
    ]


def _trend_lines(d: dict, title: str) -> list[str]:
    return [
        title,
        *_table([
            ["intercept", _fmt(d["intercept"])],
            ["slope", _fmt(d["slope"])],
            ["observations", _fmt(d["n"])],
        ]),
    ]


def _mk_lines(d: dict, title: str) -> list[str]:
    return [
        title,
        *_table([
            ["S", _fmt(d["S"])],
            ["var(S)", _fmt(d["var_S"])],
            ["Z", _fmt(d["Z"])],
            ["p value", _fmt(d["p_value"])],
            ["decision", f"{d['decision']} (alpha {_fmt(d['alpha'])})"],
        ]),
    ]


def _trace_lines(d: dict, title: str) -> list[str]:
    rows = [["p", "coefficient", "std error", "z", "z_alpha", "decision"]]
    for step in d["steps"]:
        rows.append([
            _fmt(step["p"]), _fmt(step["coefficient"]), _fmt(step["std_error"]),
            _fmt(step["z"]), _fmt(step["z_alpha"]), step["decision"],
        ])
    return [
        f"{title} (alpha {_fmt(d['alpha'])})",
        *_table(rows),
        f"  selected order: {d['selected_order']}",
    ]


def _residual_lines(d: dict, title: str) -> list[str]:
    rows = [["obs", "y", "predicted", "residual", "standardized", "percentile", "outlier"]]
    table = d["rows"]
    rows += zip(*(map(_fmt, table.column(key)) for key in (
        "observation_id", "y", "y_predicted", "residual", "standardized", "percentile", "outlier",
    )))
    return [
        title,
        *_table([
            ["scale (rss/(n-1))", _fmt(d["scale"])],
            ["regression std error", _fmt(d["regression_std_error"])],
            ["outlier threshold", _fmt(d["outlier_threshold"])],
            ["outliers", ", ".join(str(i) for i in d["outliers"]) or "none"],
        ]),
        *_table(rows),
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
    rows = [["index", "value"]]
    for index, value in d["observations"]:
        rows.append([_fmt(index), _fmt(value)])
    return [f"{title} ({detail}, {d['n']} events)", *_table(rows)]


def _ar_lines(models: dict, label: str) -> list[str]:
    lines = []
    for key in sorted(models, key=lambda k: int(k[1:])):
        lines += _section(models[key], f"ar ({label}) order {key[1:]}", _regression_lines)
    return lines


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
    rows = [["x", "density"]] + [[_fmt(x), _fmt(density)] for x, density in d["points"]]
    return _join(_table(rows, indent=""))


def risk_curve(d: dict) -> str:
    rows = [["loss", "exceedance frequency"]]
    rows += [[_fmt(x), _fmt(r)] for x, r in zip(d["losses"], d["frequencies"])]
    return _join(_table(rows, indent=""))


def pipeline(d: dict) -> str:
    def lag1(value) -> str:
        return _fmt(value) if not isinstance(value, dict) else f"skipped ({value['skipped']})"

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
    lines += [
        "lag-1 correlation",
        *_table([[label, lag1(value)] for label, value in d["lag_correlation"].items()]),
        "",
    ]
    for label, block in d["ar"].items():
        if "skipped" in block:
            lines += [f"ar ({label}): skipped ({block['skipped']})", ""]
        else:
            lines += _ar_lines(block, label)
    for label, block in d["order_selection"].items():
        lines += _section(block, f"order selection ({label})", _trace_lines)
    lines += _section(d["residuals"], "residuals (raw AR(1))", _residual_lines)
    return _join(lines)
