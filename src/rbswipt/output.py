"""Curve-file and report emission.

Curve files are CSV with a '#'-prefixed metadata header embedding the
scenario id, the resolved-configuration digest, the full configuration, and
per-column units.  Floats are written with repr so the file parses back to
the exact values; missing values (unstable grid points) are empty cells
alongside a status column, never NaN.  Each distinct nonzero value is
formatted once per file, and nothing is kept from one call to the next.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from pathlib import Path

from .config import Config, config_digest, serialize_config
from .model import FIELD_UNITS, OperatingPoint


Column = namedtuple("Column", "name unit values")
Column.__doc__ = """One curve-file column: its name, its unit and its values,
float, None or str only: cells are memoised by value, so an int or bool
prints as the text of the first equal value in the file."""


def _cells(values: Sequence, memo: dict) -> list[str]:
    """values as CSV cells: "" for None, else str (repr for a float)."""
    cells = []
    for v in values:
        text = memo.get(v)
        if text is None:
            text = "" if v is None else str(v)
            if v:   # zeros skip memo: 0.0 == -0.0, yet they print unalike
                memo[v] = text
        cells.append(text)
    return cells


def write_curve_file(path: Path, scenario: str, config: Config,
                     columns: list[Column]) -> None:
    n = len(columns[0].values)
    for col in columns:
        if len(col.values) != n:
            raise ValueError(f"column {col.name} has {len(col.values)} rows, "
                             f"expected {n}")
    lines = [f"# scenario: {scenario}",
             f"# config-digest: {config_digest(config)}",
             "# config-begin"]
    lines += [f"#   {line}" if line else "#"
              for line in serialize_config(config).splitlines()]
    lines.append("# config-end")
    lines.append("# columns: " + ", ".join(
        f"{c.name} [{c.unit}]" for c in columns))
    lines.append(",".join(c.name for c in columns))
    memo = {}
    lines += map(",".join, zip(*(_cells(c.values, memo) for c in columns)))
    path.write_text("\n".join(lines) + "\n")


def write_plot_description(path: Path, title: str, x_label: str,
                           y_label: str, csv_file: str,
                           series: list[dict]) -> None:
    """Declarative plot description (no rendering): axis labels plus the
    series-to-column mapping for an external plotting helper."""
    import json     # only reproduce-figure writes one
    fields = dict(title=title, x_label=x_label, y_label=y_label,
                  csv_file=csv_file, series=series)
    path.write_text(json.dumps(fields, indent=2) + "\n")


def operating_point_report(op: OperatingPoint) -> str:
    """Human-readable single-point report."""
    lines = [f"status: {op.status}"]
    if op.reason:
        lines.append(f"detail: {op.detail}")
    for name, unit in FIELD_UNITS.items():
        v = getattr(op, name)
        if v is None:
            continue
        suffix = f" {unit}" if unit else ""
        lines.append(f"{name}: {v:.6g}{suffix}")
    return "\n".join(lines) + "\n"
