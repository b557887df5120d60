"""Row-by-row curve-file writer the tests check `rbswipt.output` against.

Each cell is formatted on its own, one row at a time, with no memo: None
as an empty cell, a float with repr, anything else with str.  The header
is written as the package writes it.  Nothing in the package imports this
module.
"""

from __future__ import annotations

from pathlib import Path

from rbswipt.config import Config, config_digest, serialize_config
from rbswipt.output import Column


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
    for i in range(n):
        lines.append(",".join(format_value(c.values[i]) for c in columns))
    path.write_text("\n".join(lines) + "\n")
