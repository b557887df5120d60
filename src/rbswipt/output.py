"""Curve-file and report emission, and the paths they are written to.

Every file a command writes is named by `out_file`, which checks it before
any cell is evaluated; `write_curve_file` makes its missing directories
just before it writes, so a rejected command leaves no directory behind.
Curve files are CSV with a '#'-prefixed metadata header embedding the
scenario id, the resolved-configuration digest, the full configuration, and
per-column units.  Floats are written with repr so the file parses back to
the exact values; missing values (unstable grid points) are empty cells
alongside a status column, never NaN.  Each distinct nonzero value is
formatted once per half, and nothing is kept from one call to the next.
A file of at least _FORK_CELLS data cells is formatted on two processes
where that can pay: a forked child formats the second half of the rows
while this process formats the first.  The bytes are the same either way.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from collections.abc import Sequence
from pathlib import Path

from .config import Config, ConfigError, config_digest, serialize_config
from .model import FIELD_UNITS, OperatingPoint


class Column(namedtuple("Column", "name unit values")):
    """One curve-file column: its name, its unit and its values, float,
    None or str only: cells are memoised by value, so an int or bool prints
    as the text of the first equal value in the file."""
    __slots__ = ()


# the data cells from which a forked half pays: fork costs about 5 ms in a
# 90 MB process, and the serial and forked write times cross between 30k
# and 70k cells on a 2-vCPU VM (timings in CHANGES.md)
_FORK_CELLS = 50_000


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


def _rows(columns: list[Column], lo: int, hi: int) -> list[str]:
    """Rows lo..hi-1 as CSV lines, each distinct nonzero value formatted
    once."""
    memo = {}
    return list(map(",".join, zip(*(_cells(c.values[lo:hi], memo)
                                    for c in columns))))


def _halves(columns: list[Column], n: int) -> list[str]:
    """The n data rows' lines.  A forked child formats the second half of
    a file of at least _FORK_CELLS cells where os.fork exists, the process
    may run on two CPUs by os.sched_getaffinity (a platform without it
    stays serial) and it runs one thread: a child forked beside another
    thread may find a lock held for good.  Otherwise, or when the child
    fails, this process formats every row."""
    if (n * len(columns) < _FORK_CELLS or len(sys._current_frames()) > 1
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return _rows(columns, 0, n)
    half = n // 2
    read_end, write_end = os.pipe()
    if (pid := os.fork()) == 0:
        # the child leaves only through os._exit: it never returns to the
        # caller, runs no atexit hook and flushes no inherited stdio buffer
        try:
            with open(write_end, "wb") as pipe:
                pipe.write("\n".join(_rows(columns, half, n)).encode())
            os._exit(0)
        finally:
            os._exit(1)
    try:
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            lines, sent = _rows(columns, 0, half), pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    # the child exits 0 only after its last write, so its text is whole
    return lines + ([sent.decode()] if not status else _rows(columns, half, n))


def out_file(out_dir: Path | str, name: str) -> Path:
    """out_dir / name, checked before any cell to be writable as a file.
    Nothing is created: a missing out_dir passes if its nearest existing
    ancestor is a directory (write_curve_file makes it), while a directory
    named inside `name` must exist already.  A name that leaves no file
    under out_dir ("", ".", "..") names a directory too."""
    out_dir = Path(out_dir)
    path = out_dir / name
    if path == out_dir or path.name == ".." or path.is_dir():
        raise ConfigError(f"output file {str(path)!r} names a directory")
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir() or (path.parent != out_dir
                                and not path.parent.is_dir()):
        raise ConfigError(f"no directory for output file {str(path)!r}")
    return path


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
    lines += _halves(columns, n)
    path.parent.mkdir(parents=True, exist_ok=True)
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
