"""Output checks.  Each returns a list of problems; an empty list passes.

Tolerances, set before any optimisation lands:
* numbers: relative 1e-9 against the stored reference or a re-evaluation
  through `evaluate_operating_point`; statuses and other text exactly;
* optimum location: within 1e-5 in r2, ten times the search tolerance;
* splitter conservation p_pv_in + p_apd_in = p_beam: relative 1e-12.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
OPT_X_TOL = 1e-5
SPLIT_REL_TOL = 1e-12


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return a == b or math.isclose(a, b, rel_tol=rel)


def _cells_differ(got: str, want: str) -> bool:
    try:
        return not _close(float(got), float(want))
    except ValueError:
        return got != want


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """(comment header lines, rows including the column-name row)."""
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return header, rows


# -- figures: each CSV against the stored reference --------------------------

def figure_output(cmd, stdout: str, out_dir: Path) -> str:
    return (out_dir / f"fig{cmd.expect['figure']}.csv").read_text()


def check_figure(cmd, text: str) -> list[str]:
    ref = (REFERENCE / f"fig{cmd.expect['figure']}.csv").read_text()
    got_header, got_rows = _csv_rows(text)
    ref_header, ref_rows = _csv_rows(ref)
    problems = []
    if got_header != ref_header:
        problems.append(f"{cmd.label}: header differs from the reference")
    if len(got_rows) != len(ref_rows):
        return problems + [f"{cmd.label}: {len(got_rows)} rows, "
                           f"reference has {len(ref_rows)}"]
    for i, (got, want) in enumerate(zip(got_rows, ref_rows)):
        if len(got) != len(want) or any(map(_cells_differ, got, want)):
            problems.append(f"{cmd.label}: row {i} {got} != reference {want}")
            break
    return problems


def perturb_csv(text: str) -> str:
    """Scale the first nonzero number after the axis column of the first
    data row by 1 + 1e-6."""
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    cells = lines[first].split(",")
    for j in range(1, len(cells)):
        try:
            v = float(cells[j])
        except ValueError:
            continue
        if v != 0.0:
            cells[j] = repr(v * (1 + 1e-6))
            break
    lines[first] = ",".join(cells)
    return "\n".join(lines) + "\n"


# -- sweep-full: invariants and re-evaluation of sampled cells ---------------

def sweep_output(cmd, stdout: str, out_dir: Path) -> str:
    return (out_dir / workloads.SWEEP_OUTPUT).read_text()


def check_sweep(cmd, text: str) -> list[str]:
    from rbswipt.config import get_preset, set_path
    from rbswipt.model import evaluate_operating_point

    _, rows = _csv_rows(text)
    names, rows = rows[0], rows[1:]
    (p1, lo1, hi1, n1), (p2, lo2, hi2, n2) = workloads.SWEEP_AXES
    want_names = [p1, p2, *workloads.SWEEP_FIELDS, "status"]
    if names != want_names:
        return [f"columns {names} != {want_names}"]
    if len(rows) != n1 * n2:
        return [f"{len(rows)} rows, expected {n1 * n2}"]
    col = {n: k for k, n in enumerate(names)}
    problems = []
    for idx, row in enumerate(rows):
        i, j = divmod(idx, n2)
        x1 = lo1 + (hi1 - lo1) * i / (n1 - 1)
        x2 = lo2 + (hi2 - lo2) * j / (n2 - 1)
        if not (_close(float(row[0]), x1) and _close(float(row[1]), x2)):
            problems.append(f"row {idx}: axis values {row[:2]} off the grid")
        status = row[col["status"]]
        if status not in ("ok", "sub-threshold", "unstable"):
            problems.append(f"row {idx}: unknown status {status!r}")
        elif status != "unstable":
            pv, apd, beam = (float(row[col[q]])
                             for q in ("p_pv_in", "p_apd_in", "p_beam"))
            if not _close(pv + apd, beam, SPLIT_REL_TOL):
                problems.append(f"row {idx}: p_pv_in + p_apd_in = "
                                f"{pv + apd!r} != p_beam {beam!r}")
        if problems:
            return problems
    for idx in cmd.expect["samples"]:
        row = rows[idx]
        cfg = get_preset("paper-2022")
        set_path(cfg, "gain.l", cmd.expect["l"])
        set_path(cfg, "geometry.r2", cmd.expect["r2"])
        set_path(cfg, p1, float(row[0]))
        set_path(cfg, p2, float(row[1]))
        op = evaluate_operating_point(cfg)
        if op.status != row[col["status"]]:
            problems.append(f"cell {idx}: status {row[col['status']]!r}, "
                            f"re-evaluation gives {op.status!r}")
        for q in workloads.SWEEP_FIELDS:
            want = getattr(op, q)
            got = row[col[q]]
            if (want is None) != (got == "") or (
                    want is not None and not _close(float(got), want)):
                problems.append(f"cell {idx}: {q} = {got!r}, "
                                f"re-evaluation gives {want!r}")
        if problems:
            return problems
    return problems


def perturb_sweep(text: str) -> str:
    """Scale p_apd_in in the first data row with a nonzero beam."""
    lines = text.splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    names = lines[head].split(",")
    k = names.index("p_apd_in")
    for i in range(head + 1, len(lines)):
        cells = lines[i].split(",")
        if cells[k] and float(cells[k]) > 0:
            cells[k] = repr(float(cells[k]) * (1 + 1e-6))
            lines[i] = ",".join(cells)
            break
    return "\n".join(lines) + "\n"


# -- optimize: the printed optimum against the stored reference --------------

def optimize_output(cmd, stdout: str, out_dir: Path) -> str:
    return stdout


def parse_optimum(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            out[name.strip()] = float(value)
    return out


@functools.cache
def _optimize_reference() -> dict[str, list[float]]:
    return json.loads((REFERENCE / "optimize.json").read_text())


def check_optimum(cmd, text: str) -> list[str]:
    case = cmd.expect["case"]
    x_ref, v_ref = _optimize_reference()[workloads.case_key(case)]
    got = parse_optimum(text)
    path = workloads.OPT_AXIS.split(":")[0]
    objective = case[3]
    if path not in got or objective not in got:
        return [f"{workloads.case_key(case)}: no optimum in output {text!r}"]
    problems = []
    if abs(got[path] - x_ref) > OPT_X_TOL:
        problems.append(f"{workloads.case_key(case)}: {path} = {got[path]!r}, "
                        f"reference {x_ref!r}")
    if not _close(got[objective], v_ref):
        problems.append(f"{workloads.case_key(case)}: {objective} = "
                        f"{got[objective]!r}, reference {v_ref!r}")
    return problems


def perturb_optimum(text: str) -> str:
    """Scale the objective value by 1 + 1e-6, or make a zero 1e-6."""
    lines = text.splitlines()
    name, _, value = lines[-1].partition(" = ")
    v = float(value)
    lines[-1] = f"{name} = {v * (1 + 1e-6) if v else 1e-6!r}"
    return "\n".join(lines) + "\n"


# workload -> (read the command's output, check it, perturb it)
CHECKS = {
    "figures": (figure_output, check_figure, perturb_csv),
    "sweep-full": (sweep_output, check_sweep, perturb_sweep),
    "optimize": (optimize_output, check_optimum, perturb_optimum),
}
