"""Workload definitions: the seed goes in, the argv of each command comes out.

The program under test sees only the generated argv.  Every count a check
relies on (grid cells, rows, sampled cells) comes from these definitions,
never from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

NAMES = ("figures", "sweep-full", "optimize")

FIGURE_IDS = ("5a", "5b", "6", "7", "8", "9", "10")
FIGURE_POINTS = 121
# grid cells per figure at 121 points: 5a is three 121x121 grids, 9 and 10
# one 121-point curve each, the others three 121-point curves
FIGURE_CELLS = {"5a": 3 * 121 * 121, "5b": 3 * 121, "6": 3 * 121,
                "7": 3 * 121, "8": 3 * 121, "9": 121, "10": 121}

# sweep-full: one 121x121 grid over input power and split ratio, emitting
# every numeric OperatingPoint field
SWEEP_AXES = (("link.p_in", 20.0, 150.0, 121), ("receiver.mu", 0.0, 0.99, 121))
SWEEP_FIELDS = (
    "p_in", "spot_radius", "vd", "v", "g_sat", "n_th", "tau", "p_th",
    "eta_s", "p_beam", "eta_b", "p_pv_in", "p_apd_in", "p_e_out_raw",
    "p_e_out", "eta_e", "i_d", "n_thermal_sq", "n_shot_sq", "n_total_sq",
    "c_tilde",
)
SWEEP_OUTPUT = "sweep-full.csv"
SWEEP_SAMPLES = 64          # grid cells re-evaluated by the check per pass

# optimize: 1-D searches over r2; every case has its optimum inside the
# range, and each has a stored reference optimum
OPT_AXIS = "geometry.r2:0.8:0.99:39"
OPT_GRID_CELLS = 39
OPT_L_UM = (0.10, 0.15, 0.20, 0.25, 0.30)
OPT_P_IN_W = (50.0, 75.0, 100.0, 125.0, 150.0)
OPT_MU = (0.25, 0.5, 0.75, 0.99)
OPT_OBJECTIVES = ("p_beam", "p_e_out", "c_tilde")
OPT_SEARCHES_PER_PASS = 100


@dataclass
class Command:
    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    commands: list[Command]
    cells: int              # grid cells per pass, from the definition


def optimize_cases() -> list[tuple[float, float, float, str]]:
    """Every (l [um], p_in [W], mu, objective) case a search can draw."""
    return [(l, p, mu, obj) for l in OPT_L_UM for p in OPT_P_IN_W
            for mu in OPT_MU for obj in OPT_OBJECTIVES]


def case_key(case) -> str:
    l, p, mu, obj = case
    return f"l={l!r}um,p_in={p!r}W,mu={mu!r},{obj}"


def optimize_argv(case) -> list[str]:
    l, p, mu, obj = case
    return ["optimize", "--set", f"gain.l={l!r} um",
            "--set", f"link.p_in={p!r} W", "--set", f"receiver.mu={mu!r}",
            "--axis", OPT_AXIS, "--objective", obj]


def build(name: str, seed: int, out_dir: str) -> Workload:
    """The commands of one pass of workload `name` for `seed`."""
    rng = random.Random(seed)
    if name == "figures":
        # the paper fixes the figure definitions, so the seed is unused
        commands = [Command(f"fig{fid}", ["reproduce-figure", fid,
                                          "--points", str(FIGURE_POINTS),
                                          "--out-dir", out_dir],
                            {"figure": fid})
                    for fid in FIGURE_IDS]
        return Workload(name, commands, sum(FIGURE_CELLS.values()))
    if name == "sweep-full":
        l_um = round(rng.uniform(0.5, 3.0), 4)
        r2 = round(rng.uniform(0.85, 0.95), 4)
        argv = ["sweep", "--set", f"gain.l={l_um!r} um",
                "--set", f"geometry.r2={r2!r}", "--out-dir", out_dir,
                "--output", SWEEP_OUTPUT]
        for path, lo, hi, count in SWEEP_AXES:
            argv += ["--axis", f"{path}:{lo!r}:{hi!r}:{count}"]
        for q in SWEEP_FIELDS:
            argv += ["--quantity", q]
        cells = SWEEP_AXES[0][3] * SWEEP_AXES[1][3]
        expect = {"l": l_um * 1e-6, "r2": r2,
                  "samples": sorted(rng.sample(range(cells), SWEEP_SAMPLES))}
        return Workload(name, [Command("sweep", argv, expect)], cells)
    if name == "optimize":
        cases = rng.sample(optimize_cases(), OPT_SEARCHES_PER_PASS)
        commands = [Command("optimize", optimize_argv(c), {"case": c})
                    for c in cases]
        return Workload(name, commands, OPT_GRID_CELLS * len(commands))
    raise ValueError(f"unknown workload {name!r}; known: {NAMES}")
