"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the recorded spot-radius oracle discrepancies.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest
from abcd import (
    RayTransferMatrix,
    compose,
    det,
    free_space,
    one_trip,
    reflector_matrix,
    retro_reflector,
    round_trip_matrix,
    spot_radius_of,
    spot_radius_q_oracle,
    thin_lens,
    tim_matrix,
)

from rbswipt import figures
from rbswipt.config import copy_config, get_preset, set_path
from rbswipt.model import evaluate_operating_point
from rbswipt.ray_optics import (
    UnstableResonatorError,
    open_cavity,
    spot_radius_on_gain,
)
from rbswipt.sweep import Axis, SweepSpec, find_optimum, run_sweep

LAMBDA = 980e-9
FIG5_FR2 = 11.0  # documented assumed curvature for the compression study


def fig5_spot_max(m: float, n_d3: int = 41) -> float:
    """Max spot radius on the gain over the 2-10 m distance range."""
    best = 0.0
    for d3 in np.linspace(2.0, 10.0, n_d3):
        g = dict(d1=20e-3, d2=20e-3, d3=float(d3), f1=-5e-3, f2=5e-3 * m,
                 fr2=FIG5_FR2, r1=0.999, r2=0.90, lambda_beam=LAMBDA)
        try:
            best = max(best, spot_radius_on_gain(open_cavity(g), g))
        except UnstableResonatorError:
            pass
    return best


def power_point(p_in: float, mu: float = 0.99, r2: float = 0.90,
                l: float = 3e-6):
    cfg = get_preset("paper-2022")
    set_path(cfg, "link.p_in", p_in)
    set_path(cfg, "receiver.mu", mu)
    set_path(cfg, "geometry.r2", r2)
    set_path(cfg, "gain.l", l)
    return evaluate_operating_point(cfg)


def test_criterion_1_beam_compression():
    t0 = time.perf_counter()
    w1 = fig5_spot_max(1.0)
    w12 = fig5_spot_max(12.0)
    elapsed = time.perf_counter() - t0
    assert w1 == pytest.approx(1.2e-3, rel=0.15)
    assert w12 <= 0.15e-3
    assert w1 / w12 >= 8.0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: w(M=1)={w1*1e3:.3f} mm, "
          f"w(M=12)={w12*1e3:.3f} mm, ratio={w1/w12:.1f}, "
          f"runtime={elapsed:.2f} s")


def test_criterion_2_distance_robustness():
    w1 = fig5_spot_max(1.0)
    w10 = fig5_spot_max(10.0)
    w12 = fig5_spot_max(12.0)
    assert w10 < 0.3e-3 and w12 < 0.3e-3
    assert w1 > 0.45e-3
    print(f"\nACCEPTANCE 2 PASS: max over d3: M=1 -> {w1*1e3:.3f} mm "
          f"(> 0.45), M=10 -> {w10*1e3:.3f} mm, M=12 -> {w12*1e3:.3f} mm "
          f"(< 0.3)")


def test_criterion_3_optimal_output_coupling():
    cfg = get_preset("paper-2022")
    set_path(cfg, "gain.l", 0.15e-6)
    set_path(cfg, "link.p_in", 100.0)
    spec = SweepSpec(cfg, axis1=Axis("geometry.r2", 0.80, 0.99, 39))
    params, p_beam = find_optimum(spec, "p_beam")
    r2_opt = params["geometry.r2"]
    assert 0.88 <= r2_opt <= 0.97
    print(f"\nACCEPTANCE 3 PASS: argmax r2 = {r2_opt:.4f} in [0.88, 0.97], "
          f"p_beam = {p_beam:.2f} W")


def test_criterion_4_high_power_point():
    found = None
    for r2 in np.linspace(0.70, 0.97, 10):
        for l in np.linspace(0.05e-6, 3e-6, 10):
            op = power_point(150.0, r2=float(r2), l=float(l))
            if op.status != "ok":
                continue
            if op.p_beam >= 50.0 and op.eta_b >= 0.32:
                if found is None or op.p_beam > found.p_beam:
                    found = op
    assert found is not None
    # published 60 W targeted within -25 %
    assert found.p_beam >= 60.0 * 0.75
    print(f"\nACCEPTANCE 4 PASS: best point p_beam = {found.p_beam:.1f} W "
          f"(>= 50 and >= 45 = 60 W - 25 %), eta_b = {found.eta_b:.3f} "
          f"(>= 0.32); gap to the published 60 W / 40 % attributed to the "
          f"unstated (r2, l) and the single-vs-squared loss convention")


def test_criterion_5_swipt_headline():
    op = power_point(150.0)
    assert op.status == "ok"
    assert op.p_e_out == pytest.approx(16.0, rel=0.20)
    assert 0.11 - 0.02 <= op.eta_e <= 0.11 + 0.02
    print(f"\nACCEPTANCE 5 PASS: P_Eout = {op.p_e_out:.2f} W (16 +- 20 %), "
          f"eta_E = {op.eta_e:.4f} (0.11 +- 0.02)")


def test_criterion_6_spectral_efficiency():
    op100 = power_point(100.0)
    assert 12.0 <= op100.c_tilde <= 19.0
    grid = np.linspace(50.0, 150.0, 11)
    caps = [power_point(float(p)).c_tilde for p in grid]
    assert all(a < b for a, b in zip(caps, caps[1:]))
    increase = caps[-1] - caps[0]
    assert increase <= 2.0
    print(f"\nACCEPTANCE 6 PASS: C(100 W, mu=0.99) = {op100.c_tilde:.2f} "
          f"bit/s/Hz in [12, 19] (published 17.69 is not reproducible from "
          f"the stated constants; residual gap recorded), monotone over "
          f"[50, 150] W with total increase {increase:.2f} <= 2")


def test_criterion_7_property_suites():
    rng = random.Random(99)

    # determinant 1 for elements and compositions
    for _ in range(50):
        m = compose(free_space(rng.uniform(0, 10)),
                    thin_lens(rng.uniform(1e-3, 0.1)),
                    reflector_matrix(rng.uniform(0.01, 0.1),
                                     rng.uniform(0, 0.2)),
                    tim_matrix(-5e-3, rng.uniform(1e-3, 0.1),
                               rng.uniform(-0.1, 0.1)),
                    retro_reflector())
        assert det(m) == pytest.approx(1.0, rel=1e-9)

    # retro-reflection exactness
    retro = reflector_matrix(f=0.05, d=0.05)
    assert (retro.a, retro.b, retro.c, retro.d) == (-1.0, 0.0, 0.0, -1.0)

    # afocal compression law (x, 0) -> (x / M, 0)
    for _ in range(20):
        f1 = rng.choice([-1, 1]) * rng.uniform(1e-3, 0.05)
        f2 = rng.choice([-1, 1]) * rng.uniform(1e-3, 0.05)
        t = tim_matrix(f1, f2, f1 + f2)
        mag = -f1 / f2
        assert t.a == pytest.approx(1.0 / mag, rel=1e-9)
        assert abs(t.c) < 1e-9

    # saturation identity exp(2 Gamma g l) r1 r2 v^2 = 1 and splitter
    # conservation to within one rounding step, on evaluated points: single
    # points, the cells of a p_in x mu grid (each resuming from its row's
    # gain) and of an r2 line (each resuming from its ray optics)
    def check_point(cfg, op):
        assert op.status in ("ok", "sub-threshold")
        g, gm = cfg["geometry"], cfg["gain"]
        assert math.exp(2 * gm["gamma_conf"] * op.g_sat * gm["l"]) \
            * g["r1"] * g["r2"] * op.v * op.v == pytest.approx(1.0, rel=1e-9)
        assert op.p_pv_in + op.p_apd_in == pytest.approx(op.p_beam,
                                                         rel=1e-15)

    statuses = set()
    for _ in range(50):
        cfg = get_preset("paper-2022")
        for path, lo, hi in (("geometry.r1", 0.9, 1.0),
                             ("geometry.r2", 0.7, 1.0),
                             ("losses.vc", 0.9, 1.0),
                             ("gain.l", 0.05e-6, 3e-6),
                             ("gain.gamma_conf", 0.5, 2.5),
                             ("link.p_in", 1.0, 150.0),
                             ("receiver.mu", 0.0, 1.0)):
            set_path(cfg, path, rng.uniform(lo, hi))
        op = evaluate_operating_point(cfg)
        check_point(cfg, op)
        statuses.add(op.status)
    assert statuses == {"ok", "sub-threshold"}

    # at 14 W, r2 below about 0.85 leaves the link under threshold
    for p_in, axes in ((100.0, (Axis("link.p_in", 1.0, 150.0, 15),
                                Axis("receiver.mu", 0.0, 1.0, 11))),
                       (14.0, (Axis("geometry.r2", 0.7, 0.99, 30),))):
        cfg = get_preset("paper-2022")
        set_path(cfg, "link.p_in", p_in)
        result = run_sweep(SweepSpec(cfg, *axes))
        cells = [(a, b) for a in result.axis1_values
                 for b in result.axis2_values or (None,)]
        assert len(cells) == len(result.points)
        statuses = set()
        for values, op in zip(cells, result.points):
            cell = get_preset("paper-2022")
            set_path(cell, "link.p_in", p_in)
            for axis, value in zip(axes, values):
                set_path(cell, axis.path, value)
            check_point(cell, op)
            statuses.add(op.status)
        assert statuses == {"ok", "sub-threshold"}

    # piecewise-linear beam power: finite differences recover the slope
    op_lo = power_point(100.0)
    for p in (40.0, 90.0, 140.0):
        hi = power_point(p + 1.0)
        lo = power_point(p - 1.0)
        slope = (hi.p_beam - lo.p_beam) / 2.0
        assert slope == pytest.approx(op_lo.eta_s, rel=1e-9)

    # closed-form spot radius versus the self-consistent q oracle on
    # stable test cavities; documented tolerance: factor 2.5 (the closed
    # form uses the one-trip matrix and runs systematically low relative
    # to the round-trip Gaussian mode).  Per-cavity ratios recorded below.
    cases = [(1, 10, 12), (12, 10, 18), (10, 10, 15), (1, 5, 11),
             (4, 6, 11), (6, 8, 12), (2, 3, 20), (10, 10, 20),
             (12, 10, 20), (8, 4, 15), (1, 2, 10), (10, 2, 11)]
    assert len(cases) >= 10
    print("\nACCEPTANCE 7: spot-radius closed form vs q-parameter oracle:")
    for m, d3, fr2 in cases:
        g = dict(d1=20e-3, d2=20e-3, d3=float(d3), f1=-5e-3, f2=5e-3 * m,
                 fr2=float(fr2), r1=0.999, r2=0.9, lambda_beam=LAMBDA)
        w_closed = spot_radius_on_gain(open_cavity(g), g)
        w_q = spot_radius_q_oracle(round_trip_matrix(g), LAMBDA)
        ratio = w_closed / w_q
        print(f"  cavity M={m} d3={d3} fr2={fr2}: ratio {ratio:.4f}")
        assert 1 / 2.5 < ratio < 2.5

    # sign-flip invariance of the spot formula
    g = dict(d1=20e-3, d2=20e-3, d3=10.0, f1=-5e-3, f2=60e-3, fr2=18.0,
             r1=0.999, r2=0.9, lambda_beam=LAMBDA)
    mc = one_trip(open_cavity(g), g)
    flipped = RayTransferMatrix(-mc.a, -mc.b, -mc.c, -mc.d)
    assert spot_radius_of(flipped, LAMBDA) == spot_radius_of(mc, LAMBDA)

    print("ACCEPTANCE 7 PASS: determinant, retro, compression, saturation, "
          "splitter, slope, and oracle-agreement properties all hold")


def test_figures_keep_the_energy_budget():
    # every ok and sub-threshold point of the seven figures' sweeps at 121
    # points, as reproduce_figure evaluates them, keeps to the energy
    # budget wherever its fields were evaluated, each bound to a relative
    # 1e-12: eta_s <= eta_pc * eta_pa * lambda_pump / lambda_beam; with
    # lambda_pump <= lambda_beam, p_beam <= p_in; and, with also eta_p <= 1
    # and p_pth <= 0, p_e_out <= mu * p_beam
    rel = 1.0 + 1e-12
    checked = dict.fromkeys(("eta_s", "p_beam", "p_e_out"), 0)
    for fid in figures.FIGURE_IDS:
        for _, spec, quantities, reduced in figures._series_sweeps(fid, 121):
            result = run_sweep(spec, quantities if reduced
                               else (*quantities, "status"))
            axes = [a for a in (spec.axis1, spec.axis2) if a]
            grids = (result.axis1_values, result.axis2_values)[:len(axes)]
            cells = [dict(zip(axes, v)) for v in itertools.product(*grids)]
            for p, cell in zip(result.points, cells, strict=True):
                if p.status not in ("ok", "sub-threshold"):
                    continue
                cfg = copy_config(spec.config)
                for axis, value in cell.items():
                    set_path(cfg, axis.path, value)
                pump, g, r = cfg["pump"], cfg["geometry"], cfg["receiver"]
                below = pump["lambda_pump"] <= g["lambda_beam"]
                if p.eta_s is not None:
                    cap = (pump["eta_pc"] * pump["eta_pa"]
                           * (pump["lambda_pump"] / g["lambda_beam"]))
                    assert p.eta_s <= cap * rel, (fid, cell)
                    checked["eta_s"] += 1
                if p.p_beam is not None and below:
                    assert p.p_beam <= cfg["link"]["p_in"] * rel, (fid, cell)
                    checked["p_beam"] += 1
                if (p.p_e_out is not None and below and r["eta_p"] <= 1
                        and r["p_pth"] <= 0):
                    assert p.p_e_out <= r["mu"] * p.p_beam * rel, (fid, cell)
                    checked["p_e_out"] += 1
    # figs 5b (for its status) to 8 evaluate the gain, 9 and 10 the receiver
    assert checked["eta_s"] == checked["p_beam"] > checked["p_e_out"] > 0
    print(f"\nACCEPTANCE PASS: the energy budget holds on every evaluated "
          f"figure point: {checked}")
