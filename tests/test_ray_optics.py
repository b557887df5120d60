import math
import random

import numpy as np
import pytest
from abcd import (
    RayTransferMatrix,
    RayVector,
    cavity,
    closed_by_package,
    compose,
    det,
    free_space,
    one_trip,
    one_trip_elements,
    reflector_matrix,
    retro_reflector,
    round_trip_matrix,
    spot_radius_of,
    spot_radius_q_oracle,
    thin_lens,
    tim_matrix,
    q_section,
    unit_of,
    units_shim,
    value_of,
)

from rbswipt import model, ray_optics
from rbswipt.config import get_preset
from rbswipt.model import evaluate_operating_point
from rbswipt.ray_optics import (
    UnstableResonatorError,
    diffraction_survival,
    open_cavity,
    spot_radius_on_gain,
)

LAMBDA = 980e-9


def as_array(m: RayTransferMatrix) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]])


def baseline_geometry(m=12.0, d3=10.0, fr2=18.0) -> dict:
    # 10 m link, d1 = d2 = 20 mm, concave f1 = -5 mm, retro M1
    return dict(d1=20e-3, d2=20e-3, d3=d3, f1=-5e-3, f2=5e-3 * m,
                fr1=math.inf, fr2=fr2, r1=0.999, r2=0.90, lambda_beam=LAMBDA)


class TestFreeSpace:
    def test_zero_distance_is_identity(self):
        m = free_space(0.0)
        assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0.0, 1.0)

    def test_ten_meters(self):
        m = free_space(10.0)
        assert (m.a, m.b, m.c, m.d) == (1.0, 10.0, 0.0, 1.0)

    def test_additivity(self):
        assert compose(free_space(3.0), free_space(7.0)) == free_space(10.0)

    def test_negative_distance_allowed(self):
        assert free_space(-4e-3).b == -4e-3

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            free_space(math.inf)


class TestThinLens:
    def test_flat_is_identity(self):
        assert thin_lens(math.inf) == RayTransferMatrix(1, 0, 0, 1)

    def test_negative_focal_length(self):
        m = thin_lens(-5e-3)
        assert m.c == pytest.approx(200.0)
        assert (m.a, m.b, m.d) == (1.0, 0.0, 1.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            thin_lens(0.0)

    def test_unit_determinant(self):
        rng = random.Random(7)
        for _ in range(50):
            f = rng.uniform(-0.5, 0.5) or 0.1
            assert det(thin_lens(f)) == pytest.approx(1.0, rel=1e-9)


class TestReflector:
    def test_retro_condition(self):
        m = reflector_matrix(f=50e-3, d=50e-3)
        assert (m.a, m.b, m.c, m.d) == (-1.0, 0.0, 0.0, -1.0)
        r = m.apply(RayVector(1e-3, 0.02))
        assert (r.x, r.theta) == (-1e-3, -0.02)

    def test_against_constituent_product(self):
        # oracle: lens-space-mirror-space-lens traversal, multiplied out
        f, d = 50e-3, 60e-3
        oracle = (as_array(free_space(f)) @ as_array(thin_lens(f))
                  @ as_array(free_space(d)) @ np.eye(2)
                  @ as_array(free_space(d)) @ as_array(thin_lens(f))
                  @ as_array(free_space(f)))
        m = reflector_matrix(f, d)
        np.testing.assert_allclose(as_array(m), oracle, atol=1e-12)
        # f_r = f^2 / (2 (d - f)) = 0.125 m
        assert m.c == pytest.approx(8.0)

    def test_unit_determinant(self):
        rng = random.Random(11)
        for _ in range(50):
            f = rng.uniform(0.01, 0.2)
            d = rng.uniform(0.0, 0.3)
            assert det(reflector_matrix(f, d)) == pytest.approx(1.0, rel=1e-9)


class TestTimMatrix:
    def test_compression_example(self):
        m = tim_matrix(f1=-5e-3, f2=1e-3, lt=-4e-3)
        oracle = (as_array(thin_lens(1e-3)) @ as_array(free_space(-4e-3))
                  @ as_array(thin_lens(-5e-3)))
        np.testing.assert_allclose(as_array(m), oracle, atol=1e-12)
        np.testing.assert_allclose(as_array(m),
                                   [[0.2, -0.004], [0.0, 5.0]], atol=1e-12)
        r = m.apply(RayVector(1e-3, 0.0))
        assert r.x == pytest.approx(0.2e-3)
        assert r.theta == pytest.approx(0.0, abs=1e-12)

    def test_unit_magnification_is_identity(self):
        m = tim_matrix(f1=-5e-3, f2=5e-3, lt=0.0)
        np.testing.assert_allclose(as_array(m), np.eye(2), atol=1e-12)

    def test_unit_determinant(self):
        rng = random.Random(3)
        for _ in range(50):
            f1 = rng.uniform(-0.1, 0.1) or 0.05
            f2 = rng.uniform(-0.1, 0.1) or 0.02
            lt = rng.uniform(-0.1, 0.2)
            assert det(tim_matrix(f1, f2, lt)) == pytest.approx(1.0, rel=1e-9)

    def test_afocal_compression_law(self):
        # lt = f1 + f2 maps (x, 0) -> (x / M, 0) with M = -f1/f2
        rng = random.Random(42)
        for _ in range(20):
            f1 = rng.choice([-1, 1]) * rng.uniform(1e-3, 50e-3)
            f2 = rng.choice([-1, 1]) * rng.uniform(1e-3, 50e-3)
            mag = -f1 / f2
            m = tim_matrix(f1, f2, f1 + f2)
            r = m.apply(RayVector(2e-3, 0.0))
            assert r.x == pytest.approx(2e-3 / mag, rel=1e-9)
            assert abs(r.theta) < 1e-12
            assert m.a == pytest.approx(1.0 / mag, rel=1e-9)
            assert abs(m.c) < 1e-9
            assert m.d == pytest.approx(mag, rel=1e-9)


class TestOneTrip:
    def test_degenerate_composition_is_identity(self):
        # zero spacings, both reflectors retro, unit telescope
        m = compose(retro_reflector(math.inf), free_space(0.0),
                    tim_matrix(-5e-3, 5e-3, 0.0), free_space(0.0),
                    retro_reflector(math.inf))
        np.testing.assert_allclose(as_array(m), np.eye(2), atol=1e-12)

    def test_against_stepwise_oracle(self):
        g = baseline_geometry()
        c = cavity(g)
        # independent step-by-step 2x2 multiplication, M2 leftmost
        steps = [as_array(retro_reflector(c["fr2"])),
                 as_array(free_space(c["d3"])), as_array(thin_lens(c["f2"])),
                 as_array(free_space(c["lt"])), as_array(thin_lens(c["f1"])),
                 as_array(free_space(c["d2"])), as_array(free_space(c["d1"])),
                 as_array(retro_reflector(c["fr1"]))]
        oracle = np.eye(2)
        for s in steps:
            oracle = oracle @ s
        np.testing.assert_allclose(as_array(one_trip(open_cavity(g), g)),
                                   oracle, rtol=1e-12)

    def test_unit_determinant(self):
        rng = random.Random(5)
        for _ in range(30):
            g = baseline_geometry(m=rng.uniform(1, 14),
                                  d3=rng.uniform(2, 10),
                                  fr2=rng.uniform(5, 40))
            assert det(one_trip(open_cavity(g), g)) == \
                pytest.approx(1.0, rel=1e-9)
            assert det(round_trip_matrix(g)) == pytest.approx(1.0, rel=1e-9)


    def test_bit_identical_to_compose(self):
        rng = random.Random(11)
        for _ in range(200):
            f1 = rng.choice((-1, 1)) * rng.uniform(1e-3, 0.1)
            # None leaves a key out of the section, to its default
            drawn = dict(
                d1=rng.uniform(1e-3, 0.1), d2=rng.uniform(1e-3, 0.1),
                d3=rng.uniform(0.5, 20.0), f1=f1,
                f2=rng.choice((-1, 1)) * rng.uniform(1e-3, 0.2),
                lt=rng.choice((None, rng.uniform(-0.1, 0.3))),
                fr1=rng.choice((None, rng.uniform(1.0, 50.0))),
                fr2=rng.choice((None, rng.uniform(1.0, 50.0))),
                r1=0.999, r2=0.9, lambda_beam=LAMBDA)
            g = {k: v for k, v in drawn.items() if v is not None}
            expected = compose(*one_trip_elements(cavity(g)))
            # repr also tells -0.0 from 0.0
            assert repr(one_trip(open_cavity(g), g)) == repr(expected)
            closes_as(open_cavity(g), g, expected)


# per geometry key, values at the edges of its SCHEMA range: the smallest
# subnormal, 1e300, both signs where the range allows them, inf for the
# reflectors; None leaves the key out, to its default
RANGE_EDGES = dict(
    d1=(5e-324, 20e-3, 1e300), d2=(5e-324, 20e-3, 1e300),
    d3=(5e-324, 10.0, 1e300),
    lt=(None, -1e300, -0.05, -5e-324, 0.0, 5e-324, 0.055, 1e300),
    # f1 = +-5e-324 is an infinite lens power
    f1=(-5e-324, 5e-324, -5e-3, 5e-3, -1e300, 1e300),
    f2=(None, -5e-324, 5e-324, 60e-3, -1e300, 1e300),
    # with f2 absent, f2 = -f1 * M overflows to inf at M = 1e300
    tim_magnification=(5e-324, 12.0, 1e300),
    fr1=(None, math.inf, 5e-324, 18.0, 1e300),
    fr2=(None, math.inf, 5e-324, 18.0, 1e300),
)

# geometries the draws below miss: without the fr2 line's products by 0.0,
# this one's a and b read -inf where compose gives nan
PINNED_EDGES = (
    dict(d1=1.7976931348623157e308, d2=10.0, d3=1e-300, f1=-1.0,
         tim_magnification=5e-324, lt=9.70579956874667e-301, fr2=5e-324),
)


def closes_as(opened, geometry: dict, m: RayTransferMatrix) -> str:
    """Check that spot_radius_on_gain closes `opened` on `geometry` into
    the composed one-trip matrix m bit for bit, and name the verdict: a
    stable cell's radius is spot_radius_of(m), an unstable or degenerate
    cell keeps m's entries (repr also tells -0.0 from 0.0 and shows inf
    and nan), and a radicand that is not finite names m."""
    try:
        kept = closed_by_package(opened, {**geometry, "lambda_beam": LAMBDA})
    except ValueError as e:
        assert str(e).endswith(f" for matrix {m}"), geometry
        return "radicand not finite"
    if isinstance(kept, tuple):
        assert repr(kept[-4:]) == repr(tuple(m)), geometry
        return "unstable"
    assert repr(kept) == repr(spot_radius_of(m, LAMBDA)), geometry
    return "stable"


def test_bit_identical_to_compose_at_range_edges():
    # README's command for this guard: f2 = -f1 * M and lt = f1 + f2
    # overflow to -inf
    g = dict(d1=20e-3, d2=20e-3, d3=10.0, f1=1e300, tim_magnification=1e10)
    with pytest.raises(ValueError) as e:
        open_cavity(g)
    assert str(e.value) == \
        "telescope spacing lt = f1 + f2 = -inf is not finite"
    rng = random.Random(17)
    draws = ({k: rng.choice(v) for k, v in RANGE_EDGES.items()}
             for _ in range(4000))
    seen = set()
    for drawn in (*PINNED_EDGES, *draws):
        g = {k: v for k, v in drawn.items() if v is not None}
        c = cavity(g)
        if not math.isfinite(c["lt"]):
            # a derived lt = f1 + f2 that overflowed
            with pytest.raises(ValueError) as e:
                open_cavity(g)
            assert str(e.value) == (f"telescope spacing lt = f1 + f2 = "
                                    f"{c['lt']} is not finite")
            seen.add("not finite")
            continue
        if c["f2"] == 0:
            # f2 = -f1 * M underflowed to 0: no lens, a division by zero
            with pytest.raises(ZeroDivisionError):
                open_cavity(g)
            seen.add("f2 = 0")
            continue
        expected = compose(*one_trip_elements(c))
        seen.update(t for t in ("inf", "nan", "-0.0") if t in repr(expected))
        opened = open_cavity(g)
        # open_cavity hands out a plain tuple of floats; repr also tells
        # -0.0 from 0.0, and shows inf and nan
        assert repr(opened) == repr(
            tuple(compose(*one_trip_elements(c)[:6]))), drawn
        seen.add(closes_as(opened, g, expected))
        # the cavity up to f2, opened once, closed at other d3 and fr2 as a
        # d3 or fr2 line closes it per point
        for _ in range(3):
            moved = {**g, "d3": rng.choice(RANGE_EDGES["d3"]),
                     "fr2": rng.choice(RANGE_EDGES["fr2"])}
            if moved["fr2"] is None:
                del moved["fr2"]
            seen.add(closes_as(opened, moved, compose(
                *one_trip_elements(cavity(moved)))))
    # the draws reach an overflow to inf, a nan, a negative zero, a
    # non-finite derived distance, an f2 that underflowed, and every
    # verdict of the closed cavity
    assert seen == {"inf", "nan", "-0.0", "not finite", "f2 = 0", "stable",
                    "unstable", "radicand not finite"}


def test_infinite_focal_lengths_take_no_special_case():
    # outside SCHEMA, which keeps f1 finite and fr1 > 0: every power and
    # curvature is -1/f or 1/f_r at infinity too, as in compose.  f1 =
    # fr1 = -inf bring c = -0.0 to lens f2 = -f1 * M = inf, whose power
    # -1/f2 = -0.0 makes it 0.0; a power taken as 0.0 there would leave
    # -0.0, and the sign reaches the one-trip C and a degenerate point's
    # detail
    g = dict(d1=0.02, d2=0.02, d3=10.0, f1=-math.inf, tim_magnification=12.0,
             lt=0.05, fr1=-math.inf)
    elements = one_trip_elements(cavity(g))
    assert repr(open_cavity(g)) == repr(tuple(compose(*elements[:6])))
    m = one_trip(open_cavity(g), g)
    assert repr(m) == repr(compose(*elements)) == \
        "RayTransferMatrix(a=1.0, b=10.09, c=-0.0, d=1.0)"
    with pytest.raises(UnstableResonatorError) as e:
        spot_radius_on_gain(open_cavity(g), {**g, "lambda_beam": LAMBDA})
    assert str(e.value) == \
        "degenerate cavity: A*C = 0 for matrix [[1, 10.09], [-0, 1]]"


class TestSpotRadius:
    def test_zero_b_gives_zero(self):
        m = RayTransferMatrix(2.0, 0.0, 1.0, 0.5)  # det = 1, B = 0
        assert spot_radius_of(m, LAMBDA) == 0.0

    def test_uncompressed_spot_near_1p2_mm(self):
        # published value for the 10 m link without beam compression
        g = baseline_geometry(m=1.0, d3=10.0, fr2=12.0)
        w = spot_radius_on_gain(open_cavity(g), g)
        assert w == pytest.approx(1.2e-3, rel=0.15)

    def test_sign_flip_invariance(self):
        g = baseline_geometry()
        m = one_trip(open_cavity(g), g)
        flipped = RayTransferMatrix(-m.a, -m.b, -m.c, -m.d)
        assert spot_radius_of(flipped, LAMBDA) == spot_radius_of(m, LAMBDA)

    def test_unstable_rejected_with_context(self):
        g = baseline_geometry(m=12.0, d3=10.0, fr2=10.0)
        with pytest.raises(UnstableResonatorError) as exc:
            spot_radius_on_gain(open_cavity(g), g)
        assert str(exc.value).startswith(
            "unstable resonator: spot-radius radicand -")

    def test_degenerate_ac_rejected(self):
        with pytest.raises(UnstableResonatorError, match="degenerate cavity"):
            spot_radius_of(RayTransferMatrix(0.0, 2.0, -0.5, 1.0), LAMBDA)

    @pytest.mark.parametrize("path, first", [("geometry.d3", 5.0),
                                             ("geometry.fr2", 20.0)])
    def test_unstable_and_degenerate_details_in_full(self, path, first):
        # the whole detail text, built here from tests/abcd.py's one-trip
        # matrix and radicand: a resumed cell of a d3 and of an fr2 line
        # (model.line, after its first point at `first`) reads it, and so
        # does the same point evaluated alone
        preset = get_preset("paper-2022")
        # CI's unstable cavity (fr2 = 2 m), and the degenerate one of
        # test_infinite_focal_lengths_take_no_special_case, C = -0.0
        unstable = {**preset, "geometry": {**preset["geometry"], "fr2": 2.0}}
        degenerate = {**preset, "geometry": dict(
            d1=0.02, d2=0.02, d3=10.0, f1=-math.inf, tim_magnification=12.0,
            lt=0.05, fr1=-math.inf, fr2=math.inf, r1=0.999, r2=0.9,
            lambda_beam=LAMBDA)}
        texts = []
        for cfg in (unstable, degenerate):
            g = cfg["geometry"]
            m = compose(*one_trip_elements(cavity(g)))
            entries = f"[[{m.a:.6g}, {m.b:.6g}], [{m.c:.6g}, {m.d:.6g}]]"
            lam = g["lambda_beam"]
            if m.a * m.c == 0:
                text = f"degenerate cavity: A*C = 0 for matrix {entries}"
            else:
                radicand = (-(lam * lam) * m.b * m.d
                            / (math.pi * math.pi * (m.a * m.c)))
                text = (f"unstable resonator: spot-radius radicand "
                        f"{radicand:.6g} < 0 for matrix {entries}")
            points = model.line(cfg, path, None)
            points([first])
            point, = points([g[path.partition(".")[2]]])
            assert point.status == "unstable"
            assert point.detail == text
            assert evaluate_operating_point(cfg).detail == text
            texts.append(text)
        assert texts[0].startswith("unstable resonator: spot-radius radicand -")
        assert texts[1] == \
            "degenerate cavity: A*C = 0 for matrix [[1, 10.09], [-0, 1]]"

    def test_agrees_with_q_parameter_oracle(self):
        # The closed form uses the one-trip matrix; the self-consistent
        # Gaussian mode uses the full round trip.  They agree in order of
        # magnitude but not exactly: the one-trip matrix carries each
        # reflector's full 1/f_r (see test_halved_reflector_terms_match_
        # oracle), ratio ~0.4-0.9 over this cavity family.  The closed form
        # is the model's authoritative output; the documented tolerance here
        # is a factor of 2.5, with per-cavity ratios printed for the record.
        cases = [(1, 10, 12), (12, 10, 18), (10, 10, 15), (1, 5, 11),
                 (4, 6, 11), (6, 8, 12), (2, 3, 20), (10, 10, 20),
                 (12, 10, 20), (8, 4, 15), (1, 2, 10), (10, 2, 11)]
        assert len(cases) >= 10
        for m, d3, fr2 in cases:
            g = baseline_geometry(m=m, d3=d3, fr2=fr2)
            w_closed = spot_radius_on_gain(open_cavity(g), g)
            w_q = spot_radius_q_oracle(round_trip_matrix(g), LAMBDA)
            ratio = w_closed / w_q
            print(f"cavity M={m} d3={d3} fr2={fr2}: closed={w_closed:.4e} "
                  f"q-oracle={w_q:.4e} ratio={ratio:.4f}")
            assert 1 / 2.5 < ratio < 2.5

    def test_halved_reflector_terms_match_oracle(self):
        # w^4 = -lam^2 B D / (pi^2 A C) is the two-mirror spot size at M1
        # for an unfolded half trip holding each mirror once; the round trip
        # applies each reflector once, so the one-trip matrix matches it
        # with each reflector's curvature term halved, 1 / (2 f_r)
        rng = random.Random(2107)
        verdicts = set()
        for _ in range(2000):
            g = baseline_geometry(m=rng.uniform(1.0, 14.0),
                                  d3=rng.uniform(2.0, 10.0),
                                  fr2=rng.choice((2.0, 5.0, 11.0, 15.0,
                                                  18.0, 20.0)))
            g["fr1"] = rng.choice((math.inf, 2.0, 30.0, 50.0))
            halved = {**g, "fr1": 2.0 * g["fr1"], "fr2": 2.0 * g["fr2"]}
            try:
                w = spot_radius_on_gain(open_cavity(halved), halved)
            except UnstableResonatorError:
                w = None
            try:
                w_q = spot_radius_q_oracle(round_trip_matrix(g), LAMBDA)
            except UnstableResonatorError:
                w_q = None
            assert (w is None) == (w_q is None), g
            if w is not None:
                assert w == pytest.approx(w_q, rel=1e-9), g
            verdicts.add(w is None)
        assert verdicts == {True, False}    # both verdicts were compared

    def test_non_increasing_in_magnification(self):
        # maximum spot over the 2-10 m distance range, versus compression
        def w_max(m):
            out = 0.0
            for d3 in np.linspace(2.0, 10.0, 41):
                g = baseline_geometry(m=m, d3=float(d3), fr2=11.0)
                try:
                    out = max(out, spot_radius_on_gain(open_cavity(g), g))
                except UnstableResonatorError:
                    pass
            return out

        mags = np.linspace(1.0, 14.0, 27)
        values = [w_max(m) for m in mags]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestDiffractionSurvival:
    def test_zero_aperture(self):
        assert diffraction_survival(0.0, 1e-3) == 0.0

    def test_aperture_equals_spot(self):
        assert diffraction_survival(1e-3, 1e-3) == \
            pytest.approx(1.0 - math.exp(-2.0))

    def test_large_aperture_limit(self):
        assert diffraction_survival(10e-3, 1e-3) == pytest.approx(1.0,
                                                                  abs=1e-8)

    def test_monotonicity(self):
        apertures = np.linspace(0.05e-3, 2e-3, 40)
        vals = [diffraction_survival(float(a), 0.5e-3) for a in apertures]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        spots = np.linspace(0.1e-3, 2e-3, 40)
        vals = [diffraction_survival(0.5e-3, float(w)) for w in spots]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_invalid_spot(self):
        with pytest.raises(ValueError):
            diffraction_survival(1e-3, 0.0)


def test_every_ray_optics_result_carries_its_unit(monkeypatch):
    # the preset's geometry section as Q values of their SCHEMA kinds
    # (fr1 = inf stays a float, as 1/inf is a bare zero), through the ray
    # optics with its math shimmed for Q: each function returns its
    # dimension, and the same floats it returns without Q
    preset = get_preset("paper-2022")
    plain = preset["geometry"]
    geometry = q_section(preset, "geometry")
    aperture = q_section(preset, "gain")["a"]
    units_shim(monkeypatch, ray_optics)
    opened = open_cavity(geometry)
    assert [unit_of(x) for x in opened] == ["1", "m^1", "m^-1", "1"]
    # the closing adds and compares only like dimensions on the way
    w = spot_radius_on_gain(opened, geometry)
    assert unit_of(w) == "m^1"
    survival = diffraction_survival(aperture, w)
    assert unit_of(survival) == "1"
    monkeypatch.undo()
    assert [value_of(x) for x in opened] == list(open_cavity(plain))
    assert value_of(w) == spot_radius_on_gain(open_cavity(plain), plain)
    assert value_of(survival) == diffraction_survival(
        preset["gain"]["a"], value_of(w))
