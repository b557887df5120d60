import math
import random

import numpy as np
import pytest
from abcd import (
    FIELD_DIMS,
    Q,
    q_section,
    threshold_carrier_density,
    transmission_efficiency,
    unit_of,
    units_shim,
    value_of,
)

from rbswipt import gain_power
from rbswipt.config import ConfigError, get_preset, set_path
from rbswipt.gain_power import LIGHT_SPEED, PLANCK, POWER_UNITS, evaluate_gain
from rbswipt.model import FIELD_UNITS, evaluate_operating_point
from rbswipt.ray_optics import (
    diffraction_survival,
    open_cavity,
    spot_radius_on_gain,
)

LAMBDA_BEAM = 980e-9
# the slope-efficiency guard's message for a lossless cavity
UNITY_PRODUCT = r"^r1\*r2\*v\^1 = 1\.0 >= 1$"


def table_gain() -> dict:
    """The tabulated gain section of a Config."""
    return dict(g0=2e5, n0=1.7e24, gamma_conf=2.0, alpha=1e7, beta=1e-16,
                auger=6e-42, l=3e-6, a_s=3e-8, a=0.2e-3)


def table_pump() -> dict:
    """The tabulated pump section of a Config."""
    return dict(eta_pc=0.6, eta_pa=0.85, lambda_pump=808e-9)


def gain_stage(r1, r2, v, gain=None, pump=None, p_in=0.0, loss_exponent=1):
    """evaluate_gain for mirror reflectivities r1, r2 and overall loss
    factor v (vc = v, vd = 1), on the table sections unless given."""
    geometry = {"r1": r1, "r2": r2, "lambda_beam": LAMBDA_BEAM}
    losses = {"vc": v, "slope_loss_exponent": float(loss_exponent)}
    return evaluate_gain(geometry, gain or table_gain(), pump or table_pump(),
                         losses, p_in, 1.0)


def at_density(gain: dict, n: float) -> dict:
    """The gain section with threshold carrier density n exactly: with
    g0 = inf, N_th = N0 exp(g_sat / g0) is N0."""
    return {**gain, "n0": n, "g0": math.inf}


def lifetime(n: float, gain: dict) -> float:
    """The stage's carrier lifetime at threshold carrier density n."""
    res = gain_stage(0.999, 0.93, 0.98, at_density(gain, n))
    assert res.n_th == n
    return res.tau


def threshold(gain: dict, pump: dict, n_th: float, tau: float) -> float:
    """The stage's threshold power at carrier density n_th and lifetime
    tau: 1 / tau is the only recombination term."""
    res = gain_stage(0.999, 0.93, 0.98,
                     {**at_density(gain, n_th), "alpha": 1.0 / tau,
                      "beta": 0.0, "auger": 0.0}, pump)
    assert res.n_th == n_th and res.tau == pytest.approx(tau, rel=1e-15)
    return res.p_th


def beam(p_in: float, p_th: float, eta_s: float) -> float:
    """The stage's beam power at input p_in, on sections that make its
    threshold power p_th and its slope efficiency eta_s exactly: unit r1,
    v, l and tau, ln r2 = -1, N_th = p_th, a_s = 1 / (h c), eta_pc = eta_s
    and lambda_pump = lambda_beam = 1 / eta_s."""
    lam = 1.0 / eta_s
    gain = {**at_density(table_gain(), p_th), "l": 1.0, "alpha": 1.0,
            "beta": 0.0, "auger": 0.0, "a_s": 1.0 / (PLANCK * LIGHT_SPEED)}
    pump = {"eta_pc": eta_s, "eta_pa": 1.0, "lambda_pump": lam}
    geometry = {"r1": 1.0, "r2": math.exp(-1.0), "lambda_beam": lam}
    res = evaluate_gain(geometry, gain, pump, {"vc": 1.0}, p_in, 1.0)
    assert (res.p_th, res.eta_s) == (p_th, eta_s)
    return res.p_beam


class TestSaturationGain:
    def test_lossless_cavity(self):
        # the stage names g_sat, then stops at the slope efficiency, which a
        # lossless cavity leaves without a value (ln 1 = 0 divides)
        gm = {**table_gain(), "l": 3e-6, "gamma_conf": 2.0}
        with pytest.raises(ValueError, match=UNITY_PRODUCT) as e:
            gain_stage(1.0, 1.0, 1.0, gm)
        assert e.traceback[-1].locals["g_sat"] == 0.0

    def test_round_trip_identity(self):
        # exp(2 Gamma g l) * r1 r2 v^2 = 1 by construction
        rng = random.Random(17)
        for _ in range(50):
            r1 = rng.uniform(0.8, 1.0)
            r2 = rng.uniform(0.7, 1.0)
            v = rng.uniform(0.9, 1.0)
            l = rng.uniform(0.05e-6, 3e-6)
            gamma = rng.uniform(0.5, 2.5)
            gm = {**table_gain(), "l": l, "gamma_conf": gamma}
            g = gain_stage(r1, r2, v, gm).g_sat
            assert math.exp(2 * gamma * g * l) * r1 * r2 * v * v == \
                pytest.approx(1.0, rel=1e-9)

    def test_frozen_value(self):
        # independent closed-form evaluation: 9498.0506502881...
        gm = {**table_gain(), "l": 3e-6, "gamma_conf": 2.0}
        g = gain_stage(0.999, 0.93, 0.98, gm).g_sat
        assert g == pytest.approx(9498.050650288153, rel=1e-12)

    def test_gain_exceeding_unity_product_rejected(self):
        # r1, r2 and vc are each at most 1 where they enter the Config, and
        # survival is at most 1, so r1 r2 v^2 never exceeds 1 in the stage
        cfg = get_preset("paper-2022")
        for path in ("geometry.r1", "geometry.r2", "losses.vc"):
            with pytest.raises(ConfigError, match=f"^{path} = "):
                set_path(cfg, path, 1.0000001)
        assert cfg == get_preset("paper-2022")


class TestThresholdCarrierDensity:
    def test_lossless_equals_transparency(self):
        gm = table_gain()
        assert threshold_carrier_density(gm, 1.0, 1.0, 1.0) == gm["n0"]

    def test_two_routes_agree(self):
        gm = table_gain()
        rng = random.Random(23)
        for _ in range(30):
            r1 = rng.uniform(0.9, 1.0)
            r2 = rng.uniform(0.7, 1.0)
            v = rng.uniform(0.9, 1.0)
            closed = gm["n0"] * (r1 * r2 * v * v) ** (
                -1.0 / (2 * gm["g0"] * gm["l"] * gm["gamma_conf"]))
            via_gain = threshold_carrier_density(gm, r1, r2, v)
            assert via_gain == pytest.approx(closed, rel=1e-12)

    def test_frozen_value(self):
        n = threshold_carrier_density(table_gain(), 0.999, 0.93, 0.98)
        assert n == pytest.approx(1.782681166476417e24, rel=1e-12)

    def test_losses_raise_threshold(self):
        gm = table_gain()
        rng = random.Random(29)
        for _ in range(30):
            n = threshold_carrier_density(gm, rng.uniform(0.8, 1.0),
                                          rng.uniform(0.7, 1.0),
                                          rng.uniform(0.9, 1.0))
            assert n >= gm["n0"]


class TestCarrierLifetime:
    def test_zero_density(self):
        assert lifetime(0.0, table_gain()) == pytest.approx(1e-7)

    def test_transparency_density(self):
        tau = lifetime(1.7e24, table_gain())
        assert tau == pytest.approx(5.0673963717441974e-09, rel=1e-12)

    def test_strictly_decreasing(self):
        gm = table_gain()
        grid = np.linspace(0.0, 5e24, 100)
        taus = [lifetime(float(n), gm) for n in grid]
        assert all(a > b for a, b in zip(taus, taus[1:]))


class TestThresholdPower:
    def test_linearity_in_cross_section(self):
        gm, pm = table_gain(), table_pump()
        gm2 = {**gm, "a_s": 2 * gm["a_s"]}
        p1 = threshold(gm, pm, 1.78e24, 4.8e-9)
        p2 = threshold(gm2, pm, 1.78e24, 4.8e-9)
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_full_chain_value(self):
        # the stage's chain N_th -> tau -> threshold, tens of watts regime
        p_th = gain_stage(0.999, 0.93, 0.98).p_th
        assert p_th == pytest.approx(13.230355716931989, rel=1e-12)
        assert 5 < p_th < 30

    def test_zero_lifetime_rejected(self):
        # an infinite recombination rate leaves tau = 1 / inf = 0
        gm = {**at_density(table_gain(), 1e24), "alpha": math.inf}
        with pytest.raises(ValueError,
                           match="^carrier lifetime must be positive$"):
            gain_stage(0.999, 0.93, 0.98, gm)


class TestSlopeEfficiency:
    def test_output_coupling_only(self):
        pm = table_pump()
        eta = gain_stage(1.0, 0.93, 1.0, pump=pm).eta_s
        assert eta == pytest.approx(0.6 * 0.85 * 808 / 980, rel=1e-12)

    def test_frozen_value(self):
        eta = gain_stage(0.999, 0.93, 0.98).eta_s
        assert eta == pytest.approx(0.32541288846516847, rel=1e-12)

    def test_bounds(self):
        pm = table_pump()
        cap = pm["eta_pc"] * pm["eta_pa"] * pm["lambda_pump"] / LAMBDA_BEAM
        rng = random.Random(31)
        for _ in range(50):
            eta = gain_stage(rng.uniform(0.9, 0.9999),
                             rng.uniform(0.7, 0.99),
                             rng.uniform(0.9, 1.0), pump=pm).eta_s
            assert 0 < eta <= cap + 1e-15

    def test_loss_exponent_two(self):
        pm = table_pump()
        eta1 = gain_stage(0.999, 0.93, 0.98, pump=pm, loss_exponent=1).eta_s
        eta2 = gain_stage(0.999, 0.93, 0.98, pump=pm, loss_exponent=2).eta_s
        assert eta2 < eta1  # more loss in the denominator log

    def test_unity_product_rejected(self):
        with pytest.raises(ValueError, match=UNITY_PRODUCT):
            gain_stage(1.0, 1.0, 1.0)


class TestBeamPower:
    def test_at_threshold(self):
        assert beam(10.0, 10.0, 0.3) == 0.0

    def test_below_threshold_clamped(self):
        assert beam(5.0, 10.0, 0.3) == 0.0

    def test_linear_above_threshold(self):
        assert beam(150.0, 10.0, 0.3) == pytest.approx(42.0)

    def test_piecewise_linear_slope(self):
        # finite differences above threshold recover eta_s
        p_th, eta_s = 13.0, 0.35
        for p in (20.0, 80.0, 140.0):
            d = beam(p + 0.5, p_th, eta_s) - beam(p - 0.5, p_th, eta_s)
            assert d == pytest.approx(eta_s, rel=1e-9)

    @pytest.mark.parametrize("x", (-0.0, 0.0, 5e-324, -5e-324, math.inf,
                                   -math.inf, math.nan), ids=repr)
    def test_clamp_is_max_with_zero(self, x):
        # where a clamp by comparison could part from max: signed zeros,
        # subnormals, infinities and nan; (x - 0.0) * 1.0 is x bit for bit
        assert repr(beam(x, 0.0, 1.0)) == repr(max(0.0, x))


class TestTransmissionEfficiency:
    def test_asymptote(self):
        eta = transmission_efficiency(1e9, 13.0, 0.35)
        assert eta == pytest.approx(0.35, rel=1e-6)

    def test_at_threshold(self):
        assert transmission_efficiency(13.0, 13.0, 0.35) == 0.0

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            transmission_efficiency(0.0, 13.0, 0.35)

    def test_nondecreasing_and_bounded(self):
        grid = np.linspace(1.0, 200.0, 80)
        vals = [transmission_efficiency(float(p), 13.0, 0.35) for p in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v <= 0.35 for v in vals)


def stable_geometry(r2=0.90) -> dict:
    """A stable geometry section of a Config."""
    return dict(d1=20e-3, d2=20e-3, d3=10.0, f1=-5e-3, f2=60e-3, fr2=18.0,
                r1=0.999, r2=r2, lambda_beam=LAMBDA_BEAM)


def survival(geo: dict, gm: dict) -> float:
    """Diffraction survival vd of the gain aperture, from ray optics."""
    w = spot_radius_on_gain(open_cavity(geo), geo)
    return diffraction_survival(gm["a"], w)


def gain_chain(geo, gm, pm, vc, p_in, loss_exponent=1):
    losses = {"vc": vc, "slope_loss_exponent": float(loss_exponent)}
    return evaluate_gain(geo, gm, pm, losses, p_in, survival(geo, gm))


class TestEvaluateGain:
    def test_lossless_idealization(self):
        # r1 = vc = 1, r2 a hair below 1, aperture much larger than the
        # spot: the threshold involves only the transparency density and
        # the slope reduces to the pump efficiencies times the wavelength
        # ratio (r2 = 1 exactly would zero the round-trip loss entirely)
        geo = dict(stable_geometry(r2=1.0 - 1e-9), r1=1.0)
        gm = table_gain()
        big_aperture = {**gm, "a": 0.5}
        res = gain_chain(geo, big_aperture, table_pump(), vc=1.0, p_in=150.0)
        assert res.n_th == pytest.approx(big_aperture["n0"], rel=1e-9)
        cap = 0.6 * 0.85 * 808 / 980
        assert res.eta_s == pytest.approx(cap, rel=1e-9)
        assert res.p_beam == pytest.approx((150.0 - res.p_th) * cap, rel=1e-12)

    def test_matches_chained_oracles(self):
        geo, gm, pm = stable_geometry(), table_gain(), table_pump()
        res = gain_chain(geo, gm, pm, vc=0.99, p_in=150.0)
        # references written here and in abcd, none from the stage
        r1, r2, v = geo["r1"], geo["r2"], 0.99 * res.vd
        n_th = threshold_carrier_density(gm, r1, r2, v)
        tau = 1.0 / (gm["alpha"] + gm["beta"] * n_th + gm["auger"] * n_th**2)
        p_th = (gm["a_s"] * 6.6260693e-34 * 3e8 * gm["l"] * n_th
                / (LAMBDA_BEAM * pm["eta_pc"] * pm["eta_pa"] * tau))
        eta_s = (pm["eta_pc"] * pm["eta_pa"] * pm["lambda_pump"] / LAMBDA_BEAM
                 * math.log(r2) / math.log(r1 * r2 * v))
        assert res.n_th == pytest.approx(n_th, rel=1e-12)
        assert res.p_th == pytest.approx(p_th, rel=1e-12)
        assert res.eta_s == pytest.approx(eta_s, rel=1e-12)
        assert res.p_beam == pytest.approx((150.0 - p_th) * eta_s, rel=1e-12)

    def test_beam_power_monotone_in_input(self):
        geo, gm, pm = stable_geometry(), table_gain(), table_pump()
        powers = [gain_chain(geo, gm, pm, 0.99, p).p_beam
                  for p in np.linspace(0.0, 200.0, 30)]
        assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))

    def test_saturation_identity_holds_for_evaluated_configs(self):
        gm, pm = table_gain(), table_pump()
        for r2 in (0.8, 0.9, 0.95):
            geo2 = stable_geometry(r2=r2)
            res = gain_chain(geo2, gm, pm, 0.99, 100.0)
            v = res.v
            assert math.exp(2 * gm["gamma_conf"] * res.g_sat * gm["l"]) \
                * geo2["r1"] * r2 * v * v == pytest.approx(1.0, rel=1e-9)

    def test_overall_loss_product(self):
        geo, gm, pm = stable_geometry(), table_gain(), table_pump()
        vd = survival(geo, gm)
        # slope_loss_exponent is optional in the losses section
        res = evaluate_gain(geo, gm, pm, {"vc": 0.99}, 100.0, vd)
        assert res.vd == vd
        assert res.v == 0.99 * vd
        # vc * vd above 1 is no loss factor: vc > 1 never enters a Config
        cfg = get_preset("paper-2022")
        with pytest.raises(ConfigError, match=r"^losses\.vc = 1\.2 "):
            set_path(cfg, "losses.vc", 1.2)
        assert cfg["losses"] == get_preset("paper-2022")["losses"]

    def test_formulas_shared_with_stage_functions(self):
        # the stage's n_th and eta_b equal the oracles' formulas bit for
        # bit; the closed-form power law for n_th agrees only to ~1e-15
        gm, pm = table_gain(), table_pump()
        vd = survival(stable_geometry(), gm)
        rng = random.Random(41)
        for _ in range(300):
            geo = stable_geometry(r2=rng.uniform(0.8, 0.99))
            p_in = rng.choice((0.0, rng.uniform(0.0, 200.0)))
            losses = {"vc": rng.uniform(0.95, 1.0),
                      "slope_loss_exponent": rng.choice((1.0, 2.0))}
            res = evaluate_gain(geo, gm, pm, losses, p_in, vd)
            assert repr(res.n_th) == repr(threshold_carrier_density(
                gm, geo["r1"], geo["r2"], res.v))
            eta_b = (transmission_efficiency(p_in, res.p_th, res.eta_s)
                     if p_in > 0 else 0.0)
            assert repr(res.eta_b) == repr(eta_b)


class TestThresholdVersusThickness:
    def test_interior_minimum(self):
        # threshold power over the thickness range has an interior minimum:
        # thin layers need huge carrier densities, thick layers pump more
        # volume
        gm0, pm = table_gain(), table_pump()
        r1, r2, v = 0.999, 0.93, 0.99 * 0.9993
        grid = np.linspace(0.05e-6, 3e-6, 200)
        p_ths = []
        for l in grid:
            gm = {**gm0, "l": float(l)}
            p_ths.append(gain_stage(r1, r2, v, gm, pm).p_th)
        i_min = int(np.argmin(p_ths))
        assert 0 < i_min < len(grid) - 1
        assert p_ths[0] > p_ths[i_min] and p_ths[-1] > p_ths[i_min]


class TestValidation:
    def test_gain_model_rejects_nonpositive(self):
        # the range is checked where a value enters the Config, whose gain
        # section the gain stage reads as is
        cfg = get_preset("paper-2022")
        for value in (0.0, -3e-6):
            with pytest.raises(ConfigError, match=r"^gain\.l = "):
                set_path(cfg, "gain.l", value)
        assert cfg["gain"] == get_preset("paper-2022")["gain"]


def test_every_gain_result_carries_its_unit(monkeypatch):
    # the preset's sections as Q values of their SCHEMA kinds, through the
    # gain stage with its math shimmed for Q and its constants given their
    # units: each PowerResult field has the unit FIELD_UNITS gives it, and
    # the same float as without Q
    cfg = get_preset("paper-2022")
    plain = evaluate_operating_point(cfg)
    geometry, gain, pump, losses, link = (
        q_section(cfg, s) for s in ("geometry", "gain", "pump", "losses",
                                    "link"))
    units_shim(monkeypatch, gain_power)
    power = evaluate_gain(geometry, gain, pump, losses, link["p_in"],
                          Q(plain.vd))
    assert [unit_of(x) for x in power] == \
        [unit_of(Q(1.0, FIELD_DIMS[FIELD_UNITS[f]])) for f in POWER_UNITS]
    assert [value_of(x) for x in power] == list(plain.power)
