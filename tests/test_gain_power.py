import math
import random

import numpy as np
import pytest
from abcd import threshold_carrier_density, transmission_efficiency

from rbswipt.config import ConfigError, get_preset, set_path
from rbswipt.gain_power import (
    beam_power,
    carrier_lifetime,
    evaluate_gain,
    saturation_gain,
    slope_efficiency,
    threshold_power,
)
from rbswipt.ray_optics import (
    diffraction_survival,
    one_trip_matrix,
    spot_radius_on_gain,
)

LAMBDA_BEAM = 980e-9


def table_gain() -> dict:
    """The tabulated gain section of a Config."""
    return dict(g0=2e5, n0=1.7e24, gamma_conf=2.0, alpha=1e7, beta=1e-16,
                auger=6e-42, l=3e-6, a_s=3e-8, a=0.2e-3)


def table_pump() -> dict:
    """The tabulated pump section of a Config."""
    return dict(eta_pc=0.6, eta_pa=0.85, lambda_pump=808e-9)


class TestSaturationGain:
    def test_lossless_cavity(self):
        assert saturation_gain(1.0, 1.0, 1.0, 3e-6, 2.0) == 0.0

    def test_round_trip_identity(self):
        # exp(2 Gamma g l) * r1 r2 v^2 = 1 by construction
        rng = random.Random(17)
        for _ in range(50):
            r1 = rng.uniform(0.8, 1.0)
            r2 = rng.uniform(0.7, 1.0)
            v = rng.uniform(0.9, 1.0)
            l = rng.uniform(0.05e-6, 3e-6)
            gamma = rng.uniform(0.5, 2.5)
            g = saturation_gain(r1, r2, v, l, gamma)
            assert math.exp(2 * gamma * g * l) * r1 * r2 * v * v == \
                pytest.approx(1.0, rel=1e-9)

    def test_frozen_value(self):
        # independent closed-form evaluation: 9498.0506502881...
        g = saturation_gain(0.999, 0.93, 0.98, 3e-6, 2.0)
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
        assert carrier_lifetime(0.0, table_gain()) == pytest.approx(1e-7)

    def test_transparency_density(self):
        tau = carrier_lifetime(1.7e24, table_gain())
        assert tau == pytest.approx(5.0673963717441974e-09, rel=1e-12)

    def test_strictly_decreasing(self):
        gm = table_gain()
        grid = np.linspace(0.0, 5e24, 100)
        taus = [carrier_lifetime(float(n), gm) for n in grid]
        assert all(a > b for a, b in zip(taus, taus[1:]))


class TestThresholdPower:
    def test_linearity_in_cross_section(self):
        gm, pm = table_gain(), table_pump()
        gm2 = {**gm, "a_s": 2 * gm["a_s"]}
        p1 = threshold_power(gm, pm, 1.78e24, 4.8e-9, LAMBDA_BEAM)
        p2 = threshold_power(gm2, pm, 1.78e24, 4.8e-9, LAMBDA_BEAM)
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_full_chain_value(self):
        # hand chain N_th -> tau -> threshold, tens of watts regime
        gm, pm = table_gain(), table_pump()
        n_th = threshold_carrier_density(gm, 0.999, 0.93, 0.98)
        tau = carrier_lifetime(n_th, gm)
        p_th = threshold_power(gm, pm, n_th, tau, LAMBDA_BEAM)
        assert p_th == pytest.approx(13.230355716931989, rel=1e-12)
        assert 5 < p_th < 30

    def test_zero_lifetime_rejected(self):
        with pytest.raises(ValueError):
            threshold_power(table_gain(), table_pump(), 1e24, 0.0,
                            LAMBDA_BEAM)


class TestSlopeEfficiency:
    def test_output_coupling_only(self):
        pm = table_pump()
        eta = slope_efficiency(pm, 1.0, 0.93, 1.0, LAMBDA_BEAM)
        assert eta == pytest.approx(0.6 * 0.85 * 808 / 980, rel=1e-12)

    def test_frozen_value(self):
        eta = slope_efficiency(table_pump(), 0.999, 0.93, 0.98, LAMBDA_BEAM)
        assert eta == pytest.approx(0.32541288846516847, rel=1e-12)

    def test_bounds(self):
        pm = table_pump()
        cap = pm["eta_pc"] * pm["eta_pa"] * pm["lambda_pump"] / LAMBDA_BEAM
        rng = random.Random(31)
        for _ in range(50):
            eta = slope_efficiency(pm, rng.uniform(0.9, 0.9999),
                                   rng.uniform(0.7, 0.99),
                                   rng.uniform(0.9, 1.0), LAMBDA_BEAM)
            assert 0 < eta <= cap + 1e-15

    def test_loss_exponent_two(self):
        pm = table_pump()
        eta1 = slope_efficiency(pm, 0.999, 0.93, 0.98, LAMBDA_BEAM, 1)
        eta2 = slope_efficiency(pm, 0.999, 0.93, 0.98, LAMBDA_BEAM, 2)
        assert eta2 < eta1  # more loss in the denominator log

    def test_unity_product_rejected(self):
        with pytest.raises(ValueError):
            slope_efficiency(table_pump(), 1.0, 1.0, 1.0, LAMBDA_BEAM)


class TestBeamPower:
    def test_at_threshold(self):
        assert beam_power(10.0, 10.0, 0.3) == 0.0

    def test_below_threshold_clamped(self):
        assert beam_power(5.0, 10.0, 0.3) == 0.0

    def test_linear_above_threshold(self):
        assert beam_power(150.0, 10.0, 0.3) == pytest.approx(42.0)

    def test_piecewise_linear_slope(self):
        # finite differences above threshold recover eta_s
        p_th, eta_s = 13.0, 0.35
        for p in (20.0, 80.0, 140.0):
            d = (beam_power(p + 0.5, p_th, eta_s)
                 - beam_power(p - 0.5, p_th, eta_s))
            assert d == pytest.approx(eta_s, rel=1e-9)


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
    w = spot_radius_on_gain(one_trip_matrix(geo), geo["lambda_beam"])
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
        v = 0.99 * res.vd
        n_th = threshold_carrier_density(gm, geo["r1"], geo["r2"], v)
        tau = carrier_lifetime(n_th, gm)
        p_th = threshold_power(gm, pm, n_th, tau, LAMBDA_BEAM)
        eta_s = slope_efficiency(pm, geo["r1"], geo["r2"], v, LAMBDA_BEAM)
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
        # n_th and eta_b come from the public formulas, bit for bit; the
        # closed-form power law for n_th agrees with them only to ~1e-15
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
            n_th = threshold_carrier_density(gm, r1, r2, v)
            tau = carrier_lifetime(n_th, gm)
            p_ths.append(threshold_power(gm, pm, n_th, tau, LAMBDA_BEAM))
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
