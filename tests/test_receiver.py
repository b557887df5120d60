import math
import random

import numpy as np
import pytest
from abcd import (
    FIELD_DIMS,
    KIND_DIMS,
    Q,
    q_section,
    unit_of,
    units_shim,
    value_of,
)

from rbswipt import receiver as receiver_module
from rbswipt.config import ConfigError, get_preset, set_path
from rbswipt.model import FIELD_UNITS, evaluate_operating_point
from rbswipt.receiver import BOLTZMANN, SWIPT_UNITS, evaluate_receiver

# the spectral-efficiency guard's message
NO_NOISE = "^total noise power must be positive$"


def paper_receiver(mu=0.99) -> dict:
    """The published receiver section of a Config, at split ratio mu."""
    return dict(mu=mu, eta_p=0.3487, p_pth=-1.535, nu=0.6, b_x=811.7e6,
                i_bg=5100e-6, r_l=10e3, t_bg=300.0)


def receiver_stage(p_beam: float, **keys):
    """evaluate_receiver for beam power p_beam at 1 W input, on the
    published receiver section with `keys` replaced."""
    return evaluate_receiver(p_beam, 1.0, {**paper_receiver(), **keys})


def split(p_beam: float, mu: float) -> tuple[float, float]:
    """The stage's (PV, APD) split of p_beam at split ratio mu."""
    res = receiver_stage(p_beam, mu=mu)
    return res.p_pv_in, res.p_apd_in


def pv(p_pv: float, eta_p: float, p_pth: float) -> tuple[float, float]:
    """The stage's (raw, clamped) PV output for p_pv on the PV converter:
    mu = 1 sends it the whole beam."""
    res = receiver_stage(p_pv, mu=1.0, eta_p=eta_p, p_pth=p_pth)
    assert repr(res.p_pv_in) == repr(p_pv)
    return res.p_e_out_raw, res.p_e_out


def apd(p_apd: float, nu: float) -> float:
    """The stage's APD photocurrent for p_apd on the APD: mu = 0 sends it
    the whole beam."""
    res = receiver_stage(p_apd, mu=0.0, nu=nu)
    assert res.p_apd_in == p_apd
    return res.i_d


def thermal(t: float, b_x: float, r_l: float) -> float:
    """The stage's thermal noise power at temperature t, bandwidth b_x and
    load r_l."""
    return receiver_stage(30.0, t_bg=t, b_x=b_x, r_l=r_l).n_thermal_sq


def shot(i_d: float, i_bg: float, b_x: float) -> float:
    """The stage's shot noise power for photocurrent i_d: the whole beam
    (i_d watts) reaches an APD of unit responsivity."""
    res = receiver_stage(i_d, mu=0.0, nu=1.0, i_bg=i_bg, b_x=b_x)
    assert res.i_d == i_d
    return res.n_shot_sq


def capacity(i_d: float, n_total_sq: float) -> float:
    """The stage's spectral efficiency for photocurrent i_d against total
    noise n_total_sq: i_bg = -i_d cancels the shot noise, and unit 4 k T
    and R_L make the thermal noise B_x = n_total_sq."""
    res = receiver_stage(i_d, mu=0.0, nu=1.0, i_bg=-i_d, r_l=1.0,
                         t_bg=1.0 / (4.0 * BOLTZMANN), b_x=n_total_sq)
    assert (res.i_d, res.n_total_sq) == (i_d, n_total_sq)
    return res.c_tilde


class TestSplitBeam:
    def test_all_to_pv(self):
        assert split(7.0, 1.0) == (7.0, 0.0)

    def test_half_split(self):
        assert split(10.0, 0.5) == (5.0, 5.0)

    def test_conservation(self):
        rng = random.Random(13)
        for _ in range(100):
            p = rng.uniform(0.0, 100.0)
            mu = rng.uniform(0.0, 1.0)
            p_pv, p_apd = split(p, mu)
            # apd is computed as the remainder, so the sum recovers the
            # input to within one rounding step
            assert p_pv + p_apd == pytest.approx(p, rel=1e-15)

    def test_out_of_range_mu(self):
        # the split ratio is checked where it enters the Config
        cfg = get_preset("paper-2022")
        with pytest.raises(ConfigError, match=r"^receiver\.mu = 1\.1 "):
            set_path(cfg, "receiver.mu", 1.1)
        assert cfg["receiver"]["mu"] == 0.99


class TestPvOutput:
    def test_zero_input_clamps(self):
        raw, clamped = pv(0.0, 0.3487, -1.535)
        assert raw == pytest.approx(-1.535)
        assert clamped == 0.0

    def test_linear_fit_at_50_watts(self):
        raw, _ = pv(50.0, 0.3487, -1.535)
        assert raw == pytest.approx(0.3487 * 50.0 - 1.535)
        assert raw == pytest.approx(15.9, abs=0.01)

    def test_linearity(self):
        r12, _ = pv(30.0 + 20.0, 0.3487, -1.535)
        r2, _ = pv(20.0, 0.3487, -1.535)
        assert r12 - r2 == pytest.approx(0.3487 * 30.0, rel=1e-12)

    @pytest.mark.parametrize("x", (-0.0, 0.0, 5e-324, -5e-324, math.inf,
                                   -math.inf, math.nan), ids=repr)
    def test_clamp_is_max_with_zero(self, x):
        # 1.0 * x + -0.0 is x bit for bit, -0.0 and nan included
        raw, clamped = pv(x, 1.0, -0.0)
        assert repr(raw) == repr(x)
        assert repr(clamped) == repr(max(0.0, x))


def eta_e(p_pv: float, p_in: float) -> float:
    """End-to-end efficiency of the published receiver fed p_pv watts: with
    mu = 1 the whole beam reaches the PV converter."""
    return evaluate_receiver(p_pv, p_in, paper_receiver(mu=1.0)).eta_e


class TestEndToEndEfficiency:
    def test_headline_ratio(self):
        # 16.5 W electrical at 150 W input -> 11 %
        p_pv = (16.5 + 1.535) / 0.3487
        assert eta_e(p_pv, 150.0) == pytest.approx(0.11, rel=1e-9)

    def test_negative_reported_unclamped(self):
        assert eta_e(0.0, 100.0) == pytest.approx(-0.01535)

    def test_inverse_scaling_in_input(self):
        e1 = eta_e(40.0, 100.0)
        e2 = eta_e(40.0, 200.0)
        assert e1 == pytest.approx(2 * e2, rel=1e-12)

    def test_zero_input_rejected(self):
        # eta_e = raw / p_in has no value at p_in = 0: the model runs the
        # receiver only for p_in > 0, so that point has no receiver fields
        cfg = get_preset("paper-2022")
        set_path(cfg, "link.p_in", 0.0)
        point = evaluate_operating_point(cfg)
        assert point.p_in == 0.0 and point.p_beam == 0.0
        assert all(getattr(point, f) is None for f in SWIPT_UNITS)


class TestApdCurrent:
    def test_zero(self):
        assert apd(0.0, 0.6) == 0.0

    def test_responsivity(self):
        assert apd(0.5, 0.6) == pytest.approx(0.3)

    def test_linearity(self):
        rng = random.Random(19)
        for _ in range(20):
            p = rng.uniform(0, 5)
            assert apd(2 * p, 0.6) == pytest.approx(2 * apd(p, 0.6),
                                                    rel=1e-12)


class TestThermalNoise:
    def test_reference_value(self):
        # 4 k T B / R with T=300 K, B=811.7 MHz, R=10 kOhm
        n = thermal(300.0, 811.7e6, 10e3)
        assert n == pytest.approx(1.3441752e-15, rel=1e-9)

    def test_bandwidth_scaling(self):
        assert thermal(300.0, 2 * 811.7e6, 10e3) == \
            pytest.approx(2 * thermal(300.0, 811.7e6, 10e3))

    def test_load_scaling(self):
        assert thermal(300.0, 811.7e6, 20e3) == \
            pytest.approx(0.5 * thermal(300.0, 811.7e6, 10e3))


class TestShotNoise:
    def test_background_only(self):
        n = shot(0.0, 5100e-6, 811.7e6)
        assert n == pytest.approx(1.3246944e-12, rel=1e-9)

    def test_linear_in_current(self):
        base = shot(0.0, 5100e-6, 811.7e6)
        n1 = shot(0.1, 5100e-6, 811.7e6) - base
        n2 = shot(0.2, 5100e-6, 811.7e6) - base
        assert n2 == pytest.approx(2 * n1, rel=1e-9)

    def test_zero_bandwidth(self):
        # no bandwidth, no noise at all: the stage names n_shot_sq, then
        # stops at the spectral-efficiency guard
        with pytest.raises(ValueError, match=NO_NOISE) as e:
            shot(0.1, 5100e-6, 0.0)
        assert e.traceback[-1].locals["n_shot_sq"] == 0.0


class TestSpectralEfficiency:
    def test_zero_current(self):
        assert capacity(0.0, 1e-12) == 0.0

    def test_half_bit_point(self):
        n_sq = 1e-12
        i_d = math.sqrt(2 * math.pi * math.e * n_sq)
        assert capacity(i_d, n_sq) == pytest.approx(0.5, rel=1e-12)

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError, match=NO_NOISE):
            capacity(0.1, 0.0)

    def test_full_chain_hand_oracle(self):
        # receiver chain for a 32.76 W beam at 100 W input, mu = 0.99
        p_beam = 32.76233662932146
        rm = paper_receiver()
        res = evaluate_receiver(p_beam, 100.0, rm)
        i_d = 0.6 * 0.01 * p_beam
        n_sq = (4 * 1.38e-23 * 300 * 811.7e6 / 10e3
                + 2 * 1.6e-19 * (i_d + 5100e-6) * 811.7e6)
        expect = 0.5 * math.log2(1 + i_d ** 2 / (2 * math.pi * math.e * n_sq))
        assert res.c_tilde == pytest.approx(expect, rel=1e-12)
        assert 12.0 < res.c_tilde < 19.0


class TestReceiverChain:
    def test_noise_sum_exact(self):
        res = evaluate_receiver(30.0, 100.0, paper_receiver())
        assert res.n_total_sq == res.n_thermal_sq + res.n_shot_sq

    def test_capacity_decreasing_in_mu(self):
        mus = np.linspace(0.0, 0.99, 34)
        caps = [evaluate_receiver(30.0, 100.0, paper_receiver(float(m))).c_tilde
                for m in mus]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_electrical_increasing_in_mu(self):
        mus = np.linspace(0.0, 1.0, 21)
        raws = [evaluate_receiver(30.0, 100.0,
                                  paper_receiver(float(m))).p_e_out_raw
                for m in mus]
        assert all(a < b for a, b in zip(raws, raws[1:]))

    def test_split_tradeoff(self):
        # pushing the split toward the PV end costs capacity sharply
        c99 = evaluate_receiver(30.0, 100.0, paper_receiver(0.99)).c_tilde
        c80 = evaluate_receiver(30.0, 100.0, paper_receiver(0.80)).c_tilde
        assert c99 < c80

    def test_capacity_increasing_in_current(self):
        n_sq = 1.3e-12
        grid = np.linspace(0.0, 0.5, 40)
        caps = [capacity(float(i), n_sq) for i in grid]
        assert all(a < b for a, b in zip(caps, caps[1:]))


def test_spectral_efficiency_is_shot_noise_limited():
    # the abstract's 18 bit/s/Hz against paper-2022's 16.35 at mu = 0 and
    # 150 W: shot noise outweighs thermal noise ~6e6-fold, so the SNR grows
    # only linearly in beam power, while both noise terms scale with b_x,
    # so a tenth of the bandwidth multiplies the SNR by 10 and adds
    # 0.5 log2(10) = 1.661 bit/s/Hz
    cfg = get_preset("paper-2022")
    set_path(cfg, "receiver.mu", 0.0)
    set_path(cfg, "link.p_in", 150.0)
    wide = evaluate_operating_point(cfg)
    assert wide.n_shot_sq / wide.n_thermal_sq > 1e6
    set_path(cfg, "receiver.b_x", cfg["receiver"]["b_x"] / 10)
    narrow = evaluate_operating_point(cfg)
    assert wide.c_tilde == pytest.approx(16.351, abs=1e-3)
    assert narrow.c_tilde == pytest.approx(18.012, abs=1e-3)
    assert narrow.c_tilde - wide.c_tilde == \
        pytest.approx(0.5 * math.log2(10), abs=1e-3)


def test_every_receiver_result_carries_its_unit(monkeypatch):
    # the preset's receiver section as Q values of their SCHEMA kinds and
    # the powers in W, through the receiver with its math shimmed for Q and
    # its constants given their units: each SwiptResult field has the unit
    # FIELD_UNITS gives it, and the same float as without Q
    cfg = get_preset("paper-2022")
    plain = evaluate_operating_point(cfg)
    watts = KIND_DIMS["power"]
    receiver = q_section(cfg, "receiver")
    units_shim(monkeypatch, receiver_module)
    swipt = evaluate_receiver(Q(plain.p_beam, watts), Q(plain.p_in, watts),
                              receiver)
    assert [unit_of(x) for x in swipt] == \
        [unit_of(Q(1.0, FIELD_DIMS[FIELD_UNITS[f]])) for f in SWIPT_UNITS]
    assert [value_of(x) for x in swipt] == list(plain.swipt)
