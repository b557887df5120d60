"""Ranges are checked where a value enters a Config, against SCHEMA only.

Every value a domain record's own check used to reject is rejected by
set_path with a ConfigError naming the path and SCHEMA's range text; the
range edges are accepted and reach the section a stage reads; a sweep
checks its axis values before any cell; open_cavity defaults the
telescope spacing to the afocal f1 + f2 and fr1 to inf, and the closing
in spot_radius_on_gain defaults fr2 to inf; no validated Config, drawn at
random, meets a condition the stages' former range guards rejected; and
every ok or sub-threshold point keeps to the energy budget."""

import math
import random

import pytest
from abcd import (
    closed_by_package,
    compose,
    free_space,
    one_trip,
    retro_reflector,
    thin_lens,
)

from rbswipt import model
from rbswipt.config import SCHEMA, ConfigError, get_preset, set_path
from rbswipt.model import evaluate_operating_point
from rbswipt.ray_optics import open_cavity
from rbswipt.sweep import Axis, SweepSpec, find_optimum, run_sweep

# case ids name each section after the per-stage record its ranges were
# first checked in; every stage now reads its section itself, and the names
# only keep the ids stable
READER = {"geometry": "ResonatorGeometry", "gain": "GainModel",
          "pump": "PumpModel", "receiver": "ReceiverModel"}

# the values the records' former range checks rejected
RANGE_CHECKS = [
    *(("geometry", k, v) for k in ("d1", "d2", "d3") for v in (0.0, -1.0)),
    ("geometry", "f1", 0.0),
    ("geometry", "f2", 0.0),
    *(("geometry", k, v) for k in ("r1", "r2") for v in (0.0, -0.5, 1.5)),
    ("geometry", "lambda_beam", 0.0),
    ("geometry", "lambda_beam", -1e-6),
    *(("gain", k, v) for k in SCHEMA["gain"] for v in (0.0, -1.0)),
    *(("pump", k, v) for k in ("eta_pc", "eta_pa") for v in (0.0, -0.5, 1.5)),
    ("pump", "lambda_pump", 0.0),
    ("pump", "lambda_pump", -1e-6),
    *(("receiver", "mu", v) for v in (-0.1, 1.5)),
    *(("receiver", k, v) for k in ("nu", "b_x", "r_l", "t_bg")
      for v in (0.0, -1.0)),
    ("receiver", "i_bg", -1e-6),
]

# values of keys that no record ever checked
SCHEMA_ONLY = [
    ("geometry.fr1", 0.0), ("geometry.fr2", -1.0),
    ("geometry.fr1", -math.inf), ("geometry.fr2", -math.inf),
    ("geometry.tim_magnification", 0.0),
    ("geometry.tim_magnification", math.inf), ("geometry.lt", math.nan),
    ("losses.vc", 1.5), ("losses.slope_loss_exponent", 3.0),
    ("receiver.eta_p", 0.0), ("receiver.p_pth", math.inf),
    ("link.p_in", -1.0), ("link.p_in", math.inf),
    ("geometry.f2", -math.inf), ("geometry.f1", math.nan),
]


def assert_rejected(path, value):
    cfg = get_preset("paper-2022")
    with pytest.raises(ConfigError) as e:
        set_path(cfg, path, value)
    section, _, key = path.partition(".")
    assert str(e.value) == \
        f"{path} = {value} out of range ({SCHEMA[section][key][2]})"
    assert cfg == get_preset("paper-2022")      # nothing was set or dropped


@pytest.mark.parametrize(
    "section, name, value", RANGE_CHECKS,
    ids=[f"{READER.get(s, s)}.{k}={v}" for s, k, v in RANGE_CHECKS])
def test_out_of_range_field_raises(section, name, value):
    assert_rejected(f"{section}.{name}", value)


@pytest.mark.parametrize("path, value", SCHEMA_ONLY,
                         ids=[f"{p}={v}" for p, v in SCHEMA_ONLY])
def test_set_path_rejects_out_of_range(path, value):
    assert_rejected(path, value)


def test_nonzero_range_text_names_finite():
    # the f1/f2 check also rejects +-inf and nan, and its text says so
    with pytest.raises(ConfigError) as e:
        set_path(get_preset("paper-2022"), "geometry.f1", math.inf)
    assert str(e.value) == "geometry.f1 = inf out of range (finite, nonzero)"


RANGE_EDGES = [
    ("geometry", "r1", 1.0), ("geometry", "f2", -60e-3),
    ("pump", "eta_pa", 1.0), ("receiver", "mu", 0.0),
    ("receiver", "mu", 1.0), ("receiver", "i_bg", 0.0),
    ("receiver", "p_pth", 0.0)]


@pytest.mark.parametrize(
    "section, name, value", RANGE_EDGES,
    ids=[f"{READER.get(s, s)}-{k}-{v}" for s, k, v in RANGE_EDGES])
def test_range_edges_accepted(section, name, value):
    cfg = get_preset("paper-2022")
    set_path(cfg, f"{section}.{name}", value)
    assert cfg[section][name] == value
    # no formula guard of the chain rejects an edge value
    evaluate_operating_point(cfg)


def no_cells(*args):
    raise AssertionError("a cell ran before its inputs were checked")


SEARCHES = (run_sweep, lambda spec: find_optimum(spec, "p_beam"))


@pytest.mark.parametrize("axis1, axis2, bad", [
    (Axis("geometry.r2", 0.5, 1.5, 5), None, "geometry.r2 = 1.25"),
    (Axis("link.p_in", 10.0, 50.0, 3), Axis("receiver.mu", -0.5, 0.5, 3),
     "receiver.mu = -0.5"),
], ids=["axis1", "axis2"])
def test_sweep_checks_axis_values_before_any_cell(axis1, axis2, bad,
                                                  monkeypatch):
    spec = SweepSpec(get_preset("paper-2022"), axis1, axis2)
    monkeypatch.setattr(model, "evaluate_operating_point", no_cells)
    for search in SEARCHES:
        with pytest.raises(ConfigError) as e:
            search(spec)
        assert str(e.value).startswith(f"{bad} out of range")


def test_sweep_checks_its_config_before_any_cell(monkeypatch):
    # a Config edited by hand has passed no check on its way in
    cfg = get_preset("paper-2022")
    cfg["receiver"]["mu"] = 1.5
    spec = SweepSpec(cfg, Axis("link.p_in", 10.0, 50.0, 3))
    monkeypatch.setattr(model, "evaluate_operating_point", no_cells)
    for search in SEARCHES:
        with pytest.raises(ConfigError) as e:
            search(spec)
        assert str(e.value).startswith("receiver.mu = 1.5 out of range")


VALID_GEOMETRY = dict(d1=20e-3, d2=20e-3, d3=10.0, f1=-5e-3, f2=60e-3,
                      r1=0.999, r2=0.9, lambda_beam=980e-9)


def test_telescope_spacing_defaults_to_afocal():
    section = dict(VALID_GEOMETRY)
    defaults = dict(VALID_GEOMETRY, lt=-5e-3 + 60e-3, fr1=math.inf,
                    fr2=math.inf)
    # flat M1 and M2 behind an afocal telescope: a degenerate cavity, which
    # keeps its one-trip entries; repr also tells -0.0 from 0.0
    kept = closed_by_package(open_cavity(section), section)
    assert repr(kept) == \
        repr(closed_by_package(open_cavity(defaults), defaults)) == \
        repr(tuple(one_trip(open_cavity(defaults), defaults)))
    assert section == VALID_GEOMETRY        # read, never written
    # given values win over the defaults
    given = dict(VALID_GEOMETRY, lt=0.1, fr2=18.0)
    explicit = one_trip(open_cavity(given), given)
    assert repr(explicit) == repr(compose(
        retro_reflector(math.inf), free_space(20e-3), free_space(20e-3),
        thin_lens(-5e-3), free_space(0.1), thin_lens(60e-3),
        free_space(10.0), retro_reflector(18.0)))


# the edges of every SCHEMA range and the largest floats; a draw is one of
# them or log-uniform over 1e-300..1e300, negated a quarter of the time
EDGES = (0.0, 1.0, 2.0, 5e-324, 1e300, 1.7976931348623157e308, math.inf)
PATHS = [f"{s}.{k}" for s, keys in SCHEMA.items() for k in keys]


def draw(rng):
    v = (rng.choice(EDGES) if rng.random() < 0.5
         else 10.0 ** rng.uniform(-300.0, 300.0))
    return -v if rng.random() < 0.25 else v


def test_no_validated_config_reaches_a_deleted_stage_guard():
    # the stages check no range: every value reaching them passed SCHEMA,
    # and none of the conditions the stages' former range guards rejected
    # holds, either on the Config or on the intermediate values it yields
    rng = random.Random(2021)
    seen = set()
    for _ in range(5000):
        cfg, drawn = get_preset("paper-2022"), []
        for path in rng.sample(PATHS, rng.randint(1, 4)):
            while True:
                value = draw(rng)
                try:
                    set_path(cfg, path, value)
                except ConfigError:
                    continue
                drawn.append((path, value))
                break
        g, gm, r = cfg["geometry"], cfg["gain"], cfg["receiver"]
        p_in = cfg["link"]["p_in"]
        assert all(map(math.isfinite, (g["d1"], g["d2"], g["d3"]))), drawn
        assert 0 < g["r1"] <= 1 and 0 < g["r2"] <= 1, drawn
        assert g.get("fr1", 1.0) != 0 and g.get("fr2", 1.0) != 0, drawn
        assert g["lambda_beam"] > 0 and gm["a"] >= 0 and gm["l"] > 0, drawn
        assert cfg["losses"].get("slope_loss_exponent", 1) in (1, 2), drawn
        assert p_in >= 0 and 0 <= r["mu"] <= 1 and r["i_bg"] >= 0, drawn
        assert min(r["t_bg"], r["b_x"], r["r_l"]) > 0, drawn
        try:
            p = evaluate_operating_point(cfg)
        except ConfigError as e:        # a kept numeric-domain guard
            seen.add("ConfigError")
            if "telescope spacing lt" in str(e):
                # open_cavity's one guard: only the derived spacing can fail
                f2 = (g["f2"] if "f2" in g
                      else -g["f1"] * g["tim_magnification"])
                assert "lt" not in g and not math.isfinite(g["f1"] + f2), drawn
                seen.add("lt")
            continue
        seen.add(p.status)
        if p.v is not None:
            assert 0 < p.v <= 1, drawn
            assert g["r1"] * g["r2"] * p.v * p.v <= 1, drawn
            assert not p.n_th < 0 and not p.p_beam < 0, drawn
        if p.p_pv_in is not None:
            assert p_in > 0, drawn
            assert not p.p_pv_in < 0 and not p.p_apd_in < 0, drawn
            assert not p.i_d < 0, drawn
        if p.status in ("ok", "sub-threshold"):
            # the energy budget, each bound to a relative 1e-12: the slope
            # efficiency is at most the pump's quantum-defect-limited
            # efficiency, a pump no longer than the beam's wavelength gives
            # no more beam power than p_in, and a PV converter of slope at
            # most 1 and no positive offset no more power than it receives
            pump, rel = cfg["pump"], 1.0 + 1e-12
            cap = (pump["eta_pc"] * pump["eta_pa"]
                   * (pump["lambda_pump"] / g["lambda_beam"]))
            assert p.eta_s <= cap * rel, drawn
            if pump["lambda_pump"] <= g["lambda_beam"]:
                assert p.p_beam <= p_in * rel, drawn
                if r["eta_p"] <= 1 and r["p_pth"] <= 0 and p_in > 0:
                    assert p.p_e_out <= r["mu"] * p.p_beam * rel, drawn
    # the draws reach every outcome of the chain
    assert seen == {"ok", "sub-threshold", "unstable", "ConfigError", "lt"}
