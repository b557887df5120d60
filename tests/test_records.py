"""Range checks of the four domain records: each out-of-range field raises
ValueError with its own message, and the telescope spacing defaults to the
afocal f1 + f2."""

import math

import pytest

from rbswipt.gain_power import GainModel, PumpModel
from rbswipt.ray_optics import ResonatorGeometry
from rbswipt.receiver import ReceiverModel

VALID = {
    ResonatorGeometry: dict(d1=20e-3, d2=20e-3, d3=10.0, f1=-5e-3, f2=60e-3,
                            r1=0.999, r2=0.9, lambda_beam=980e-9),
    GainModel: dict(g0=2e5, n0=1.7e24, gamma_conf=2.0, alpha=1e7, beta=1e-16,
                    auger=6e-42, l=3e-6, a_s=3e-8, a=0.2e-3),
    PumpModel: dict(eta_pc=0.6, eta_pa=0.85, lambda_pump=808e-9),
    ReceiverModel: dict(mu=0.99, eta_p=0.3487, p_pth=-1.535, nu=0.6,
                        b_x=811.7e6, i_bg=5100e-6, r_l=10e3, t_bg=300.0),
}

_SPACINGS = "element spacings d1, d2, d3 must be positive"
_FOCAL = "telescope focal lengths must be nonzero"

RANGE_CHECKS = [
    *((ResonatorGeometry, k, v, _SPACINGS)
      for k in ("d1", "d2", "d3") for v in (0.0, -1.0)),
    (ResonatorGeometry, "f1", 0.0, _FOCAL),
    (ResonatorGeometry, "f2", 0.0, _FOCAL),
    *((ResonatorGeometry, k, v, f"reflectivity {k}={v} outside (0, 1]")
      for k in ("r1", "r2") for v in (0.0, -0.5, 1.5)),
    (ResonatorGeometry, "lambda_beam", 0.0, "wavelength must be positive"),
    (ResonatorGeometry, "lambda_beam", -1e-6, "wavelength must be positive"),
    *((GainModel, k, v, f"GainModel.{k} must be strictly positive")
      for k in VALID[GainModel] for v in (0.0, -1.0)),
    *((PumpModel, k, v, f"PumpModel.{k}={v} outside (0, 1]")
      for k in ("eta_pc", "eta_pa") for v in (0.0, -0.5, 1.5)),
    (PumpModel, "lambda_pump", 0.0, "pump wavelength must be positive"),
    (PumpModel, "lambda_pump", -1e-6, "pump wavelength must be positive"),
    *((ReceiverModel, "mu", v, f"split ratio mu={v} outside [0, 1]")
      for v in (-0.1, 1.5)),
    *((ReceiverModel, k, v, f"ReceiverModel.{k} must be positive")
      for k in ("nu", "b_x", "r_l", "t_bg") for v in (0.0, -1.0)),
    (ReceiverModel, "i_bg", -1e-6, "background current must be >= 0"),
]


@pytest.mark.parametrize(
    "record, name, value, message", RANGE_CHECKS,
    ids=[f"{r.__name__}.{k}={v}" for r, k, v, _ in RANGE_CHECKS])
def test_out_of_range_field_raises(record, name, value, message):
    with pytest.raises(ValueError) as e:
        record(**{**VALID[record], name: value})
    assert str(e.value) == message


@pytest.mark.parametrize("record, name, value", [
    (ResonatorGeometry, "r1", 1.0), (ResonatorGeometry, "f2", -60e-3),
    (PumpModel, "eta_pa", 1.0), (ReceiverModel, "mu", 0.0),
    (ReceiverModel, "mu", 1.0), (ReceiverModel, "i_bg", 0.0),
    (ReceiverModel, "p_pth", 0.0)])
def test_range_edges_accepted(record, name, value):
    assert getattr(record(**{**VALID[record], name: value}), name) == value


def test_telescope_spacing_defaults_to_afocal():
    g = ResonatorGeometry(**VALID[ResonatorGeometry])
    assert repr(g.lt) == repr(-5e-3 + 60e-3)
    assert (g.fr1, g.fr2) == (math.inf, math.inf)
    explicit = ResonatorGeometry(**VALID[ResonatorGeometry], lt=0.1, fr2=18.0)
    assert (explicit.lt, explicit.fr2) == (0.1, 18.0)
