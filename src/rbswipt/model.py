"""Whole-link evaluation: one configuration in, one operating point out.

The chain has three stages: ray optics (the spot radius and whether the
cavity is stable), gain (beam power and whether the link is above
threshold) and receiver (harvested power and spectral efficiency).  A
caller that names the fields it reads runs only up to the deepest stage
those fields need.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import (
    Config,
    ConfigError,
    build_gain,
    build_geometry,
    build_pump,
    build_receiver,
)
from .gain_power import evaluate_gain
from .ray_optics import (
    CavityError,
    diffraction_survival,
    one_trip_matrix,
    spot_radius_on_gain,
)
from .receiver import evaluate_receiver

STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_SUB_THRESHOLD = "sub-threshold"
# a stable cavity evaluated through ray optics only
STATUS_STABLE = "stable"

_RAY_OPTICS, _GAIN, _RECEIVER = 0, 1, 2

# column name -> (unit, stage that computes it), in OperatingPoint order
_FIELDS = {
    "p_in": ("W", _RAY_OPTICS), "spot_radius": ("m", _RAY_OPTICS),
    "vd": ("", _GAIN), "v": ("", _GAIN), "g_sat": ("m^-1", _GAIN),
    "n_th": ("m^-3", _GAIN), "tau": ("s", _GAIN), "p_th": ("W", _GAIN),
    "eta_s": ("", _GAIN), "p_beam": ("W", _GAIN), "eta_b": ("", _GAIN),
    "p_pv_in": ("W", _RECEIVER), "p_apd_in": ("W", _RECEIVER),
    "p_e_out_raw": ("W", _RECEIVER), "p_e_out": ("W", _RECEIVER),
    "eta_e": ("", _RECEIVER), "i_d": ("A", _RECEIVER),
    "n_thermal_sq": ("A^2", _RECEIVER), "n_shot_sq": ("A^2", _RECEIVER),
    "n_total_sq": ("A^2", _RECEIVER), "c_tilde": ("bit/s/Hz", _RECEIVER),
}

# column name -> unit, for report/CSV emission
FIELD_UNITS = {name: unit for name, (unit, _) in _FIELDS.items()}

# stage each readable name needs; ok versus sub-threshold needs the gain
_STAGE = {name: stage for name, (_, stage) in _FIELDS.items()}
_STAGE["status"] = _GAIN


class OperatingPoint(NamedTuple):
    """One evaluated link state.  All SI.  Fields of stages that did not
    run are None."""

    status: str
    p_in: float
    spot_radius: float | None = None
    vd: float | None = None
    v: float | None = None
    g_sat: float | None = None
    n_th: float | None = None
    tau: float | None = None
    p_th: float | None = None
    eta_s: float | None = None
    p_beam: float | None = None
    eta_b: float | None = None
    p_pv_in: float | None = None
    p_apd_in: float | None = None
    p_e_out_raw: float | None = None
    p_e_out: float | None = None
    eta_e: float | None = None
    i_d: float | None = None
    n_thermal_sq: float | None = None
    n_shot_sq: float | None = None
    n_total_sq: float | None = None
    c_tilde: float | None = None
    detail: str = ""


def evaluate_operating_point(cfg: Config,
                             quantities=None) -> OperatingPoint:
    """Evaluate one Config through the stages `quantities` needs.

    `quantities` names the fields (and "status") the caller reads; None
    runs every stage.  Unstable resonators yield status "unstable" and no
    numeric fields but p_in.  Through the gain stage, the status is "ok" or
    "sub-threshold" (the full chain with zero beam power); a stable cavity
    evaluated through ray optics only has status "stable".  Raises
    ConfigError when the settings drive a stage outside its numeric domain.
    """
    stage = _RECEIVER if quantities is None else max(
        (_STAGE[q] for q in quantities), default=_RAY_OPTICS)
    p_in = cfg["link"]["p_in"]
    try:
        # every domain object is built up front, so that each stage below
        # is one contiguous step through its layer in per-layer traces
        geometry = build_geometry(cfg)
        if stage >= _GAIN:
            gain, pump = build_gain(cfg), build_pump(cfg)
        if stage == _RECEIVER:
            receiver = build_receiver(cfg)
        w = spot_radius_on_gain(one_trip_matrix(geometry),
                                geometry.lambda_beam)
        if stage == _RAY_OPTICS:
            return OperatingPoint(STATUS_STABLE, p_in, w)
        # diffraction survival, the ray optics of the gain aperture, is
        # called right after the spot radius for the same reason
        power = evaluate_gain(
            geometry, gain, pump, cfg["losses"]["vc"], p_in, w,
            diffraction_survival(gain.a, w),
            loss_exponent=int(cfg["losses"].get("slope_loss_exponent", 1)))
        fields = dict(
            status=STATUS_OK if power.p_beam > 0 else STATUS_SUB_THRESHOLD,
            p_in=p_in, spot_radius=w, vd=power.losses.vd, v=power.losses.v,
            g_sat=power.g_sat, n_th=power.n_th, tau=power.tau,
            p_th=power.p_th, eta_s=power.eta_s, p_beam=power.p_beam,
            eta_b=power.eta_b,
        )
        if stage == _RECEIVER and p_in > 0:
            swipt = evaluate_receiver(power.p_beam, p_in, receiver)
            fields.update(
                p_pv_in=swipt.p_pv_in, p_apd_in=swipt.p_apd_in,
                p_e_out_raw=swipt.p_e_out_raw, p_e_out=swipt.p_e_out,
                eta_e=swipt.eta_e, i_d=swipt.i_d,
                n_thermal_sq=swipt.n_thermal_sq, n_shot_sq=swipt.n_shot_sq,
                n_total_sq=swipt.n_total_sq, c_tilde=swipt.c_tilde,
            )
    except CavityError as e:
        return OperatingPoint(STATUS_UNSTABLE, p_in, detail=str(e))
    except (ValueError, ArithmeticError) as e:
        # each stage checks its inputs; on settings that pass SCHEMA a
        # check fails only when an intermediate value leaves its domain,
        # as on float overflow
        raise ConfigError(f"settings outside the model's numeric domain: "
                          f"{e}") from None
    return OperatingPoint(**fields)
