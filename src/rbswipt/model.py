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
from .gain_power import PowerResult, evaluate_gain
from .ray_optics import (
    CavityError,
    diffraction_survival,
    one_trip_matrix,
    spot_radius_on_gain,
)
from .receiver import SwiptResult, evaluate_receiver

STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_SUB_THRESHOLD = "sub-threshold"
# a stable cavity evaluated through ray optics only
STATUS_STABLE = "stable"

# column name -> unit, for report/CSV emission, in OperatingPoint order
FIELD_UNITS = {
    "p_in": "W", "spot_radius": "m",
    "vd": "", "v": "", "g_sat": "m^-1", "n_th": "m^-3", "tau": "s",
    "p_th": "W", "eta_s": "", "p_beam": "W", "eta_b": "",
    "p_pv_in": "W", "p_apd_in": "W", "p_e_out_raw": "W", "p_e_out": "W",
    "eta_e": "", "i_d": "A", "n_thermal_sq": "A^2", "n_shot_sq": "A^2",
    "n_total_sq": "A^2", "c_tilde": "bit/s/Hz",
}

_RAY_OPTICS, _GAIN, _RECEIVER = 0, 1, 2

# stage each readable name needs: a field belongs to the stage whose record
# holds it; ok versus sub-threshold needs the gain
_STAGE = {"p_in": _RAY_OPTICS, "spot_radius": _RAY_OPTICS, "status": _GAIN,
          **dict.fromkeys(PowerResult._fields, _GAIN),
          **dict.fromkeys(SwiptResult._fields, _RECEIVER)}


class OperatingPoint(NamedTuple):
    """One evaluated link state.  All SI.  After status, p_in and
    spot_radius come the fields of PowerResult, then those of SwiptResult;
    fields of stages that did not run are None."""

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

    cfg must satisfy config.validate_config, as every Config made by
    parse_config, get_preset or set_path does; no range is checked here.
    """
    stage = _RECEIVER if quantities is None else max(
        map(_STAGE.__getitem__, quantities), default=_RAY_OPTICS)
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
            geometry, gain, pump, cfg["losses"]["vc"], p_in,
            diffraction_survival(gain.a, w),
            loss_exponent=int(cfg["losses"].get("slope_loss_exponent", 1)))
        swipt = (evaluate_receiver(power.p_beam, p_in, receiver)
                 if stage == _RECEIVER and p_in > 0 else ())
    except CavityError as e:
        return OperatingPoint(STATUS_UNSTABLE, p_in, detail=str(e))
    except (ValueError, ArithmeticError) as e:
        # the formula guards: on settings that pass SCHEMA they fail only
        # when an intermediate value leaves its numeric domain, as on float
        # overflow or an f2 = -f1 * M that underflows to 0
        raise ConfigError(f"settings outside the model's numeric domain: "
                          f"{e}") from None
    status = STATUS_OK if power.p_beam > 0 else STATUS_SUB_THRESHOLD
    return OperatingPoint(status, p_in, w, *power, *swipt)
