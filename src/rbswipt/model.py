"""Whole-link evaluation: one configuration in, one operating point out.

The chain has three stages: ray optics (the spot radius and whether the
cavity is stable), gain (beam power and whether the link is above
threshold) and receiver (harvested power and spectral efficiency).  A
caller that names the fields it reads runs only up to the deepest stage
those fields need.
"""

from __future__ import annotations

from collections import namedtuple

from .config import Config, ConfigError
from .gain_power import POWER_UNITS, evaluate_gain
from .ray_optics import (
    CavityError,
    diffraction_survival,
    one_trip_matrix,
    spot_radius_on_gain,
)
from .receiver import SWIPT_UNITS, evaluate_receiver

STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_SUB_THRESHOLD = "sub-threshold"
# a stable cavity evaluated through ray optics only
STATUS_STABLE = "stable"

# column name -> unit, for report/CSV emission, in OperatingPoint order
FIELD_UNITS = {"p_in": "W", "spot_radius": "m", **POWER_UNITS, **SWIPT_UNITS}

_RAY_OPTICS, _GAIN, _RECEIVER = 0, 1, 2

# stage each readable name needs: a field belongs to the stage whose record
# holds it; ok versus sub-threshold needs the gain
_STAGE = {"p_in": _RAY_OPTICS, "spot_radius": _RAY_OPTICS, "status": _GAIN,
          **dict.fromkeys(POWER_UNITS, _GAIN),
          **dict.fromkeys(SWIPT_UNITS, _RECEIVER)}


OperatingPoint = namedtuple(
    "OperatingPoint", ("status", *FIELD_UNITS, "detail"),
    defaults=(*[None] * (len(FIELD_UNITS) - 1), ""))
OperatingPoint.__doc__ = """One evaluated link state, all SI: status, the
FIELD_UNITS fields, then detail; fields of stages that did not run are None."""


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
    stage = _RECEIVER if quantities is None else _RAY_OPTICS
    for name in quantities or ():   # max(..., default=) is ~5x slower
        stage = _STAGE[name] if _STAGE[name] > stage else stage
    p_in, geometry = cfg["link"]["p_in"], cfg["geometry"]
    running = "ray optics"      # the stage a Python math error comes from
    try:
        w = spot_radius_on_gain(one_trip_matrix(geometry),
                                geometry["lambda_beam"])
        if stage == _RAY_OPTICS:
            return OperatingPoint(STATUS_STABLE, p_in, w)
        # diffraction survival, the ray optics of the gain aperture, runs
        # right after the spot radius: one ray-optics visit in traces
        gain = cfg["gain"]
        vd, running = diffraction_survival(gain["a"], w), "gain"
        power, running = evaluate_gain(geometry, gain, cfg["pump"],
                                       cfg["losses"], p_in, vd), "receiver"
        swipt = (evaluate_receiver(power.p_beam, p_in, cfg["receiver"])
                 if stage == _RECEIVER and p_in > 0 else ())
    except CavityError as e:
        return OperatingPoint(STATUS_UNSTABLE, p_in, detail=str(e))
    except (ValueError, ArithmeticError) as e:
        # the formula guards: on settings that pass SCHEMA they fail only on
        # an intermediate value out of its domain (float overflow, f2 = -f1 *
        # M underflowing to 0); Python's own math errors get the stage named
        bare = isinstance(e, ArithmeticError) or str(e) == "math domain error"
        raise ConfigError(f"settings outside the model's numeric domain: {e}"
                          + (f" ({running} stage)" if bare else "")) from None
    status = STATUS_OK if power.p_beam > 0 else STATUS_SUB_THRESHOLD
    return OperatingPoint(status, p_in, w, *power, *swipt)
