"""Whole-link evaluation: one configuration in, one operating point out.

The chain has three stages: ray optics (the spot radius and whether the
cavity is stable), gain (beam power and whether the link is above
threshold) and receiver (harvested power and spectral efficiency).
`_CHAIN` is the one place their order, fields and entries live.
A caller that names the fields it reads runs only up to the deepest stage
those fields need; a line's later points resume from what its first point
lends them (`start_line`): nothing, the cavity up to lens f2, its ray
optics, or the whole point.
"""

from __future__ import annotations

from collections import namedtuple

from .config import Config, ConfigError
from .gain_power import POWER_UNITS, PowerResult, evaluate_gain
from .ray_optics import (
    CavityError,
    close_cavity,
    diffraction_survival,
    one_trip_matrix,
    open_cavity,
    spot_radius_on_gain,
)
from .receiver import SWIPT_UNITS, evaluate_receiver

STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_SUB_THRESHOLD = "sub-threshold"
# a stable cavity evaluated through ray optics only
STATUS_STABLE = "stable"

# the chain in order: each stage's name as errors print it, its fields
# (name -> unit, in OperatingPoint order) and the Config sections (or keys,
# where later than their section) it is the first to read.  Survival runs
# right after the spot radius: errors name it ray optics, its vd is gain's
_Stage = namedtuple("_Stage", "name units sections")
_CHAIN = (
    _Stage("ray optics", {"p_in": "W", "spot_radius": "m"}, ("geometry",)),
    _Stage("gain", POWER_UNITS, ("gain", "pump", "losses", "link",
                                 "geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS, ("receiver",)),
)
_RAY_OPTICS, _GAIN, _RECEIVER = range(len(_CHAIN))
# the keys only close_cavity reads: a line on one opens its cavity once
CLOSING = ("geometry.d3", "geometry.fr2")

# column name -> unit, for report/CSV emission, in OperatingPoint order
FIELD_UNITS = {f: unit for stage in _CHAIN for f, unit in stage.units.items()}
# stage each readable name needs; ok versus sub-threshold needs the gain
_STAGE = {"status": _GAIN, **{f: i for i, stage in enumerate(_CHAIN)
                              for f in stage.units}}
# stage at which each Config section, or key entering later, enters
_ENTRY = {s: i for i, stage in enumerate(_CHAIN) for s in stage.sections}
# an OperatingPoint's PowerResult: the gain's fields, after status and the
# ray-optics fields
_POWER = slice(1 + len(_CHAIN[_RAY_OPTICS].units),
               1 + len(_CHAIN[_RAY_OPTICS].units) + len(_CHAIN[_GAIN].units))

OperatingPoint = namedtuple(
    "OperatingPoint", ("status", *FIELD_UNITS, "detail"),
    defaults=(*[None] * (len(FIELD_UNITS) - 1), ""))
OperatingPoint.__doc__ = """One evaluated link state, all SI: status, the
FIELD_UNITS fields, then detail; fields of stages that did not run are None."""
# a point's fields after its ray optics and after its gain, as stages that
# did not run leave them: None each, then detail "".  Points are built with
# tuple.__new__, which skips the namedtuple's Python-level __new__
_AFTER_RAY = (None,) * (len(POWER_UNITS) + len(SWIPT_UNITS)) + ("",)
_AFTER_GAIN = (None,) * len(SWIPT_UNITS) + ("",)


def _entry(path: str) -> int:     # a dotted path's stage, or a section's
    return _ENTRY.get(path, _ENTRY[path.partition(".")[0]])


def upstream(path: str, point: OperatingPoint,
             one_axis: bool = False) -> OperatingPoint | None:
    """What a line that sets `path` resumes its later points from, given
    `point`, its first point: None when `path` enters at ray optics or the
    point is `unstable`, the point cut to its ray optics (status `stable`)
    when `path` enters at the gain, and the point itself when it enters at
    the receiver, whose cells read its status, spot radius and PowerResult."""
    entry = _entry(path)
    # a 1-D line (a 1-D sweep or search) lends at most ray optics: lent the
    # gain, fig 9's receiver line would skip ray optics, and CI pins traced
    # figures' ray_optics.calls to its cells until a benchmark change
    entry = min(entry, _GAIN) if one_axis else entry
    if entry == _RAY_OPTICS or point.status == STATUS_UNSTABLE:
        return None
    if entry == _GAIN:
        return OperatingPoint(STATUS_STABLE, point.p_in, point.spot_radius)
    return point


def start_line(cfg: Config, quantities, path: str, one_axis=False):
    """Evaluate a line's first point, `cfg`, and return it with what the
    line's later points resume from: on a key that only close_cavity reads
    (a d3 or fr2 line), the cavity up to lens f2, opened in this same call
    whatever the point's status; else what upstream() lends."""
    closing = path in CLOSING
    try:
        cavity = open_cavity(cfg["geometry"]) if closing else None
    except (ValueError, ArithmeticError):
        cavity = None   # evaluated without it, the point raises as it names
    point = evaluate_operating_point(cfg, quantities, cavity)
    return point, cavity if closing else upstream(path, point, one_axis)


def evaluate_operating_point(cfg: Config, quantities=None,
                             upstream=None) -> OperatingPoint:
    """Evaluate one Config through the stages `quantities` needs.

    `quantities` names the fields (and "status") the caller reads; None
    runs every stage.  Unstable resonators yield status "unstable" and no
    numeric fields but p_in.  Through the gain stage, the status is "ok" or
    "sub-threshold" (the full chain with zero beam power); a stable cavity
    evaluated through ray optics only has status "stable".  Raises
    ConfigError when the settings drive a stage outside its numeric domain.
    `upstream`, what start_line() lends, supplies the stages it ran: an
    open cavity (a RayTransferMatrix) is closed on cfg's d3 and fr2.

    cfg must satisfy config.validate_config, as every Config made by
    parse_config, get_preset or set_path does; no range is checked here.
    cfg is neither written nor kept: nothing returned refers to it, so a
    caller may set one Config in place between calls.
    """
    stage = _RECEIVER if quantities is None else _RAY_OPTICS
    for name in quantities or ():   # max(..., default=) is ~5x slower
        stage = _STAGE[name] if _STAGE[name] > stage else stage
    p_in, geometry = cfg["link"]["p_in"], cfg["geometry"]
    running = _RAY_OPTICS       # the stage a Python math error comes from
    try:
        lent = type(upstream) is OperatingPoint    # else None or a cavity
        if not lent or upstream.status == STATUS_STABLE:
            w = upstream.spot_radius if lent else spot_radius_on_gain(
                close_cavity(upstream, geometry) if upstream
                else one_trip_matrix(geometry), geometry["lambda_beam"])
            if stage == _RAY_OPTICS:
                return tuple.__new__(OperatingPoint,
                                     (STATUS_STABLE, p_in, w) + _AFTER_RAY)
            # diffraction survival, the ray optics of the gain aperture, runs
            # right after the spot radius: one ray-optics visit in traces
            gain = cfg["gain"]
            vd, running = diffraction_survival(gain["a"], w), _GAIN
            power, running = evaluate_gain(geometry, gain, cfg["pump"],
                                           cfg["losses"], p_in, vd), _RECEIVER
        else:
            w, running = upstream.spot_radius, _RECEIVER
            power = tuple.__new__(PowerResult, upstream[_POWER])
        swipt = (evaluate_receiver(power.p_beam, p_in, cfg["receiver"])
                 + ("",) if stage == _RECEIVER and p_in > 0 else _AFTER_GAIN)
    except CavityError as e:
        return tuple.__new__(OperatingPoint, (STATUS_UNSTABLE, p_in, None,
                                              *_AFTER_RAY[:-1], str(e)))
    except (ValueError, ArithmeticError) as e:
        # the formula guards: on settings that pass SCHEMA they fail only on
        # an intermediate value out of its domain (float overflow, f2 = -f1 *
        # M underflowing to 0); Python's own math errors get the stage named
        bare = isinstance(e, ArithmeticError) or str(e) == "math domain error"
        where = f" ({_CHAIN[running].name} stage)" if bare else ""
        raise ConfigError("settings outside the model's numeric domain: "
                          f"{e}{where}") from None
    status = STATUS_OK if power.p_beam > 0 else STATUS_SUB_THRESHOLD
    return tuple.__new__(OperatingPoint, (status, p_in, w, *power, *swipt))
