"""Whole-link evaluation: one configuration in, one operating point out.

The chain's stages run in order: the cavity opened up to lens f2, ray
optics (the spot radius and whether the cavity is stable), gain (beam
power and whether the link is above threshold) and receiver (harvested
power and spectral efficiency).  `_CHAIN` is the one place their order,
fields and entries live.  A caller that names the fields it reads runs
only up to the deepest stage those fields need.  A line (`line`)
evaluates a list of values of one key, and its later points resume from
what its first point lends them: the results of the stages before the
line's key enters, in chain order.  A point holds the gain's and the
receiver's records as the stages return them, and reads each of their
fields as an attribute.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

from .config import Config, ConfigError, resolve_path
from .gain_power import POWER_UNITS, PowerResult, evaluate_gain
from .ray_optics import (
    UnstableResonatorError,
    diffraction_survival,
    open_cavity,
    spot_radius_on_gain,
)
from .receiver import SWIPT_UNITS, SwiptResult, evaluate_receiver

STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_SUB_THRESHOLD = "sub-threshold"
# a stable cavity evaluated through ray optics only
STATUS_STABLE = "stable"

# the chain in order: each stage's name as errors print it, its fields
# (name -> unit, in record order) and the Config sections (or keys,
# where later than their section) it is the first to read.  Stage 0 opens
# the cavity up to lens f2, ray optics closes it on d3 and fr2.  Survival
# runs right after the spot radius: errors name it ray optics, its vd is gain's
_Stage = namedtuple("_Stage", "name units sections")
_CHAIN = (
    _Stage("ray optics", {}, ("geometry",)),
    _Stage("ray optics", {"p_in": "W", "spot_radius": "m"},
           ("geometry.d3", "geometry.fr2")),
    _Stage("gain", POWER_UNITS, ("gain", "pump", "losses", "link",
                                 "geometry.r1", "geometry.r2")),
    _Stage("receiver", SWIPT_UNITS, ("receiver",)),
)
_OPEN, _RAY_OPTICS, _GAIN, _RECEIVER = range(len(_CHAIN))

# column name -> unit, for report/CSV emission, in chain order
FIELD_UNITS = {f: unit for stage in _CHAIN for f, unit in stage.units.items()}
# stage each readable name needs; ok versus sub-threshold needs the gain
_STAGE = {"status": _GAIN, **{f: i for i, stage in enumerate(_CHAIN)
                              for f in stage.units}}
# stage at which each Config section, or key entering later, enters
_ENTRY = {s: i for i, stage in enumerate(_CHAIN) for s in stage.sections}
# the first stage a point of each status did not finish; an ok or
# sub-threshold point ran every stage before the receiver
_RAN = {STATUS_UNSTABLE: _RAY_OPTICS, STATUS_STABLE: _GAIN}
# the record of a stage that did not run: one shared record, every field None
_NO_POWER = PowerResult._make([None] * len(POWER_UNITS))
_NO_SWIPT = SwiptResult._make([None] * len(SWIPT_UNITS))

OperatingPoint = namedtuple(
    "OperatingPoint",
    ("status", *_CHAIN[_RAY_OPTICS].units, "power", "swipt", "reason"),
    defaults=(None, None, _NO_POWER, _NO_SWIPT, ()))
OperatingPoint.__doc__ = """One evaluated link state, all SI: status, the
ray-optics fields, the gain's PowerResult and the receiver's SwiptResult,
then reason.  Every FIELD_UNITS field reads as an attribute; a stage that
did not run leaves its fields None (its record the shared all-None one)."""
# each stage record's fields, read through the point
for _record, _units in (("power", POWER_UNITS), ("swipt", SWIPT_UNITS)):
    for _field in _units:
        setattr(OperatingPoint, _field,
                property(attrgetter(f"{_record}.{_field}")))
# an unstable point's reason is what its UnstableResonatorError was raised
# with, a format text and floats, and its detail that error's text, formatted
# when read; any other point's reason is () and its detail ""
OperatingPoint.detail = property(
    lambda p: str(UnstableResonatorError(*p.reason)) if p.reason else "")


def _entry(path: str) -> int:     # a dotted path's stage, or a section's
    return _ENTRY.get(path, _ENTRY[path.partition(".")[0]])


def line(cfg: Config, path: str, quantities, one_axis=False):
    """Return points(values): for a list of values in path's SCHEMA range,
    the points of `cfg` with `path` set to each, in order, through the
    stages `quantities` needs.  A sweep's row is one call; a search calls
    it once per probe, a batch of one, with values in any order.  cfg is
    validated and never written: the line takes its own copy of path's
    section, resolved for path (config.resolve_path drops the key it
    excludes), and shares the others, so a grid's rows may share every
    section they do not sweep.  points sets the key in place and evaluates
    each value once; the line's first point goes through start_line(), and
    every later one resumes from what that lends, capped for a 1-D line
    (`one_axis`).  quantities is cut, once, to the one name that decides
    the deepest stage."""
    quantities = quantities and (max(quantities, key=_STAGE.__getitem__),)
    section, _, key = path.partition(".")
    cell = {**cfg, section: dict(cfg[section])}
    resolve_path(cell, path)
    swept, lend = cell[section], None

    def points(values) -> list[OperatingPoint]:
        nonlocal lend
        out = []
        for value in values:
            swept[key] = value
            if lend is None:
                point, lend = start_line(cell, quantities, path, one_axis)
                out.append(point)
            else:
                out.append(evaluate_operating_point(cell, quantities, lend))
        return out
    return points


def start_line(cfg: Config, quantities, path: str, one_axis=False):
    """Evaluate a line's first point, `cfg`, and return it with what the
    line's later points resume from: the results of the stages before
    `path` enters, in chain order (the cavity up to lens f2, the spot
    radius, the PowerResult), cut to the stages the point ran, so an
    unstable point lends only its cavity.  The cavity is opened in this
    same call, whatever the point's status."""
    try:
        cavity = open_cavity(cfg["geometry"])
    except (ValueError, ArithmeticError):
        # evaluated alone, the point raises as it names
        return evaluate_operating_point(cfg, quantities, ()), ()
    point = evaluate_operating_point(cfg, quantities, (cavity,))
    entry = min(_entry(path), _RAN.get(point.status, _RECEIVER))
    # a 1-D line (a 1-D sweep or search) lends at most the spot radius: lent
    # the gain, fig 9's receiver line would skip ray optics, and CI pins
    # traced figures' ray_optics.calls to its cells until a benchmark change
    entry = min(entry, _GAIN) if one_axis else entry
    return point, (cavity, point.spot_radius, point.power)[:entry]


def evaluate_operating_point(cfg: Config, quantities=None,
                             upstream=()) -> OperatingPoint:
    """Evaluate one Config through the stages `quantities` needs.

    `quantities` names the fields (and "status") the caller reads; None
    runs every stage.  Unstable resonators yield status "unstable" and no
    numeric fields but p_in.  Through the gain stage, the status is "ok" or
    "sub-threshold" (the full chain with zero beam power); a stable cavity
    evaluated through ray optics only has status "stable".  Raises
    ConfigError when the settings drive a stage outside its numeric domain.
    `upstream`, what start_line() lends, holds the results of the chain's
    first stages, and the point resumes after them: the cavity, lent or
    opened here, is closed on cfg's d3 and fr2.

    cfg must satisfy config.validate_config, as every Config made by
    parse_config, get_preset or set_path does; no range is checked here.
    cfg is neither written nor kept: nothing returned refers to it, so a
    caller may set one Config in place between calls.
    """
    stage = _RECEIVER if quantities is None else _RAY_OPTICS
    for name in quantities or ():   # max(..., default=) is ~5x slower
        stage = _STAGE[name] if _STAGE[name] > stage else stage
    p_in, geometry = cfg["link"]["p_in"], cfg["geometry"]
    lent = len(upstream)
    running = _RAY_OPTICS       # the stage a Python math error comes from
    try:
        w = (upstream[_RAY_OPTICS] if lent > _RAY_OPTICS else
             spot_radius_on_gain(upstream[_OPEN] if lent else
                                 open_cavity(geometry), geometry))
        if stage == _RAY_OPTICS:
            return tuple.__new__(OperatingPoint, (STATUS_STABLE, p_in, w,
                                                  _NO_POWER, _NO_SWIPT, ()))
        if lent > _GAIN:
            power, running = upstream[_GAIN], _RECEIVER
        else:
            # survival, the ray optics of the gain aperture, runs right
            # after the spot radius: one ray-optics visit in traces
            gain = cfg["gain"]
            vd, running = diffraction_survival(gain["a"], w), _GAIN
            power, running = evaluate_gain(geometry, gain, cfg["pump"],
                                           cfg["losses"], p_in, vd), _RECEIVER
        swipt = (evaluate_receiver(power.p_beam, p_in, cfg["receiver"])
                 if stage == _RECEIVER and p_in > 0 else _NO_SWIPT)
    except UnstableResonatorError as e:
        return tuple.__new__(OperatingPoint, (STATUS_UNSTABLE, p_in, None,
                                              _NO_POWER, _NO_SWIPT, e.args))
    except (ValueError, ArithmeticError) as e:
        # the formula guards: on settings that pass SCHEMA they fail only on
        # an intermediate value out of its domain (float overflow, f2 = -f1 *
        # M underflowing to 0); Python's own math errors get the stage named
        bare = isinstance(e, ArithmeticError) or str(e) == "math domain error"
        where = f" ({_CHAIN[running].name} stage)" if bare else ""
        raise ConfigError("settings outside the model's numeric domain: "
                          f"{e}{where}") from None
    status = STATUS_OK if power.p_beam > 0 else STATUS_SUB_THRESHOLD
    return tuple.__new__(OperatingPoint, (status, p_in, w, power, swipt, ()))
