"""Parameter sweeps, curve reduction, and derivative-free design search."""

from __future__ import annotations

import math
from collections import namedtuple

from .config import (
    ConfigError,
    check_value,
    copy_config,
    resolve_path,
    schema_entry,
    validate_config,
)
from .model import (
    STATUS_OK,
    STATUS_STABLE,
    STATUS_SUB_THRESHOLD,
    OperatingPoint,
    line,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section bracket width at which a search stops
_TOL = 1e-6

# statuses whose operating point carries usable numbers
_EVALUATED = (STATUS_OK, STATUS_SUB_THRESHOLD, STATUS_STABLE)


class OptimizationError(Exception):
    """No stable operating point found in the search region."""


class Axis(namedtuple("Axis", "path lo hi count spacing")):
    """One swept parameter: dotted SCHEMA path, inclusive range, grid
    resolution and spacing ("linear" or "log").  Raises ConfigError for an
    unknown path or a range that makes no grid."""

    __slots__ = ()

    def __new__(cls, path, lo, hi, count=121, spacing="linear"):
        schema_entry(path)
        for name, v in (("lo", lo), ("hi", hi)):
            if not math.isfinite(v):
                raise ConfigError(f"axis {path}: {name} = {v} is not finite")
        if not lo < hi:
            raise ConfigError(f"axis {path}: need lo < hi")
        if count < 2:
            raise ConfigError(f"axis {path}: need count >= 2")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"axis {path}: unknown spacing {spacing}")
        if spacing == "log" and lo <= 0:
            raise ConfigError(f"axis {path}: log spacing needs lo > 0")
        # values() computes (hi - lo) * i for i up to count - 2
        if spacing == "linear" and count > 2 and not math.isfinite(
                (hi - lo) * (count - 2)):
            raise ConfigError(f"axis {path}: lo = {lo} and hi = {hi} "
                              f"overflow a linear grid of {count} values")
        return super().__new__(cls, path, lo, hi, count, spacing)

    def values(self) -> list[float]:
        """count grid values from lo to hi, both ends exactly as given
        (the rounded formula may land an ulp outside the range)."""
        lo, hi, n = self.lo, self.hi, self.count - 1
        if self.spacing == "log":
            la, lb = math.log(lo), math.log(hi)
            inner = (math.exp(la + (lb - la) * i / n) for i in range(1, n))
        else:
            inner = (lo + (hi - lo) * i / n for i in range(1, n))
        return [lo, *inner, hi]


class SweepSpec(namedtuple("SweepSpec", "config axis1 axis2")):
    """Grid description: the Config swept and one or two axes on it.
    Raises ConfigError for two axes that set one parameter."""

    __slots__ = ()

    def __new__(cls, config, axis1, axis2=None):
        paths = {axis1.path, axis2 and axis2.path}
        if len(paths) == 1 or paths == {"geometry.f2",
                                        "geometry.tim_magnification"}:
            raise ConfigError(f"axes {axis1.path} and {axis2.path} "
                              f"set the same parameter")
        return super().__new__(cls, config, axis1, axis2)


SweepResult = namedtuple(
    "SweepResult", "spec axis1_values axis2_values points")
SweepResult.__doc__ = """Evaluated grid.  Points are stored axis1-major:
point (i, j) of a 2-axis sweep sits at index i * len(axis2_values) + j;
axis2_values is None for a 1-axis sweep."""


def run_sweep(spec: SweepSpec, quantities=None) -> SweepResult:
    """Evaluate the model at every grid point, axis1-major.

    `quantities` names what the caller reads of each point; None evaluates
    every stage.  A 1-D sweep is one model.line on spec.config; a 2-D
    grid's rows, one line along axis 2 each, share a copy of spec.config.
    spec.config and every axis value are checked against SCHEMA here,
    before any cell, and raise ConfigError when out of range; no cell
    checks a range again."""
    validate_config(spec.config)
    a1 = spec.axis1.values()
    a2 = spec.axis2.values() if spec.axis2 is not None else None
    for axis, values in ((spec.axis1, a1), (spec.axis2, a2 or ())):
        for v in values:
            check_value(axis.path, v)
    # a line resolves its own key and writes no Config; a grid's rows set
    # axis 1 on a copy resolved for it, as resolving may drop an excluded key
    axis, values, rows = spec.axis1, a1, [spec.config]
    if a2 is not None:
        cfg = copy_config(spec.config)
        s1, k1 = resolve_path(cfg, spec.axis1.path)
        axis, values = spec.axis2, a2
        rows = [{**cfg, s1: {**cfg[s1], k1: v}} for v in a1]
    points = []
    for row in rows:
        points += map(line(row, axis.path, quantities, a2 is None), values)
    return SweepResult(spec, a1, a2, points)


def reduce_max(result: SweepResult, quantity: str) -> list[float | None]:
    """Collapse a 2-axis sweep over axis 2: for each axis-1 value, the
    maximum of `quantity` among evaluated points, or None where the slice
    has none."""
    if result.axis2_values is None:
        raise ValueError("reduce_max needs a 2-axis sweep")
    n2 = len(result.axis2_values)
    return [max((getattr(p, quantity) for p in result.points[i:i + n2]
                 if p.status in _EVALUATED
                 and getattr(p, quantity) is not None), default=None)
            for i in range(0, len(result.points), n2)]


def find_optimum(spec: SweepSpec, objective: str,
                 sense: str = "max") -> tuple[dict, float]:
    """Grid search over the axis, then golden-section refinement along it
    when the sweep is 1-D: one grid line and one probe line, each a
    model.line on spec.config.

    Returns ({path: value, ...}, objective value).  Grid ties break toward
    the lower value (the grid is scanned in increasing order and only
    strict improvements move the incumbent); refinement, kept unless it
    scores strictly lower, may move off a tie.  A probe outside the axis
    path's SCHEMA range scores like an unstable point, so it never wins."""
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    sign = 1.0 if sense == "max" else -1.0
    quantities = (objective,)
    result = run_sweep(spec, quantities)

    def score(p: OperatingPoint) -> float:
        if p.status not in _EVALUATED or getattr(p, objective) is None:
            return -math.inf
        return sign * getattr(p, objective)

    best_idx, best = None, -math.inf
    for idx, p in enumerate(result.points):
        s = score(p)
        if s > best:
            best_idx, best = idx, s
    if best_idx is None:
        raise OptimizationError(
            f"no stable point for objective {objective!r} over "
            + " and ".join(a.path for a in (spec.axis1, spec.axis2) if a))

    a1 = result.axis1_values
    if spec.axis2 is not None:
        i, j = divmod(best_idx, len(result.axis2_values))
        return ({spec.axis1.path: a1[i],
                 spec.axis2.path: result.axis2_values[j]}, sign * best)

    at = line(spec.config, spec.axis1.path, quantities, one_axis=True)

    def f(x: float) -> float:
        # a probe between grid values may leave a range with gaps
        try:
            check_value(spec.axis1.path, x)
        except ConfigError:
            return -math.inf
        return score(at(x))

    x_opt, s_opt = _golden_section(f, a1[max(best_idx - 1, 0)],
                                   a1[min(best_idx + 1, len(a1) - 1)])
    # keep the grid winner if refinement landed on a worse or unstable point
    if s_opt < best:
        x_opt, s_opt = a1[best_idx], best
    return {spec.axis1.path: x_opt}, sign * s_opt


def _golden_section(f, a: float, b: float) -> tuple[float, float]:
    """Maximize a unimodal f on [a, b] until the bracket is at most _TOL
    wide, relative to its ends where they exceed 1 in magnitude."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > _TOL * max(1.0, abs(a), abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)
