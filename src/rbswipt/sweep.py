"""Parameter sweeps, curve reduction, and derivative-free design search."""

from __future__ import annotations

import math
from collections import namedtuple
from operator import attrgetter

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

# golden-section fraction of a bracket, 1 - 1/phi
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
# stop width of a search, relative to its axis values and starting bracket
_TOL = 1e-6
_TINY = math.ulp(0.0)

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
    every stage.  A 1-D sweep is one model.line on spec.config, handed the
    axis's values in one call; a 2-D grid's rows, one line along axis 2
    each and each handed axis 2's values, share a copy of spec.config.
    spec.config and every axis value, one check_value call per axis, are
    checked against SCHEMA here, before any cell, and raise ConfigError
    when out of range; no cell checks a range again."""
    validate_config(spec.config)
    a1 = spec.axis1.values()
    a2 = spec.axis2.values() if spec.axis2 is not None else None
    check_value(spec.axis1.path, *a1)
    if a2 is not None:
        check_value(spec.axis2.path, *a2)
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
        points += line(row, axis.path, quantities, a2 is None)(values)
    return SweepResult(spec, a1, a2, points)


def reduce_max(result: SweepResult, quantity: str) -> list[float | None]:
    """Collapse a 2-axis sweep over axis 2: for each axis-1 value, the
    maximum of `quantity` among evaluated points, or None where the slice
    has none."""
    if result.axis2_values is None:
        raise ValueError("reduce_max needs a 2-axis sweep")
    n2, get = len(result.axis2_values), attrgetter(quantity)
    return [max((v for p in result.points[i:i + n2]
                 if p.status in _EVALUATED and (v := get(p)) is not None),
                default=None)
            for i in range(0, len(result.points), n2)]


def find_optimum(spec: SweepSpec, objective: str,
                 sense: str = "max") -> tuple[dict, float]:
    """Grid search over the axis, then, when the sweep is 1-D, refinement
    by Brent's method on the bracket of the grid winner's neighbours: one
    grid line and one probe line, each a model.line on spec.config, the
    probe line called on each probe as a batch of one.  The refinement
    stops once its best probe lies within 1e-6 * max(|a|, |b|, b0 - a0) of
    both ends of the bracket [a, b] narrowed from [a0, b0], so it refines
    an axis on any scale; a bracket spanning the floats, inf wide, keeps
    the grid winner.

    Returns ({path: value, ...}, objective value).  Grid ties break toward
    the lower value (the grid is scanned in increasing order and only
    strict improvements move the incumbent); refinement, kept unless it
    scores strictly lower, may move off a tie.  A probe outside the axis
    path's SCHEMA range scores like an unstable point, so it never wins."""
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    sign = 1.0 if sense == "max" else -1.0
    quantities, get = (objective,), attrgetter(objective)
    result = run_sweep(spec, quantities)

    def score(p: OperatingPoint) -> float:
        if p.status not in _EVALUATED or (v := get(p)) is None:
            return -math.inf
        return sign * v

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

    probe = line(spec.config, spec.axis1.path, quantities, one_axis=True)

    def f(x: float) -> float:
        # a probe between grid values may leave a range with gaps
        try:
            check_value(spec.axis1.path, x)
        except ConfigError:
            return -math.inf
        return score(*probe([x]))

    lo, hi = a1[max(best_idx - 1, 0)], a1[min(best_idx + 1, len(a1) - 1)]
    # a bracket spanning the floats is inf wide: it is not refined
    x_opt, s_opt = _brent(f, lo, hi) if hi - lo < math.inf else (lo, -math.inf)
    # keep the grid winner if refinement landed on a worse or unstable point
    if s_opt < best:
        x_opt, s_opt = a1[best_idx], best
    return {spec.axis1.path: x_opt}, sign * s_opt


def _brent(f, a: float, b: float) -> tuple[float, float]:
    """Maximize f on [a, b] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5): a parabola through the
    best three probes where it steps well inside the bracket, else a
    golden-section step.  Stops once the best probe x lies within the stop
    width, _TOL * max(|a|, |b|, b0 - a0), of both bracket ends, and returns
    (x, f(x)).  A probe that ties the best replaces it."""
    start_width = b - a
    x = w = v = a + _GOLDEN * start_width
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        # half the stop width, at least the smallest float
        tol = max(0.5 * _TOL * max(abs(a), abs(b), start_width), _TINY)
        m = 0.5 * a + 0.5 * b     # a + b may overflow
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        golden = True
        # a parabola through a non-finite score would compute nan
        if (abs(e) > tol and math.isfinite(fx) and math.isfinite(fw)
                and math.isfinite(fv)):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            # take the vertex if it lies inside the bracket and the step is
            # under half the step before last
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden, d = False, p / q
                if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                    d = math.copysign(tol, m - x)
        if golden:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
