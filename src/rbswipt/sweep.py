"""Parameter sweeps, curve reduction, and derivative-free design search."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import (
    Config,
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
    evaluate_operating_point,
    prefix_quantities,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section bracket width at which a search stops
_TOL = 1e-6

# statuses whose operating point carries usable numbers
_EVALUATED = (STATUS_OK, STATUS_SUB_THRESHOLD, STATUS_STABLE)


class OptimizationError(Exception):
    """No stable operating point found in the search region."""


@dataclass(frozen=True)
class Axis:
    """One swept parameter: dotted path, inclusive range, grid resolution."""

    path: str
    lo: float
    hi: float
    count: int = 121
    spacing: str = "linear"

    def __post_init__(self):
        for name, v in (("lo", self.lo), ("hi", self.hi)):
            if not math.isfinite(v):
                raise ValueError(
                    f"axis {self.path}: {name} = {v} is not finite")
        if not self.lo < self.hi:
            raise ValueError(f"axis {self.path}: need lo < hi")
        if self.count < 2:
            raise ValueError(f"axis {self.path}: need count >= 2")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"axis {self.path}: unknown spacing {self.spacing}")
        if self.spacing == "log" and self.lo <= 0:
            raise ValueError(f"axis {self.path}: log spacing needs lo > 0")

    def values(self) -> list[float]:
        n = self.count
        if self.spacing == "log":
            la, lb = math.log(self.lo), math.log(self.hi)
            return [math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)]
        return [self.lo + (self.hi - self.lo) * i / (n - 1) for i in range(n)]


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: the Config swept and one or two axes on it."""

    config: Config
    axis1: Axis
    axis2: Axis | None = None

    def __post_init__(self):
        paths = {self.axis1.path, self.axis2 and self.axis2.path}
        if len(paths) == 1 or paths == {"geometry.f2",
                                        "geometry.tim_magnification"}:
            raise ValueError(f"axes {self.axis1.path} and {self.axis2.path} "
                             f"set the same parameter")


@dataclass
class SweepResult:
    """Evaluated grid.  Points are stored axis1-major: point (i, j) of a
    2-axis sweep sits at index i * len(axis2) + j."""

    spec: SweepSpec
    axis1_values: list[float]
    axis2_values: list[float] | None
    points: list[OperatingPoint]

    def statuses(self) -> list[str]:
        return [p.status for p in self.points]


def run_sweep(spec: SweepSpec, evaluate_fn=evaluate_operating_point,
              quantities=None) -> SweepResult:
    """Evaluate the model at every grid point, axis1-major.

    `quantities` names what the caller reads of each point and is passed to
    every `evaluate_fn(cfg, quantities)` call; None evaluates every stage.
    When model.prefix_quantities gives a prefix for axis 2's section, a row
    runs `up = evaluate_fn(row, prefix)` once and each cell the three-argument
    `evaluate_fn(cfg, quantities, up)`.  A cell's cfg holds its own copy of
    each swept section only: the other sections are shared with every cell and
    with spec.config, so `evaluate_fn` must not mutate cfg.  spec.config and
    every axis value are checked against SCHEMA here, before any cell, and
    raise ConfigError when out of range; no cell checks a range again."""
    validate_config(spec.config)
    a1 = spec.axis1.values()
    a2 = spec.axis2.values() if spec.axis2 is not None else None
    for axis, values in ((spec.axis1, a1), (spec.axis2, a2 or ())):
        for v in values:
            check_value(axis.path, v)
    # resolved on a copy, as resolving may drop an excluded key
    cfg = copy_config(spec.config)
    s1, k1 = resolve_path(cfg, spec.axis1.path)
    if a2 is not None:
        s2, k2 = resolve_path(cfg, spec.axis2.path)
    rows = [{**cfg, s1: {**cfg[s1], k1: v1}} for v1 in a1]
    if a2 is None:
        points = [evaluate_fn(row, quantities) for row in rows]
    elif (prefix := prefix_quantities(s2, quantities)) is None:
        points = [evaluate_fn({**row, s2: {**row[s2], k2: v2}}, quantities)
                  for row in rows for v2 in a2]
    else:   # up, the row's prefix point, is evaluated once per row
        points = [evaluate_fn({**r, s2: {**r[s2], k2: v}}, quantities, up)
                  for r in rows for up in [evaluate_fn(r, prefix)] for v in a2]
    return SweepResult(spec=spec, axis1_values=a1, axis2_values=a2,
                       points=points)


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


def find_optimum(spec: SweepSpec, objective: str, sense: str = "max",
                 evaluate_fn=evaluate_operating_point) -> tuple[dict, float]:
    """Grid search over the axis, then golden-section refinement along the
    axis when the sweep is one-dimensional.

    Returns ({path: value, ...}, objective value).  Ties break toward the
    lower parameter value (the grid is scanned in increasing order and only
    strict improvements move the incumbent).  A probe outside the axis
    path's SCHEMA range scores like an unstable point, so it never wins.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    sign = 1.0 if sense == "max" else -1.0
    quantities = (objective,)
    result = run_sweep(spec, evaluate_fn=evaluate_fn, quantities=quantities)

    def score(p: OperatingPoint) -> float:
        if p.status not in _EVALUATED or getattr(p, objective) is None:
            return -math.inf
        return sign * getattr(p, objective)

    best_idx, best = None, -math.inf
    for idx, p in enumerate(result.points):
        s = score(p)
        if s > best:
            best_idx, best = idx, s
    if best_idx is None or best == -math.inf:
        raise OptimizationError(
            f"no stable point for objective {objective!r} over "
            + " and ".join(a.path for a in (spec.axis1, spec.axis2) if a))

    a1 = result.axis1_values
    if spec.axis2 is not None:
        n2 = len(result.axis2_values)
        i, j = divmod(best_idx, n2)
        params = {spec.axis1.path: a1[i],
                  spec.axis2.path: result.axis2_values[j]}
        return params, sign * best

    cfg = copy_config(spec.config)
    section, key = resolve_path(cfg, spec.axis1.path)
    in_range = schema_entry(spec.axis1.path)[2]

    def f(x: float) -> float:
        # a probe between grid values may leave a range with gaps
        if not in_range(x):
            return -math.inf
        return score(evaluate_fn({**cfg, section: {**cfg[section], key: x}},
                                 quantities))

    lo = a1[max(best_idx - 1, 0)]
    hi = a1[min(best_idx + 1, len(a1) - 1)]
    x_opt, s_opt = _golden_section(f, lo, hi)
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
