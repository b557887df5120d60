"""Reference ABCD library and oracles the tests check the package against.

Written independently of the fused code paths in `rbswipt`: element
matrices multiplied one by one, the round trip, the self-consistent
Gaussian mode, and the gain-stage formulas spelled out from the model's
equations (none of them calls rbswipt.gain_power).  Nothing in the package
imports this module.  The matrix record is defined here, not in the
package, which hands out its matrices as plain tuples of floats; the
reference closing turns the package's opened cavity into a one-trip
record, and a reader hands a bare matrix to the package's spot radius.
Q, the units oracle, carries a value with its dimension through the
package's formulas.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

from rbswipt import ray_optics
from rbswipt.config import SCHEMA, Config, ConfigError
from rbswipt.ray_optics import UnstableResonatorError


@dataclass(frozen=True)
class RayVector:
    """Transverse ray state: position x (m) and paraxial angle theta (rad)."""

    x: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.theta)):
            raise ValueError("ray vector components must be finite")


class RayTransferMatrix(namedtuple("RayTransferMatrix", "a b c d")):
    """2x2 ray-transfer matrix with entries a (dimensionless), b (m), c
    (1/m) and d (dimensionless), its product and its action on a ray; the
    package hands out the same entries as a plain tuple of floats."""

    __slots__ = ()

    def __str__(self):
        return ray_optics._MATRIX.format(*self)

    def __matmul__(self, other: "RayTransferMatrix") -> "RayTransferMatrix":
        return RayTransferMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, r: RayVector) -> RayVector:
        return RayVector(self.a * r.x + self.b * r.theta,
                         self.c * r.x + self.d * r.theta)


IDENTITY = RayTransferMatrix(1.0, 0.0, 0.0, 1.0)


def det(m: RayTransferMatrix) -> float:
    """Determinant a d - b c of a ray-transfer matrix."""
    return m.a * m.d - m.b * m.c


def compose(*matrices: RayTransferMatrix) -> RayTransferMatrix:
    """Product of matrices in the order a ray encounters the elements.

    The first argument is the first element hit, i.e. compose(m1, m2, m3)
    returns m3 @ m2 @ m1.
    """
    out = IDENTITY
    for m in matrices:
        out = m @ out
    return out


def free_space(distance: float) -> RayTransferMatrix:
    """Translation over `distance` meters.  Negative distances are legal
    (they arise for telescope assemblies with negative lens spacing)."""
    if not math.isfinite(distance):
        raise ValueError(f"free-space distance must be finite, got {distance}")
    return RayTransferMatrix(1.0, distance, 0.0, 1.0)


def thin_lens(f: float) -> RayTransferMatrix:
    """Thin lens of focal length f (m), of power -1/f.  f may be negative
    (diverging) or infinite (a flat window: power -1/f, a signed zero)."""
    if f == 0:
        raise ValueError("thin lens focal length must be nonzero")
    return RayTransferMatrix(1.0, 0.0, -1.0 / f, 1.0)


def reflector_matrix(f: float, d: float) -> RayTransferMatrix:
    """Cat-eye reflector: lens of focal length f with a flat mirror at
    distance d behind it, traversed out and back.

    Equals [[-1, 0], [1/f_r, -1]] with f_r = f^2 / (2 (d - f)).  At d = f the
    mirror sits in the focal plane, f_r is infinite, and the reflector is an
    ideal retro-reflector (-I).
    """
    if f == 0:
        raise ValueError("reflector lens focal length must be nonzero")
    if d < 0:
        raise ValueError(f"lens-to-mirror distance must be >= 0, got {d}")
    if d == f:
        return RayTransferMatrix(-1.0, 0.0, 0.0, -1.0)
    f_r = f * f / (2.0 * (d - f))
    return RayTransferMatrix(-1.0, 0.0, 1.0 / f_r, -1.0)


def retro_reflector(f_r: float = math.inf) -> RayTransferMatrix:
    """Reflector expressed directly by its effective curvature factor f_r.

    f_r = inf gives the ideal retro-reflector -I (1/f_r is a signed zero).
    """
    if f_r == 0:
        raise ValueError("effective curvature factor must be nonzero")
    return RayTransferMatrix(-1.0, 0.0, 1.0 / f_r, -1.0)


def tim_matrix(f1: float, f2: float, lt: float) -> RayTransferMatrix:
    """Two-lens telescope: lens f1, spacing lt, lens f2 (in traversal order).

    When lt = f1 + f2 the assembly is afocal and equals
    [[1/M, lt], [0, M]] with M = -f1/f2.
    """
    return compose(thin_lens(f1), free_space(lt), thin_lens(f2))


def one_trip(opened, geometry: dict) -> RayTransferMatrix:
    """The reference closing: `opened`, the entries open_cavity returns,
    as a record, then free space d3 and retro-reflector fr2 (default inf)
    of a Config's geometry section, multiplied element by element.  The
    package closes the cavity only inside spot_radius_on_gain."""
    return compose(RayTransferMatrix(*opened), free_space(geometry["d3"]),
                   retro_reflector(geometry.get("fr2", math.inf)))


def spot_radius_of(m: RayTransferMatrix, lam: float) -> float:
    """The package's spot radius of a bare one-trip matrix m at wavelength
    lam: closing is linear, and d3 = 0 with fr2 = inf closes the cavity -m
    to m (signed zeros aside)."""
    return ray_optics.spot_radius_on_gain(
        [-x for x in m], {"d3": 0.0, "lambda_beam": lam})


def closed_by_package(opened, geometry: dict):
    """What the package's one closing, inside spot_radius_on_gain, makes
    of `opened` on a Config's geometry section: the spot radius, or the
    floats its UnstableResonatorError kept (an unstable cavity's radicand,
    then the one-trip entries A, B, C, D)."""
    try:
        return ray_optics.spot_radius_on_gain(opened, geometry)
    except UnstableResonatorError as e:
        return e.args[1:]


def cavity(geometry: dict) -> dict:
    """The element values of a Config's geometry section: a copy with f2 =
    -f1 * tim_magnification when f2 is absent, the afocal spacing lt = f1 +
    f2 and ideal retro-reflectors fr1 = fr2 = inf where those are absent."""
    g = dict(geometry)
    if "f2" not in g:
        g["f2"] = -g["f1"] * g["tim_magnification"]
    g.setdefault("lt", g["f1"] + g["f2"])
    g.setdefault("fr1", math.inf)
    g.setdefault("fr2", math.inf)
    return g


def one_trip_elements(g: dict) -> list[RayTransferMatrix]:
    """The one-trip elements of a cavity() section `g`, in the order a ray
    meets them from M1: fr1, d1, d2, f1, lt, f2, d3, fr2.  The first six
    make the cavity up to lens f2, the part that d3 and fr2 do not reach."""
    return [retro_reflector(g["fr1"]), free_space(g["d1"]),
            free_space(g["d2"]), thin_lens(g["f1"]), free_space(g["lt"]),
            thin_lens(g["f2"]), free_space(g["d3"]), retro_reflector(g["fr2"])]


def d3_factors(geometry: dict) -> list[tuple[float, float]]:
    """The four affine functions of d3 whose signs decide where along d3 a
    Config's geometry section is stable, each as (value at d3 = 0, slope).

    With (a, b, c, d) the compose-built product up to lens f2 and c2 =
    1/fr2, the one-trip matrix at d3 is A = -(a + c d3), B = -(b + d d3),
    C = c2 (a + c d3) - c and D = c2 (b + d d3) - d; the factors are -A,
    -B, C and D, so A B C D is their product."""
    g = cavity(geometry)
    a, b, c, d = compose(*one_trip_elements(g)[:6])
    c2 = 1.0 / g["fr2"]
    return [(a, c), (b, d), (c2 * a - c, c2 * c), (c2 * b - d, c2 * d)]


def d3_roots(geometry: dict) -> list[float]:
    """The d3 > 0 at which one of the d3_factors vanishes, ascending."""
    return sorted({-v / s for v, s in d3_factors(geometry)
                   if s != 0 and -v / s > 0})


def stable_d3_intervals(geometry: dict) -> list[tuple[float, float]]:
    """Open d3 intervals (m), over d3 > 0, on which a Config's geometry
    section is stable, in closed form.

    The spot-radius radicand -lam^2 B D / (pi^2 A C) is negative where
    A B C D > 0 and undefined (a degenerate cavity) where A C = 0, so the
    cavity is stable where A C != 0 and A B C D <= 0.  Between consecutive
    d3_roots each factor keeps one sign: a constant factor (zero slope, as
    c = 0 makes for an afocal telescope behind a flat M1) its value's, any
    other its slope's right of its root and the opposite left of it.
    Stable neighbours stay two intervals; their common end is a root."""
    factors = d3_factors(geometry)
    edges = [0.0, *d3_roots(geometry), math.inf]
    stable = []
    for lo, hi in zip(edges, edges[1:]):
        alpha, beta, gamma, delta = (
            (v > 0) - (v < 0) if s == 0
            else ((s > 0) - (s < 0)) * (1 if -v / s <= lo else -1)
            for v, s in factors)
        if alpha * gamma != 0 and alpha * beta * gamma * delta <= 0:
            stable.append((lo, hi))
    return stable


def round_trip_matrix(geometry: dict) -> RayTransferMatrix:
    """Full round trip starting and ending at M1 of a Config's geometry
    section, the input of the self-consistent Gaussian-mode oracle."""
    g = cavity(geometry)
    forward = compose(
        free_space(g["d1"]),
        free_space(g["d2"]),
        thin_lens(g["f1"]),
        free_space(g["lt"]),
        thin_lens(g["f2"]),
        free_space(g["d3"]),
    )
    backward = compose(
        free_space(g["d3"]),
        thin_lens(g["f2"]),
        free_space(g["lt"]),
        thin_lens(g["f1"]),
        free_space(g["d2"]),
        free_space(g["d1"]),
    )
    return compose(forward, retro_reflector(g["fr2"]), backward,
                   retro_reflector(g["fr1"]))


def spot_radius_q_oracle(m_round: RayTransferMatrix, lam: float) -> float:
    """Self-consistent Gaussian-beam spot radius from a round-trip matrix.

    Solves C q^2 + (D - A) q - B = 0 for the complex beam parameter with
    positive imaginary part, then w^2 = -lam / (pi * Im(1/q)).  Raises
    UnstableResonatorError when no confined solution exists.
    """
    a, b, c, d = m_round.a, m_round.b, m_round.c, m_round.d
    disc = (d - a) ** 2 + 4.0 * b * c
    if disc < 0 and c != 0:
        sq = complex(0.0, math.sqrt(-disc))
        for root in ((a - d) + sq, (a - d) - sq):
            q = root / (2.0 * c)
            if q.imag > 0:
                inv_im = (1.0 / q).imag
                return math.sqrt(-lam / (math.pi * inv_im))
    raise UnstableResonatorError("no confined Gaussian mode: discriminant "
                                 "{:.6g} for round-trip matrix "
                                 + ray_optics._MATRIX, disc, *m_round)


def threshold_carrier_density(gain: dict, r1: float, r2: float,
                              v: float) -> float:
    """Carrier density (m^-3) needed to reach the saturation gain, for a
    Config's gain section:
    N_th = N0 exp(g_sat / g0) = N0 (r1 r2 v^2) ** (-1 / (2 g0 l Gamma)),
    with g_sat = -ln(r1 r2 v^2) / (2 Gamma l) the gain at which round-trip
    gain balances round-trip loss."""
    g_sat = -math.log(r1 * r2 * v * v) / (2.0 * gain["gamma_conf"] * gain["l"])
    return gain["n0"] * math.exp(g_sat / gain["g0"])


def transmission_efficiency(p_in: float, p_th: float, eta_s: float) -> float:
    """Beam transmission efficiency p_beam / p_in, clamped at zero below
    threshold."""
    if p_in <= 0:
        raise ValueError("input power must be positive")
    return max(0.0, (p_in - p_th) * eta_s) / p_in


def get_path(cfg: Config, path: str) -> float:
    """Value of a dotted parameter path; ConfigError when it is absent."""
    section, _, key = path.partition(".")
    try:
        return cfg[section][key]
    except KeyError:
        raise ConfigError(f"unresolvable parameter path {path!r}") from None


# -- units oracle -------------------------------------------------------------

BASE_UNITS = ("m", "kg", "s", "A", "K")
ONE = (0, 0, 0, 0, 0)
# exponents over BASE_UNITS of the SCHEMA kinds the chain reads
KIND_DIMS = {
    "dimensionless": ONE, "length": (1, 0, 0, 0, 0),
    "inv_length": (-1, 0, 0, 0, 0), "inv_volume": (-3, 0, 0, 0, 0),
    "inv_time": (0, 0, -1, 0, 0), "vol_rate": (3, 0, -1, 0, 0),
    "vol2_rate": (6, 0, -1, 0, 0), "area": (2, 0, 0, 0, 0),
    "power": (2, 1, -3, 0, 0), "current": (0, 0, 0, 1, 0),
    "frequency": (0, 0, -1, 0, 0), "resistance": (2, 1, -3, -2, 0),
    "temperature": (0, 0, 0, 0, 1), "responsivity": (-2, -1, 3, 1, 0),
}
# exponents of each unit text of model.FIELD_UNITS; a spectral efficiency
# in bit/s/Hz is a pure number
FIELD_DIMS = {
    "": ONE, "bit/s/Hz": ONE, "m": (1, 0, 0, 0, 0), "m^-1": (-1, 0, 0, 0, 0),
    "m^-3": (-3, 0, 0, 0, 0), "s": (0, 0, 1, 0, 0), "W": (2, 1, -3, 0, 0),
    "A": (0, 0, 0, 1, 0), "A^2": (0, 0, 0, 2, 0),
}
# the physical constants of the gain and receiver stages, with their units
CONSTANT_DIMS = {
    "PLANCK": (2, 1, -1, 0, 0), "LIGHT_SPEED": (1, 0, -1, 0, 0),
    "ELECTRON_CHARGE": (0, 0, 1, 1, 0), "BOLTZMANN": (2, 1, -2, 0, -1),
}


def unit_of(x) -> str:
    """The dimension of a Q or a bare float as text, e.g. 'm^-1', or '1'
    when dimensionless."""
    dim = x.dim if isinstance(x, Q) else ONE
    return " ".join(f"{u}^{e:g}" for u, e in zip(BASE_UNITS, dim) if e) or "1"


class Q:
    """A float with its dimension, exponents over BASE_UNITS.  Adding or
    comparing unlike dimensions raises TypeError.  A bare float is
    dimensionless, except that a bare zero is a zero of any dimension: the
    package's folds multiply the literal zero entries of element matrices,
    as in `0.0 * a + c`, and a product by one stays such a zero."""

    __slots__ = ("v", "dim")

    def __init__(self, v: float, dim: tuple = ONE):
        self.v, self.dim = v, tuple(dim)

    def _like(self, other, verb: str) -> float:
        """other's value, when other has self's dimension."""
        if not isinstance(other, Q):
            other = Q(other, self.dim if other == 0 else ONE)
        if other.dim != self.dim:
            raise TypeError(f"{verb} {unit_of(self)} and {unit_of(other)}")
        return other.v

    def __add__(self, other):
        return Q(self.v + self._like(other, "adding"), self.dim)

    def __sub__(self, other):
        return Q(self.v - self._like(other, "adding"), self.dim)

    def __rsub__(self, other):
        return Q(self._like(other, "adding") - self.v, self.dim)

    __radd__ = __add__

    def __neg__(self):
        return Q(-self.v, self.dim)

    def __mul__(self, other):
        if isinstance(other, Q):
            return Q(self.v * other.v,
                     (x + y for x, y in zip(self.dim, other.dim)))
        return self.v * other if other == 0 else Q(self.v * other, self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Q):
            return Q(self.v / other.v,
                     (x - y for x, y in zip(self.dim, other.dim)))
        return Q(self.v / other, self.dim)

    def __rtruediv__(self, other):
        return other / self.v if other == 0 else Q(
            other / self.v, (-e for e in self.dim))

    def __pow__(self, p: float):
        return Q(self.v ** p, (e * p for e in self.dim))

    def __eq__(self, other):
        return self.v == self._like(other, "comparing")

    def __lt__(self, other):
        return self.v < self._like(other, "comparing")

    def __le__(self, other):
        return self.v <= self._like(other, "comparing")

    def __gt__(self, other):
        return self.v > self._like(other, "comparing")

    def __ge__(self, other):
        return self.v >= self._like(other, "comparing")

    def __int__(self):
        if self.dim != ONE:
            raise TypeError(f"int of {unit_of(self)}")
        return int(self.v)


def of_number(function):
    """`function` of a dimensionless value, as a Q; TypeError for any
    other."""
    def of(x) -> Q:
        if unit_of(x) != "1":
            raise TypeError(f"{function.__name__} of {unit_of(x)}")
        return Q(function(getattr(x, "v", x)))
    return of


# the names of `math` the chain's stages read, for Q values
UNITS_MATH = SimpleNamespace(
    pi=math.pi, e=math.e, inf=math.inf, exp=of_number(math.exp),
    log=of_number(math.log), log2=of_number(math.log2),
    isfinite=lambda x: math.isfinite(getattr(x, "v", x)))


def q_section(cfg: Config, section: str) -> dict:
    """A Config section as Q values of their SCHEMA kinds; an infinite
    value stays a float, as 1/inf is a bare zero."""
    return {k: v if math.isinf(v) else Q(v, KIND_DIMS[SCHEMA[section][k][0]])
            for k, v in cfg[section].items()}


def units_shim(monkeypatch, module) -> None:
    """Give a stage module the UNITS_MATH shim for its `math` and its
    physical constants their units."""
    monkeypatch.setattr(module, "math", UNITS_MATH)
    for name, dim in CONSTANT_DIMS.items():
        if hasattr(module, name):
            monkeypatch.setattr(module, name, Q(getattr(module, name), dim))


def value_of(x) -> float:
    """The float of a Q, or x itself."""
    return x.v if isinstance(x, Q) else x
