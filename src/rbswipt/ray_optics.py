"""Paraxial ray-transfer (ABCD) matrices for the spatially separated resonator.

All quantities are SI (meters, radians).  Matrices act on column vectors
(x, theta): transverse position and paraxial angle.  Every element used here
has unit determinant, and so does any composition of them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass


class CavityError(Exception):
    """Base class for resonator evaluation failures."""


class UnstableResonatorError(CavityError):
    """The configuration supports no confined transverse mode."""

    def __init__(self, matrix: "RayTransferMatrix", radicand: float):
        self.matrix = matrix
        self.radicand = radicand
        super().__init__(
            f"unstable resonator: spot-radius radicand {radicand:.6g} < 0 "
            f"for matrix {matrix}"
        )


class DegenerateCavityError(CavityError):
    """The one-trip matrix has A*C = 0; the mode size is undefined."""

    def __init__(self, matrix: "RayTransferMatrix"):
        self.matrix = matrix
        super().__init__(f"degenerate cavity: A*C = 0 for matrix {matrix}")


@dataclass(frozen=True)
class RayVector:
    """Transverse ray state: position x (m) and paraxial angle theta (rad)."""

    x: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.theta)):
            raise ValueError("ray vector components must be finite")


class RayTransferMatrix(namedtuple("RayTransferMatrix", "a b c d")):
    """2x2 ray-transfer matrix with entries a (dimensionless), b (m),
    c (m^-1), d (dimensionless)."""

    __slots__ = ()

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

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def __str__(self):
        return f"[[{self.a:.6g}, {self.b:.6g}], [{self.c:.6g}, {self.d:.6g}]]"


IDENTITY = RayTransferMatrix(1.0, 0.0, 0.0, 1.0)


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
    """Thin lens of focal length f (m).  f may be negative (diverging) or
    infinite (flat window, identity)."""
    if f == 0:
        raise ValueError("thin lens focal length must be nonzero")
    if math.isinf(f):
        return IDENTITY
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

    f_r = inf gives the ideal retro-reflector -I.
    """
    if f_r == 0:
        raise ValueError("effective curvature factor must be nonzero")
    c = 0.0 if math.isinf(f_r) else 1.0 / f_r
    return RayTransferMatrix(-1.0, 0.0, c, -1.0)


def tim_matrix(f1: float, f2: float, lt: float) -> RayTransferMatrix:
    """Two-lens telescope: lens f1, spacing lt, lens f2 (in traversal order).

    When lt = f1 + f2 the assembly is afocal and equals
    [[1/M, lt], [0, M]] with M = -f1/f2.
    """
    return compose(thin_lens(f1), free_space(lt), thin_lens(f2))


class ResonatorGeometry(namedtuple(
        "ResonatorGeometry", "d1 d2 d3 f1 f2 r1 r2 lambda_beam lt fr1 fr2")):
    """Cavity geometry: spacings, telescope lenses, reflector curvatures,
    mirror reflectivities, and the resonant wavelength.  All lengths in m.

    Element order from reflector M1: free space d1 (to the gain medium),
    free space d2 (gain to first telescope lens), lens f1, spacing lt,
    lens f2, free space d3 (to reflector M2).  The fields are not range
    checked here: their ranges are config.SCHEMA's.
    """

    __slots__ = ()

    def __new__(cls, d1, d2, d3, f1, f2, r1, r2, lambda_beam, lt=math.nan,
                fr1=math.inf, fr2=math.inf):
        if math.isnan(lt):
            # afocal spacing; may be negative for a Galilean telescope
            lt = f1 + f2
        return tuple.__new__(cls, (d1, d2, d3, f1, f2, r1, r2, lambda_beam,
                                   lt, fr1, fr2))

    @property
    def tim_magnification(self) -> float:
        """Compression ratio of the beam arriving at the gain medium,
        -f2/f1 for the afocal telescope."""
        return -self.f2 / self.f1


def one_trip_matrix(g: ResonatorGeometry) -> RayTransferMatrix:
    """Single-pass matrix from reflector M1 to reflector M2 inclusive: the
    compose() of retro_reflector(fr1), free_space(d1), free_space(d2),
    thin_lens(f1), free_space(lt), thin_lens(f2), free_space(d3) and
    retro_reflector(fr2), bit for bit and with their ValueErrors, multiplied
    on floats without building the element matrices."""
    if not all(map(math.isfinite, (g.d1, g.d2, g.lt, g.d3))):
        raise ValueError(f"free-space distances must be finite in {g}")
    if g.fr1 == 0 or g.fr2 == 0:
        raise ValueError("effective curvature factor must be nonzero")
    c1 = 0.0 if math.isinf(g.fr1) else 1.0 / g.fr1
    p1 = 0.0 if math.isinf(g.f1) else -1.0 / g.f1
    p2 = 0.0 if math.isinf(g.f2) else -1.0 / g.f2
    c2 = 0.0 if math.isinf(g.fr2) else 1.0 / g.fr2
    # one line per element in the order above, `element @ out` term for term;
    # products by 1 and -1 (exact) are dropped, by 0 kept: 0 * inf is nan
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    a, b, c, d = -a + 0.0 * c, -b + 0.0 * d, c1 * a - c, c1 * b - d
    a, b, c, d = a + g.d1 * c, b + g.d1 * d, 0.0 * a + c, 0.0 * b + d
    a, b, c, d = a + g.d2 * c, b + g.d2 * d, 0.0 * a + c, 0.0 * b + d
    a, b, c, d = a + 0.0 * c, b + 0.0 * d, p1 * a + c, p1 * b + d
    a, b, c, d = a + g.lt * c, b + g.lt * d, 0.0 * a + c, 0.0 * b + d
    a, b, c, d = a + 0.0 * c, b + 0.0 * d, p2 * a + c, p2 * b + d
    a, b, c, d = a + g.d3 * c, b + g.d3 * d, 0.0 * a + c, 0.0 * b + d
    a, b, c, d = -a + 0.0 * c, -b + 0.0 * d, c2 * a - c, c2 * b - d
    return RayTransferMatrix(a, b, c, d)


def round_trip_matrix(g: ResonatorGeometry) -> RayTransferMatrix:
    """Full round trip starting and ending at M1 (used by the self-consistent
    Gaussian-mode cross-check, not by the headline spot-radius formula)."""
    forward = compose(
        free_space(g.d1),
        free_space(g.d2),
        thin_lens(g.f1),
        free_space(g.lt),
        thin_lens(g.f2),
        free_space(g.d3),
    )
    backward = compose(
        free_space(g.d3),
        thin_lens(g.f2),
        free_space(g.lt),
        thin_lens(g.f1),
        free_space(g.d2),
        free_space(g.d1),
    )
    return compose(forward, retro_reflector(g.fr2), backward,
                   retro_reflector(g.fr1))


def spot_radius_on_gain(m: RayTransferMatrix, lam: float) -> float:
    """Beam spot radius (m) on the gain medium from the one-trip matrix:

        w_g = (-lam^2 * B * D / (pi^2 * A * C)) ** (1/4)

    Raises DegenerateCavityError when A*C = 0, UnstableResonatorError
    when the radicand is negative and ValueError when it is not finite
    (the matrix product overflowed).  B = 0 yields w_g = 0, which callers
    should treat as an unphysical degenerate mode.
    """
    if lam <= 0:
        raise ValueError("wavelength must be positive")
    ac = m.a * m.c
    if ac == 0:
        raise DegenerateCavityError(m)
    radicand = -(lam * lam) * m.b * m.d / (math.pi * math.pi * ac)
    if radicand < 0:
        raise UnstableResonatorError(m, radicand)
    if not math.isfinite(radicand):
        raise ValueError(f"spot-radius radicand {radicand} for matrix {m}")
    return radicand ** 0.25


def spot_radius_q_oracle(m_round: RayTransferMatrix, lam: float) -> float:
    """Self-consistent Gaussian-beam spot radius from a round-trip matrix.

    Solves C q^2 + (D - A) q - B = 0 for the complex beam parameter with
    positive imaginary part, then w^2 = -lam / (pi * Im(1/q)).  Raises
    UnstableResonatorError when no confined solution exists.
    """
    a, b, c, d = m_round.a, m_round.b, m_round.c, m_round.d
    disc = (d - a) ** 2 + 4.0 * b * c
    if disc >= 0 or c == 0:
        raise UnstableResonatorError(m_round, disc)
    sq = complex(0.0, math.sqrt(-disc))
    for root in ((a - d) + sq, (a - d) - sq):
        q = root / (2.0 * c)
        if q.imag > 0:
            inv_im = (1.0 / q).imag
            return math.sqrt(-lam / (math.pi * inv_im))
    raise UnstableResonatorError(m_round, disc)


def diffraction_survival(a: float, w: float) -> float:
    """Fraction of a Gaussian beam of radius w captured by an aperture of
    radius a:  1 - exp(-2 a^2 / w^2)."""
    if w <= 0:
        raise ValueError(f"spot radius must be positive, got {w}")
    if a < 0:
        raise ValueError(f"aperture radius must be >= 0, got {a}")
    return 1.0 - math.exp(-2.0 * a * a / (w * w))
