"""Paraxial ray-transfer (ABCD) optics of the spatially separated resonator.

All quantities are SI (meters, radians).  Matrices act on column vectors
(x, theta): transverse position and paraxial angle.  Every cavity element
has unit determinant, and so does their one-trip product, multiplied out
here on floats; the element matrices are the tests' (tests/abcd.py).
"""

from __future__ import annotations

import math
from collections import namedtuple


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


class RayTransferMatrix(namedtuple("RayTransferMatrix", "a b c d")):
    """2x2 ray-transfer matrix with entries a (dimensionless), b (m),
    c (m^-1), d (dimensionless)."""

    __slots__ = ()

    def __str__(self):
        return f"[[{self.a:.6g}, {self.b:.6g}], [{self.c:.6g}, {self.d:.6g}]]"


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


def one_trip_matrix(g: ResonatorGeometry) -> RayTransferMatrix:
    """Single-pass matrix from reflector M1 to reflector M2 inclusive: the
    product of the elements retro-reflector fr1, free space d1 and d2, lens
    f1, free space lt, lens f2, free space d3 and retro-reflector fr2,
    multiplied on floats; bit for bit the element-by-element product of
    tests/abcd.py, ValueErrors included."""
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


def diffraction_survival(a: float, w: float) -> float:
    """Fraction of a Gaussian beam of radius w captured by an aperture of
    radius a:  1 - exp(-2 a^2 / w^2)."""
    if w <= 0:
        raise ValueError(f"spot radius must be positive, got {w}")
    if a < 0:
        raise ValueError(f"aperture radius must be >= 0, got {a}")
    return 1.0 - math.exp(-2.0 * a * a / (w * w))
