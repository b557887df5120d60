"""Paraxial ray-transfer (ABCD) optics of the spatially separated resonator.

All quantities are SI (meters, radians).  Matrices act on column vectors
(x, theta): transverse position and paraxial angle.  Every cavity element
has unit determinant, and so does their one-trip product, multiplied out
here on floats; the element matrices are the tests' (tests/abcd.py).
The cavity is the Config's geometry section itself; its ranges are
config.SCHEMA's and are not checked here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping


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


def open_cavity(geometry: Mapping[str, float]) -> RayTransferMatrix:
    """Matrix from reflector M1 through lens f2 inclusive, for the Config's
    geometry section, read and never written: the part of the one-trip
    product that d3 and fr2 do not reach, so a line on either opens it once.

    Element order from M1: retro-reflector fr1, free space d1 (to the gain
    medium) and d2 (to the first telescope lens), lens f1, spacing lt and
    lens f2.  f2 is given or derived from the telescope magnification, lt
    defaults to the afocal f1 + f2 and fr1 to the ideal retro-reflector
    (inf); all lengths in m.  The product is multiplied on floats, bit for
    bit the element-by-element product of tests/abcd.py.  Raises ValueError
    when d1, d2, lt or the section's d3 is not finite, as a derived lt =
    f1 + f2 is on overflow.
    """
    d1, d2, d3, f1 = (geometry["d1"], geometry["d2"], geometry["d3"],
                      geometry["f1"])
    # magnification = compression of the beam arriving at the gain, i.e.
    # the telescope expands by this factor on the way out
    f2 = (geometry["f2"] if "f2" in geometry
          else -f1 * geometry["tim_magnification"])
    # afocal spacing; may be negative for a Galilean telescope
    lt = geometry.get("lt", f1 + f2)
    if not (math.isfinite(d1) and math.isfinite(d2) and math.isfinite(lt)
            and math.isfinite(d3)):
        raise ValueError(f"free-space distances must be finite: d1={d1}, "
                         f"d2={d2}, lt={lt}, d3={d3}")
    c1 = 1.0 / geometry.get("fr1", math.inf)
    p1 = -1.0 / f1
    # a derived f2 = -f1 * M that overflowed to +-inf is a flat lens whose
    # power -1.0 / f2 is a signed zero, taken as it is, like any lens's
    p2 = -1.0 / f2
    # one line per element in the order above, `element @ out` term for term;
    # products by +-1 are exact and dropped, by 0 kept for nan and signed zero;
    # fr1 @ identity is folded to its terms' values, with c1 * 0.0 nan at inf;
    # so d1 meets a = -1.0 and b = 0.0, and its c + 0.0 * a = c + -0.0 and
    # d + 0.0 * b = d + 0.0 are c and d bit for bit (x + -0.0 is x for every
    # float, and d, -1.0 or nan, is never -0.0): folded to c and d
    a, b, c, d = -1.0, 0.0, c1, c1 * 0.0 - 1.0
    a, b = a + d1 * c, b + d1 * d
    a, b, c, d = a + d2 * c, b + d2 * d, 0.0 * a + c, 0.0 * b + d
    a, b, c, d = a + 0.0 * c, b + 0.0 * d, p1 * a + c, p1 * b + d
    a, b, c, d = a + lt * c, b + lt * d, 0.0 * a + c, 0.0 * b + d
    a, b, c, d = a + 0.0 * c, b + 0.0 * d, p2 * a + c, p2 * b + d
    # tuple.__new__ skips the namedtuple's Python-level __new__
    return tuple.__new__(RayTransferMatrix, (a, b, c, d))


def close_cavity(cavity, geometry: Mapping[str, float]) -> RayTransferMatrix:
    """Single-pass matrix from reflector M1 to reflector M2 inclusive:
    `cavity`, what open_cavity returns, then free space d3 and
    retro-reflector fr2 (default inf) of the geometry section.  d3 is
    finite in every Config that passes SCHEMA and is not checked again."""
    d3, c2 = geometry["d3"], 1.0 / geometry.get("fr2", math.inf)
    a, b, c, d = cavity
    a, b, c, d = a + d3 * c, b + d3 * d, 0.0 * a + c, 0.0 * b + d
    a, b, c, d = -a + 0.0 * c, -b + 0.0 * d, c2 * a - c, c2 * b - d
    return tuple.__new__(RayTransferMatrix, (a, b, c, d))


def one_trip_matrix(geometry: Mapping[str, float]) -> RayTransferMatrix:
    """Single-pass matrix from reflector M1 to reflector M2 inclusive: the
    cavity opened and closed on one geometry section."""
    return close_cavity(open_cavity(geometry), geometry)


def spot_radius_on_gain(m: RayTransferMatrix, lam: float) -> float:
    """Beam spot radius (m) on the gain medium from the one-trip matrix:

        w_g = (-lam^2 * B * D / (pi^2 * A * C)) ** (1/4)

    Raises DegenerateCavityError when A*C = 0, UnstableResonatorError
    when the radicand is negative and ValueError when it is not finite
    (the matrix product overflowed).  B = 0 yields w_g = 0, which callers
    should treat as an unphysical degenerate mode.
    """
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
    return 1.0 - math.exp(-2.0 * a * a / (w * w))
