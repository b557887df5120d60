"""Paraxial ray-transfer (ABCD) optics of the spatially separated resonator.

All quantities are SI (meters, radians).  Matrices act on column vectors
(x, theta), position and paraxial angle, and leave here as float tuples
(a, b, c, d): a and d dimensionless, b in m, c in 1/m.  Every cavity
element has unit determinant, and so does their one-trip product; the
element matrices are the tests' (tests/abcd.py).  The cavity is the
Config's geometry section itself; its ranges are config.SCHEMA's and are
not checked here.  A cell's one call closes the cavity opened up to lens
f2 and takes its spot radius.  A cavity that confines no mode, degenerate
or unstable, raises UnstableResonatorError, whose text names the one-trip
matrix; ValueError marks an intermediate value a validated geometry can
still drive out of a formula's domain.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

# a one-trip matrix as every text prints it, and the texts that name one
_MATRIX = "[[{:.6g}, {:.6g}], [{:.6g}, {:.6g}]]"
_DEGENERATE = "degenerate cavity: A*C = 0 for matrix " + _MATRIX
_UNSTABLE = ("unstable resonator: spot-radius radicand {:.6g} < 0 "
             "for matrix " + _MATRIX)
_NOT_FINITE = "spot-radius radicand {} for matrix " + _MATRIX


class UnstableResonatorError(Exception):
    """The cavity confines no transverse mode: its one-trip matrix has
    A*C = 0 or a negative spot-radius radicand."""


def open_cavity(geometry: Mapping[str, float]) -> tuple[float, ...]:
    """Entries (a, b, c, d), as floats, of the matrix from reflector M1
    through lens f2 inclusive, for the Config's geometry section, read and
    never written: the part of the one-trip product that d3 and fr2 do not
    reach, the chain's first stage, which a line opens once, at its first
    point, and a d3 or fr2 line lends as this tuple.

    Element order from M1: retro-reflector fr1, free space d1 (to the gain
    medium) and d2 (to the first telescope lens), lens f1, spacing lt and
    lens f2.  f2 is given or derived from the telescope magnification, lt
    defaults to the afocal f1 + f2 and fr1 to the ideal retro-reflector
    (inf); all lengths in m.  The product is multiplied on floats, bit for
    bit the element-by-element product of tests/abcd.py.  Raises ValueError
    when a derived lt = f1 + f2 overflowed, the one distance SCHEMA does
    not keep finite.
    """
    d1, d2, f1 = geometry["d1"], geometry["d2"], geometry["f1"]
    # magnification = compression of the beam arriving at the gain, i.e.
    # the telescope expands by this factor on the way out
    f2 = (geometry["f2"] if "f2" in geometry
          else -f1 * geometry["tim_magnification"])
    # afocal spacing; may be negative for a Galilean telescope
    lt = geometry.get("lt", f1 + f2)
    if not math.isfinite(lt):
        raise ValueError(
            f"telescope spacing lt = f1 + f2 = {lt} is not finite")
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
    return a, b, c, d


def close_cavity(cavity, geometry: Mapping[str, float]) -> tuple[float, ...]:
    """Entries (a, b, c, d), as floats, of the single-pass matrix from
    reflector M1 to M2 inclusive: `cavity`, the entries open_cavity
    returns, then free space d3 and retro-reflector fr2 (default inf) of
    the geometry section.  d3 is finite in every Config that passes
    SCHEMA."""
    d3, c2 = geometry["d3"], 1.0 / geometry.get("fr2", math.inf)
    a, b, c, d = cavity
    a, b, c, d = a + d3 * c, b + d3 * d, 0.0 * a + c, 0.0 * b + d
    return -a + 0.0 * c, -b + 0.0 * d, c2 * a - c, c2 * b - d


def spot_radius_on_gain(cavity, geometry: Mapping[str, float]) -> float:
    """Beam spot radius (m) on the gain medium from the one-trip matrix of
    `cavity` closed on the geometry section (close_cavity), at lambda_beam:

        w_g = (-lam^2 * B * D / (pi^2 * A * C)) ** (1/4)

    Raises UnstableResonatorError when A*C = 0 (a degenerate cavity) or
    the radicand is negative, and ValueError when the radicand is not
    finite (the matrix product overflowed).  B = 0 yields w_g = 0, which
    callers should treat as an unphysical degenerate mode.
    """
    a, b, c, d = close_cavity(cavity, geometry)
    ac = a * c
    if ac == 0:
        raise UnstableResonatorError(_DEGENERATE.format(a, b, c, d))
    lam = geometry["lambda_beam"]
    radicand = -(lam * lam) * b * d / (math.pi * math.pi * ac)
    if radicand < 0:
        raise UnstableResonatorError(_UNSTABLE.format(radicand, a, b, c, d))
    if not math.isfinite(radicand):
        raise ValueError(_NOT_FINITE.format(radicand, a, b, c, d))
    return radicand ** 0.25


def diffraction_survival(a: float, w: float) -> float:
    """Fraction of a Gaussian beam of radius w captured by an aperture of
    radius a:  1 - exp(-2 a^2 / w^2)."""
    if w <= 0:
        raise ValueError(f"spot radius must be positive, got {w}")
    return 1.0 - math.exp(-2.0 * a * a / (w * w))
