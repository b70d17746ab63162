"""The Cayley circle dictionary and the tangent-addition group law.

The Cayley transform z = (x - i)/(1 - ix) identifies the projective
line with the unit circle; real Mobius maps become SU(1,1) matrices.
Transporting circle multiplication back gives the commutative total
group law x + y over 1 - xy on the projective line, with tan as its
exponential and tan(pi q) for rational q as its torsion points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .projline import INFINITY, ONE, ZERO, MobiusMap, ProjPoint

__all__ = [
    "circle_exp",
    "cayley",
    "cayley_inv",
    "stereo_param",
    "SU11Matrix",
    "su11_conjugate",
    "add",
    "neg",
    "mul",
    "torsion_point",
    "OffCircle",
    "DetNotOne",
]


class OffCircle(ArithmeticError):
    """Complex argument too far from the unit circle."""


class DetNotOne(ArithmeticError):
    """Matrix determinant not normalized to 1."""


def circle_exp(t: float) -> complex:
    """The point exp(2 pi i t) of the unit circle."""
    t = float(t)
    return complex(math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t))


def cayley(p: ProjPoint) -> complex:
    """Stereographic projection (x - i)/(1 - ix) onto the unit circle.

    Computed homogeneously as (a - ib)/(b - ia), so infinity maps to i
    exactly; +-1 map to +-1 and 0 maps to -i.
    """
    num = complex(p.a, -p.b)
    den = complex(p.b, -p.a)
    return num / den


def cayley_inv(z: complex) -> ProjPoint:
    """Inverse stereographic projection; i maps to infinity.

    The complex ratio (z + i)/(1 + iz) is real on the circle; it is
    realized as a real homogeneous pair by clearing whichever of the
    numerator and denominator is larger.  Raises OffCircle when |z|
    deviates from 1 by more than 1e-8.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-8:
        raise OffCircle(f"|z| = {abs(z)!r} is not on the unit circle")
    num = z + 1j
    den = 1.0 + 1j * z
    if abs(den) >= abs(num):
        return ProjPoint((num * den.conjugate()).real, (den * den.conjugate()).real)
    return ProjPoint((num * num.conjugate()).real, (den * num.conjugate()).real)


def stereo_param(t: float) -> ProjPoint:
    """Parametrization tan(pi (t + 1/4)) of the line by the circle R/Z.

    Equals cayley_inv(circle_exp(t)); the pole at t = 1/4 returns the
    point at infinity exactly.
    """
    t = float(t) % 1.0
    if t == 0.25:
        return INFINITY
    theta = math.pi * (t + 0.25)
    return ProjPoint(math.sin(theta), math.cos(theta))


@dataclass(frozen=True)
class SU11Matrix:
    """Matrix [[u, v], [conj v, conj u]] with |u|^2 - |v|^2 = 1.

    Acts on the complex plane by the fractional linear map
    z -> (u z + v)/(conj(v) z + conj(u)) and preserves the unit circle.
    """

    u: complex
    v: complex

    @property
    def unit_defect(self) -> float:
        return abs(abs(self.u) ** 2 - abs(self.v) ** 2 - 1.0)

    def __call__(self, z: complex) -> complex:
        return (self.u * z + self.v) / (self.v.conjugate() * z + self.u.conjugate())

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.u, self.v, self.v.conjugate(), self.u.conjugate())


def su11_conjugate(m: MobiusMap) -> SU11Matrix:
    """Conjugate of a determinant-1 real matrix into SU(1,1).

    With entries (a, b; c, d) the image is u = ((a+d) + i(c-b))/2,
    v = ((b+c) + i(d-a))/2, which satisfies |u|^2 - |v|^2 = det = 1.
    The resulting circle action is the original line action seen through
    the coordinate 1/x: applying the result to cayley(p) equals
    cayley applied to the anti-transposed matrix (d, c; b, a) at p.

    Raises DetNotOne unless |det - 1| <= 1e-10.
    """
    if not abs(m.det - 1.0) <= 1e-10:
        raise DetNotOne(f"determinant {m.det!r} is not 1")
    u = complex(m.a + m.d, m.c - m.b) / 2.0
    v = complex(m.b + m.c, m.d - m.a) / 2.0
    return SU11Matrix(u, v)


def add(p: ProjPoint, q: ProjPoint) -> ProjPoint:
    """Tangent addition (p + q)/(1 - pq), total on the real projective line.

    In homogeneous pairs: [a:b] + [c:d] = [ad + bc : bd - ac].  The pair
    cannot vanish over the reals, so no special cases are needed:
    x + infinity = -1/x and infinity + infinity = 0 come out exactly.
    """
    return ProjPoint(p.a * q.b + p.b * q.a, p.b * q.b - p.a * q.a)


def neg(p: ProjPoint) -> ProjPoint:
    """Group inverse: x -> -x, fixing 0 and infinity."""
    return ProjPoint(-p.a, p.b)


def mul(m: int, p: ProjPoint) -> ProjPoint:
    """m-fold tangent sum by double-and-add; matches tan(m arctan x)."""
    m = int(m)
    if m < 0:
        return neg(mul(-m, p))
    acc = ZERO
    base = p
    while m:
        if m & 1:
            acc = add(acc, base)
        m >>= 1
        if m:
            base = add(base, base)
    return acc


def torsion_point(q: Fraction | int | tuple[int, int]) -> ProjPoint:
    """The torsion point tan(pi q) for a rational q.

    Accepts a Fraction, an int, or an (a, b) integer pair.  Quarter
    values are returned exactly: 0 -> 0, 1/2 -> infinity, 1/4 -> 1,
    3/4 -> -1.  The denominator of q annihilates the result under mul.
    """
    if isinstance(q, tuple):
        q = Fraction(q[0], q[1])
    else:
        q = Fraction(q)
    q %= 1
    if q == 0:
        return ZERO
    if q == Fraction(1, 2):
        return INFINITY
    if q == Fraction(1, 4):
        return ONE
    if q == Fraction(3, 4):
        return ProjPoint(-1.0, 1.0)
    theta = math.pi * (q.numerator / q.denominator)
    return ProjPoint(math.sin(theta), math.cos(theta))
