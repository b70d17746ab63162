"""The piecewise Mobius three-fold cover of the circle and its relatives.

The projective line splits into the closed intervals [-inf, 0], [0, 1]
and [1, inf].  Gluing x -> 1/(1-x), x -> x and x -> 1 - 1/x along them
yields a continuous three-fold cover of the circle R/Z that collapses
the order-three rotation of the line; composing with the logit map gives
a three-fold cover of the line itself, whose value on a cross-ratio is
the signed hyperbolic length of the internal edge of the corresponding
rooted three-leaf tree.
"""

from __future__ import annotations

import math
from enum import Enum

from .projline import (
    INFINITY,
    ONE,
    POINT_TOL,
    ZERO,
    ProjPoint,
    _integer,
    _Value,
    chordal,
    cross_ratio,
)

__all__ = [
    "CirclePoint",
    "circle_distance",
    "Interval",
    "classify",
    "circle_cover",
    "cover_derivative",
    "cover_integral",
    "logit",
    "line_cover",
    "devadoss_length",
    "winding_number",
    "DomainError",
    "LiftStepTooLarge",
]


class DomainError(ArithmeticError):
    """Input outside the domain of the logit map."""


class LiftStepTooLarge(ArithmeticError):
    """Consecutive loop samples too far apart for a well-defined lift."""


def _mod1(t: float) -> float:
    """The representative of t in R/Z, in [0, 1); ValueError naming t when it is nan or infinite."""
    r = t % 1.0
    if r < 1.0:
        return r
    if r == 1.0:  # t % 1.0 can round up to 1.0 for tiny negative t
        return 0.0
    raise ValueError(f"angle {t!r} is not a finite number")  # nan and +-inf reduce to nan


class CirclePoint(_Value):
    """Element of R/Z, stored as the representative in [0, 1)."""

    __slots__ = ("t",)

    def __init__(self, t: float):
        super().__init__(_mod1(t))

    def __float__(self) -> float:
        return self.t


def circle_distance(s: CirclePoint | float, t: CirclePoint | float) -> float:
    """Arc-length metric on R/Z, normalized to total length 1."""
    d = abs(_mod1(float(s)) - _mod1(float(t)))
    return min(d, 1.0 - d)


class Interval(Enum):
    """Position of a point in the three-interval decomposition."""

    NEGATIVE = "(-inf,0)"
    UNIT = "(0,1)"
    UPPER = "(1,inf)"
    ZERO = "0"
    ONE = "1"
    INFINITY = "inf"

    @property
    def is_boundary(self) -> bool:
        return self in (Interval.ZERO, Interval.ONE, Interval.INFINITY)


def _branch(a: float, b: float) -> tuple[Interval, float, float, float]:
    """Exact interval tag and cover value num/den of a canonical pair, with rest = den - num.

    The branch values are b/(b-a), a/b and (a-b)/a on (-inf, 0), (0, 1)
    and (1, inf); rest is formed from the pair directly (-a, b - a and b),
    so no cancellation enters it.  Selection uses exact signs of the
    homogeneous pair (the stored b is nonnegative), and the marked points
    0, 1, infinity get the value 0.
    """
    if b == 0.0:
        return Interval.INFINITY, 0.0, a, a
    if a == 0.0:
        return Interval.ZERO, 0.0, b, b
    if a == b:
        return Interval.ONE, 0.0, b, b
    if a < 0.0:
        return Interval.NEGATIVE, b, b - a, -a
    if a < b:
        return Interval.UNIT, a, b, b - a
    return Interval.UPPER, a - b, a, b


def classify(p: ProjPoint) -> Interval:
    """Interval tag of a point; boundary tags within the equality tolerance."""
    marked = ((Interval.INFINITY, INFINITY), (Interval.ZERO, ZERO), (Interval.ONE, ONE))
    for tag, q in marked:
        if chordal(p, q) <= POINT_TOL:
            return tag
    return _branch(p.a, p.b)[0]


def circle_cover(p: ProjPoint) -> CirclePoint:
    """Three-fold cover of the circle: 1/(1-x), x, 1 - 1/x on the branches.

    The three marked points 0, 1, infinity all map to 0 in R/Z.  Branch
    selection uses exact signs of the homogeneous pair, so every division
    lands in [0, 1].
    """
    _, num, den, _ = _branch(p.a, p.b)
    return CirclePoint(num / den)


def cover_derivative(p: ProjPoint) -> float:
    """Derivative of the circle cover: (1-x)^-2, 1, x^-2 on the branches.

    Equal to (b/den)^2 for the branch denominator den.  Continuous across
    the seams (value 1 at 0 and 1, value 0 at infinity) and strictly
    positive on the reals.
    """
    r = p.b / _branch(p.a, p.b)[2]
    return r * r


def cover_integral(order: int = 64) -> float:
    """Total integral of the cover derivative over the projective line.

    The two unbounded branches are substituted back into (0, 1): the
    negative branch by x = 1 - 1/u and the upper branch by x = 1/(1-u),
    leaving three bounded Gauss-Legendre quadratures.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_integer(order, "order"))
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    total = 0.0
    for ui, wi in zip(u, w):
        total += wi * cover_derivative(ProjPoint(ui, 1.0))
        total += wi * cover_derivative(ProjPoint(ui - 1.0, ui)) / (ui * ui)
        total += wi * cover_derivative(ProjPoint(1.0, 1.0 - ui)) / ((1.0 - ui) ** 2)
    return total


def logit(p: ProjPoint) -> ProjPoint:
    """Inverse of the logistic function 1/(1 + exp(-g)), extended to [0, 1].

    Computed as log a - log(b - a) on the homogeneous pair, so values
    exponentially close to the endpoints keep full precision.  The
    endpoints 0 and 1 map to the point at infinity.

    Raises DomainError for affine values outside [0, 1].
    """
    if _branch(p.a, p.b)[0] not in (Interval.UNIT, Interval.ZERO, Interval.ONE):
        raise DomainError("logit needs an affine value in [0, 1]")
    return line_cover(p)


def line_cover(p: ProjPoint) -> ProjPoint:
    """Logit of the circle cover: a three-fold cover of the line itself.

    Branch values are -log|x| on (-inf, 0), log(x/(1-x)) on (0, 1) and
    log(x - 1) on (1, inf), each computed as log num - log rest of the
    circle cover value; the marked points 0, 1, infinity map to
    infinity.  Continuous as a map of pointed projective lines (the sign
    flips across a seam happen through the point at infinity).
    """
    tag, num, _, rest = _branch(p.a, p.b)
    if tag.is_boundary:
        return INFINITY
    return ProjPoint.from_affine(math.log(num) - math.log(rest))


def devadoss_length(
    p0: ProjPoint, p1: ProjPoint, p2: ProjPoint, p3: ProjPoint
) -> ProjPoint:
    """Signed internal-edge length of the rooted tree on four boundary points.

    Equals the line cover of the cross-ratio; for cross-ratio r in (0, 1)
    this inverts r = 1/(1 + exp(-g)).  Infinite exactly when the
    cross-ratio is 0, 1 or infinity.
    """
    return line_cover(cross_ratio(p0, p1, p2, p3))


def winding_number(samples) -> int:
    """Winding number of the circle cover along a closed loop of points.

    The cover values are lifted continuously by wrapping consecutive
    differences into (-1/2, 1/2); the loop is closed from the last
    sample back to the first.  Raises LiftStepTooLarge when consecutive
    cover values are 1/4 or more apart.
    """
    ts = [circle_cover(p).t for p in samples]
    if len(ts) < 2:
        return 0
    total = 0.0
    for i in range(len(ts)):
        d = (ts[(i + 1) % len(ts)] - ts[i] + 0.5) % 1.0 - 0.5
        if abs(d) >= 0.25:
            raise LiftStepTooLarge(
                f"cover step {d:+.3f} between samples {i} and {(i + 1) % len(ts)}"
            )
        total += d
    return round(total)
