"""Configurations of marked points on the line and their exact circle coordinates.

A configuration is a tuple (x_0, ..., x_n) of points of the projective
line with x_0 as root, taken up to Mobius equivalence.  Fixing the gauge
(x_0, x_{n-1}, x_n) -> (0, 1, infinity) identifies the open stratum
with charts u = (u_1, ..., u_{n-2}).  Each triple S = {i < j < k} of
leaf labels contributes a circle coordinate, the cover value of the
cross-ratio of (x_0, x_i, x_j, x_k); their product over all triples is
the Albanese map.  This layer is homogeneous and exact and loads no
numpy; the averaged pullback metric on charts is in treemoduli.moduli.
"""

from __future__ import annotations

import math
from itertools import combinations

from .cover import CirclePoint, _branch, _mod1, circle_cover
from .projline import (
    INFINITY,
    ONE,
    POINT_TOL,
    ZERO,
    MobiusMap,
    ProjPoint,
    _canon,
    _cross_checked,
    _det,
    _integer,
    _Value,
    chordal,
    cross_ratio,
    frame_map,
)

__all__ = [
    "Configuration", "ChartPoint", "triples", "check_triple", "chart_coords", "chart_embed",
    "forgetful", "triple_coord", "albanese", "relabel", "BadIndex", "InvalidChart", "NotAPermutation",
]


class BadIndex(ValueError):
    """Triple index out of range or not strictly increasing."""


class InvalidChart(ArithmeticError):
    """Chart coordinates coincide with each other or with the gauge points."""


class NotAPermutation(ValueError):
    """Relabeling sequence is not a permutation of 1..n."""


class Configuration(_Value):
    """Ordered marked points (x_0, ..., x_n) with the root at index 0."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[ProjPoint, ...]):
        pts = tuple(points)
        if len(pts) < 4:
            raise ValueError("a configuration needs n >= 3, i.e. at least 4 points")
        super().__init__(pts)

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def min_separation(self) -> float:
        """Smallest pairwise chordal distance; 0 on boundary strata."""
        return min(chordal(p, q) for p, q in combinations(self.points, 2))

    def in_open_stratum(self, tol: float = POINT_TOL) -> bool:
        return self.min_separation() > tol

    def transform(self, m: MobiusMap) -> "Configuration":
        return Configuration(tuple(m(p) for p in self.points))

    def to_json(self) -> dict:
        return {"n": self.n, "points": [p.to_json() for p in self.points]}

    @classmethod
    def from_json(cls, obj: dict) -> "Configuration":
        """Configuration from {"points": [point forms], "n": int}; ValueError on any other shape."""
        points = obj.get("points") if isinstance(obj, dict) else None
        if not isinstance(points, list):
            raise ValueError('configuration JSON must be {"points": [point forms], "n": int}')
        pts = tuple(ProjPoint.from_json(v) for v in points)
        n = obj.get("n", len(pts) - 1)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"n = {n!r} is not an integer")
        cfg = cls(pts)
        if n != cfg.n:
            raise ValueError(f"n = {obj['n']} does not match {len(pts)} points")
        return cfg


class ChartPoint(_Value):
    """Gauge-fixed coordinates: affine positions of x_1..x_{n-2}."""

    __slots__ = ("u",)

    def __init__(self, u: tuple[float, ...]):
        u = tuple(float(v) for v in u)
        if not u:
            raise ValueError("chart needs at least one coordinate (n >= 3)")
        if not all(math.isfinite(v) for v in u):
            raise InvalidChart("chart coordinates must be finite")
        super().__init__(u)

    @property
    def n(self) -> int:
        return len(self.u) + 2

    def as_array(self) -> numpy.ndarray:
        import numpy

        return numpy.asarray(self.u, dtype=float)


def triples(n: int) -> list[tuple[int, int, int]]:
    """All 3-element subsets of {1..n} in lexicographic order."""
    return list(combinations(range(1, n + 1), 3))


def check_triple(s: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    try:
        t = tuple(_integer(v, "triple entry", BadIndex) for v in s)
    except TypeError:  # s is not a sequence: 5, None
        raise BadIndex(f"{s!r} is not an increasing triple in 1..{n}") from None
    if not (len(t) == 3 and 1 <= t[0] < t[1] < t[2] <= n):
        raise BadIndex(f"{tuple(s)} is not an increasing triple in 1..{n}")
    return t


def chart_coords(c: Configuration) -> ChartPoint:
    """Chart of a configuration in the gauge (x_0, x_{n-1}, x_n) -> (0, 1, inf).

    Each coordinate is a cross-ratio, so Mobius-equivalent configurations
    give equal charts.  Raises DegenerateAnchor when the gauge points
    coincide and InvalidChart when some x_i sits at the infinity anchor.
    """
    pts = c.points
    m = frame_map(pts[0], pts[-2], pts[-1])
    u = []
    for p in pts[1:-2]:
        q = m(p)
        if q.is_infinite:
            raise InvalidChart("marked point coincides with the infinity anchor")
        u.append(q.affine)
    return ChartPoint(tuple(u))


def chart_embed(u: ChartPoint) -> Configuration:
    """Configuration (0, u_1, ..., u_{n-2}, 1, infinity) of a chart.

    Left inverse of chart_coords.  Raises InvalidChart when coordinates
    collide with each other or with the gauge values 0 and 1.
    """
    pts = [ZERO] + [ProjPoint.from_affine(v) for v in u.u] + [ONE, INFINITY]
    for i in range(1, len(pts) - 1):
        for j in range(i + 1, len(pts) - 1):
            if chordal(pts[i], pts[j]) <= POINT_TOL:
                raise InvalidChart(f"chart coordinates {i}, {j} coincide")
        if chordal(pts[i], ZERO) <= POINT_TOL:
            raise InvalidChart(f"chart coordinate {i} coincides with 0")
    return Configuration(tuple(pts))


def forgetful(c: Configuration, s: tuple[int, int, int]) -> tuple[ProjPoint, ...]:
    """Quadruple (x_0, x_i, x_j, x_k): root retained, other leaves forgotten."""
    i, j, k = check_triple(s, c.n)
    pts = c.points
    return (pts[0], pts[i], pts[j], pts[k])


def triple_coord(c: Configuration, s: tuple[int, int, int]) -> CirclePoint:
    """Circle coordinate of a triple: cover value of its cross-ratio.

    Continuous up to the boundary; collision quadruples land at
    0 in R/Z.
    """
    return circle_cover(cross_ratio(*forgetful(c, s)))


def _pair_dets(pairs) -> list[list]:
    """The determinant d[p][q] = _det(*pairs[p], *pairs[q]) of each two pairs, as a table of rows."""
    return [[_det(*p, *q) for q in pairs] for p in pairs]


# Largest n albanese takes: C(128, 3) = 341376 coordinates, about 0.5 s and
# 55 MiB peak RSS from the command line on a 2-core host.  Time and memory grow as n^3.
_ALBANESE_MAX_N = 128

# Products at or above this magnitude skip _canon: see albanese.
_RESCALE_EXACT = 2.0**-960


def albanese(c: Configuration) -> list[float]:
    """All triple coordinates as floats in [0, 1), in lexicographic triple order.

    triple_coord(c, s).t of each triple bit for bit, taken on the stored
    pairs without a point per value.  The determinant d[p][q] of each two
    pairs is formed once, and triple (i, j, k) takes (d[0][i] d[j][k],
    d[0][j] d[i][k]): the products _cross makes, in the same order.
    Stored pairs are canonical, so each product is below 64 in magnitude;
    when both are at least 2**-960, _canon's power-of-two rescale is exact
    and commutes with the branch's one subtraction and one division, so
    only its sign rule is applied.  Smaller products take _canon itself.
    ValueError above n = _ALBANESE_MAX_N, before anything is allocated.
    """
    n = c.n
    if n > _ALBANESE_MAX_N:
        raise ValueError(f"a configuration of n = {n} is above the albanese limit of n = {_ALBANESE_MAX_N}")
    pairs = [(p.a, p.b) for p in c.points]
    d = _pair_dets(pairs)
    d0 = d[0]
    values = []
    for i in range(1, n - 1):
        di, d0i = d[i], d0[i]
        for j in range(i + 1, n):
            dj, d0j = d[j], d0[j]
            for k in range(j + 1, n + 1):
                num, den = d0i * dj[k], d0j * di[k]
                if abs(num) >= _RESCALE_EXACT and abs(den) >= _RESCALE_EXACT:
                    if den < 0.0:
                        num, den = -num, -den
                else:
                    if num == 0.0 and den == 0.0:
                        _cross_checked(*pairs[0], *pairs[i], *pairs[j], *pairs[k])  # the same products: raises its 0/0 error
                    num, den = _canon(num, den)
                _, num, den, _ = _branch(num, den)
                values.append(_mod1(num / den))
    return values


def _exact_jacobian(u: ChartPoint) -> list[list[Fraction]]:
    """The Jacobian at exactly the chart u, as rows of Fractions in triple order.

    A float chart is a dyadic rational point, and the cross-ratios and the
    cover are rational on each branch, so every entry is rational.  With
    the determinant table d of albanese, D(p, q) = a_p b_q - a_q b_p, and
    the table g[p][q] = b_q / D(p, q) = d log|D(p, q)| / d a_p, triple
    (i, j, k) has rho = D(0,i) D(j,k) / (D(0,j) D(i,k)) = num / den, and an
    entry is k'(rho) rho d log rho / d u_m = num den / (branch den)^2 times
    d log rho / d u_m.  Raises InvalidChart unless 0, the chart values and
    1 are pairwise distinct.
    """
    from fractions import Fraction

    vals = [Fraction(0), *map(Fraction, u.u), Fraction(1)]
    if len(set(vals)) < len(vals):
        raise InvalidChart("chart coordinates coincide with each other or with 0 or 1")
    pairs = [(a, 1) for a in vals] + [(Fraction(1), 0)]
    d = _pair_dets(pairs)
    g = [[b / x if x else x for (_, b), x in zip(pairs, row)] for row in d]  # D(p, p) = 0 only
    rows = []
    for i, j, k in triples(u.n):
        num, den = d[0][i] * d[j][k], d[0][j] * d[i][k]
        if den < 0:
            num, den = -num, -den
        scale = num * den / _branch(num, den)[2] ** 2
        row = [Fraction(0)] * (u.n - 2)
        for p, dlog in ((i, g[i][0] - g[i][k]), (j, g[j][k] - g[j][0]), (k, g[k][j] - g[k][i])):
            if p <= u.n - 2:
                row[p - 1] = scale * dlog
        rows.append(row)
    return rows


def _exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q of a matrix given as rows of Fractions, by Gaussian elimination."""
    rows = [r for r in rows if any(r)]
    rank = 0
    while rows:
        pivot = rows.pop()
        c = next(c for c, v in enumerate(pivot) if v)
        for i, r in enumerate(rows):
            if r[c]:
                f = r[c] / pivot[c]
                rows[i] = [x - f * y for x, y in zip(r, pivot)]
        rows = [r for r in rows if any(r)]
        rank += 1
    return rank


def relabel(perm, c: Configuration) -> Configuration:
    """Relabel leaves by a permutation of 1..n; the root stays put.

    perm[i-1] is the new label of leaf i.
    """
    n = c.n
    perm = list(perm)
    labels = [_integer(v, "label", NotAPermutation) for v in perm]
    if sorted(labels) != list(range(1, n + 1)):
        raise NotAPermutation(f"{perm} is not a permutation of 1..{n}")
    pts: list[ProjPoint | None] = [None] * (n + 1)
    pts[0] = c.points[0]
    for i, target in enumerate(labels, start=1):
        pts[target] = c.points[i]
    return Configuration(tuple(pts))
