"""Moduli of marked points on the line and the averaged pullback metric.

A configuration is a tuple (x_0, ..., x_n) of points of the projective
line with x_0 as root, taken up to Mobius equivalence.  Fixing the gauge
(x_0, x_{n-1}, x_n) -> (0, 1, infinity) identifies the open stratum
with charts u = (u_1, ..., u_{n-2}).  Each triple S = {i < j < k} of
leaf labels contributes a circle coordinate, the cover value of the
cross-ratio of (x_0, x_i, x_j, x_k); their product over all triples is
the Albanese map, and the average of the squared differentials is a
continuous, piecewise smooth metric on which leaf relabelings act by
isometries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .cover import CirclePoint, _branch, circle_cover
from .projline import (
    INFINITY,
    ONE,
    POINT_TOL,
    ZERO,
    MobiusMap,
    ProjPoint,
    _canon,
    _cross,
    _cross_checked,
    _det,
    chordal,
    cross_ratio,
    frame_map,
)


class _LazyNumpy:
    """numpy until first use: the first lookup imports it and rebinds the global np to it."""

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()


__all__ = [
    "Configuration",
    "ChartPoint",
    "triples",
    "check_triple",
    "chart_coords",
    "chart_embed",
    "forgetful",
    "triple_coord",
    "albanese",
    "albanese_jacobian",
    "jacobian_rank",
    "metric_matrix",
    "metric_eval",
    "relabel",
    "curve_length",
    "rank_scan",
    "BadIndex",
    "InvalidChart",
    "SeamTooClose",
    "NotAPermutation",
    "DimensionMismatch",
    "NonFiniteEntry",
]


class BadIndex(ValueError):
    """Triple index out of range or not strictly increasing."""


class InvalidChart(ArithmeticError):
    """Chart coordinates coincide with each other or with the gauge points."""


class SeamTooClose(ArithmeticError):
    """A finite-difference stencil would straddle a seam of the cover."""


class NotAPermutation(ValueError):
    """Relabeling sequence is not a permutation of 1..n."""


class DimensionMismatch(ValueError):
    """Vector length does not match the chart dimension."""


class NonFiniteEntry(ValueError):
    """Matrix contains NaN or infinite entries."""


@dataclass(frozen=True)
class Configuration:
    """Ordered marked points (x_0, ..., x_n) with the root at index 0."""

    points: tuple[ProjPoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if len(pts) < 4:
            raise ValueError("a configuration needs n >= 3, i.e. at least 4 points")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def min_separation(self) -> float:
        """Smallest pairwise chordal distance; 0 on boundary strata."""
        pts = self.points
        return min(
            chordal(pts[i], pts[j])
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )

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


@dataclass(frozen=True)
class ChartPoint:
    """Gauge-fixed coordinates: affine positions of x_1..x_{n-2}."""

    u: tuple[float, ...]

    def __post_init__(self):
        u = tuple(float(v) for v in self.u)
        if not u:
            raise ValueError("chart needs at least one coordinate (n >= 3)")
        if not all(math.isfinite(v) for v in u):
            raise InvalidChart("chart coordinates must be finite")
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return len(self.u) + 2

    def as_array(self) -> np.ndarray:
        return np.asarray(self.u, dtype=float)


def triples(n: int) -> list[tuple[int, int, int]]:
    """All 3-element subsets of {1..n} in lexicographic order."""
    return list(combinations(range(1, n + 1), 3))


def check_triple(s: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    i, j, k = (int(v) for v in s)
    if not (1 <= i < j < k <= n):
        raise BadIndex(f"{(i, j, k)} is not an increasing triple in 1..{n}")
    return (i, j, k)


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


def albanese(c: Configuration) -> list[CirclePoint]:
    """All triple coordinates, in lexicographic triple order.

    triple_coord of each triple bit for bit, taken on the stored pairs without a point per value.
    """
    pairs = [(p.a, p.b) for p in c.points]
    a0, b0 = pairs[0]
    values = []
    for i, j, k in triples(c.n):
        num, den = _cross_checked(a0, b0, *pairs[i], *pairs[j], *pairs[k])
        _, num, den, _ = _branch(*_canon(num, den))
        values.append(CirclePoint(num / den))
    return values


# -- fast chart-side evaluation ------------------------------------------

@functools.lru_cache(maxsize=32)
def _triple_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Triple index table and the b column of its last point (0 at the infinity anchor).

    Cached and read-only: every Jacobian at the same n shares one table.
    """
    t = np.asarray(triples(n), dtype=int)
    bk = (t[:, 2] != n).astype(float)
    t.flags.writeable = bk.flags.writeable = False
    return t, bk


@functools.lru_cache(maxsize=32)
def _incidence(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Triples that contain each chart point, and where they hold it.

    Row r of the (n - 2, K) index table lists, in triple order, the
    K = C(n - 1, 2) triples that contain point r + 1, the point of chart
    coordinate r; the (n - 2, K, 3) mask marks the slot holding it.  No
    other triple ratio depends on that coordinate.  Cached and read-only.
    """
    t = _triple_arrays(n)[0]
    pts = np.arange(1, n - 1)[:, None]
    idx = np.array([np.flatnonzero((t == p).any(axis=1)) for p in pts[:, 0]])
    moved = t[idx] == pts[:, :, None]
    idx.flags.writeable = moved.flags.writeable = False
    return idx, moved


def _chart_pairs(u: np.ndarray, trip: np.ndarray, bk: np.ndarray):
    """Homogeneous pairs of (x_0, x_i, x_j, x_k) for every triple, on the last axis.

    In the standard gauge x_0 = [0 : 1], x_m = [u_m : 1], x_{n-1} = [1 : 1]
    and x_n = [1 : 0]; only the last point of a triple can be x_n.  Leading
    axes of u are batch axes.
    """
    lead = u.shape[:-1]
    a = np.concatenate([np.zeros(lead + (1,)), u, np.ones(lead + (2,))], axis=-1)
    return 0.0, 1.0, a[..., trip[..., 0]], 1.0, a[..., trip[..., 1]], 1.0, a[..., trip[..., 2]], bk


def _chart_ratios(u: np.ndarray, trip: np.ndarray, bk: np.ndarray) -> np.ndarray:
    """Cross-ratios of all triples at a chart, as affine values.

    The same determinant formula as the exact path's cross_ratio.
    """
    num, den = _cross(*_chart_pairs(u, trip, bk))
    return num / den


def _cover_values(rho: np.ndarray) -> np.ndarray:
    """Circle cover of affine ratios: the array copy of cover._branch.

    The branch values stay affine, 1/(1-x), x and 1 - 1/x, rather than
    the homogeneous quotients of _branch: the central differences divide
    every one-ulp change of a value by 2 h, so other rounding would move
    the printed Jacobian-derived output.
    """
    t = np.empty_like(rho)
    neg = rho < 0.0
    mid = (rho >= 0.0) & (rho <= 1.0)
    up = rho > 1.0
    t[neg] = 1.0 / (1.0 - rho[neg])
    t[mid] = rho[mid]
    t[up] = 1.0 - 1.0 / rho[up]
    return t


def _seam_margin(rho: np.ndarray) -> np.ndarray:
    """Smallest chordal distance from any triple ratio on the last axis to {0, 1, infinity}."""
    s = np.hypot(rho, 1.0)
    d0 = np.abs(rho) / s
    d1 = np.abs(rho - 1.0) / (s * math.sqrt(2.0))
    dinf = 1.0 / s
    return np.min(np.minimum(np.minimum(d0, d1), dinf), axis=-1)


def _chart_margins(U: np.ndarray, trip: np.ndarray, bk: np.ndarray) -> np.ndarray:
    """Seam margin of each chart on the last axis of U; NaN where coordinates collide.

    Colliding or huge coordinates make 0/0, x/0 and overflowing products,
    so numpy's warnings are silenced: the caller refuses any margin that
    is not above its bound, NaN included.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _seam_margin(_chart_ratios(U, trip, bk))


def _wrap(d: np.ndarray) -> np.ndarray:
    return (d + 0.5) % 1.0 - 0.5


def _central_jacobians(U: np.ndarray, h: float, trip: np.ndarray, bk: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians at a block of charts U (m, dim), as an (m, T, dim) stack.

    Column r moves coordinate r by +h and -h and evaluates only the
    C(n - 1, 2) triples that contain its point, all columns of all charts
    in one cross-ratio and cover evaluation per sign.  Each entry is the
    same float operations as perturbing one chart and one coordinate at a
    time, and every other entry is an exact zero, as there.  Each
    difference is wrapped into the lift nearest the base value.  The
    caller checks the seam margin; InvalidChart if h is below the
    resolution of some coordinate, so that u + h or u - h rounds to u.
    """
    m, dim = U.shape
    idx, moved = _incidence(dim + 2)
    _, _, ai, _, aj, _, ak, bks = _chart_pairs(U, trip[idx], bk[idx])
    t = []
    for v in (U + h, U - h):
        if (v == U).any():
            c, r = np.argwhere(v == U)[0]
            raise InvalidChart(
                f"step h = {h:.3e} does not move chart coordinate {r + 1} = {float(U[c, r])!r}"
            )
        v = v[:, :, None]
        num, den = _cross(
            0.0, 1.0,
            np.where(moved[..., 0], v, ai), 1.0,
            np.where(moved[..., 1], v, aj), 1.0,
            np.where(moved[..., 2], v, ak), bks,
        )
        t.append(_cover_values(num / den))
    jac = np.zeros((m, len(trip), dim))
    jac[:, idx, np.arange(dim)[:, None]] = _wrap(t[0] - t[1]) / (2.0 * h)
    return jac


def _pullback(jac: np.ndarray) -> np.ndarray:
    """The averaged metric J^T J / T of one Jacobian, symmetrised."""
    g = jac.T @ jac / float(len(jac))
    return 0.5 * (g + g.T)


# Trials per rank_scan block: about 1e4 stencil values at n = 8.  Larger
# blocks raise the peak RSS of rank-scan and save little time.  The random
# streams of a chunk of 16 blocks are seeded and drawn together, a few
# microseconds per trial, so they no longer dominate a block.
_SCAN_BLOCK = 16
_SCAN_CHUNK = 16 * _SCAN_BLOCK


def _check_step(h: float, tol: float | None = None) -> float:
    """h as a float; ValueError unless h is finite and positive and tol, if given, is in (0, 1)."""
    h = float(h)
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and positive, got {h}")
    if tol is not None and not 0.0 < float(tol) < 1.0:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")
    return h


def albanese_jacobian(u: ChartPoint, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the circle-lifted triple coordinates at a chart.

    Entry (S, m) approximates the partial derivative of the coordinate of
    triple S with respect to u_m by symmetric differences of the cover
    values, each wrapped into the lift nearest the base value.

    Raises SeamTooClose unless every triple ratio is more than 10 h
    (chordal) from a marked point, where the stencil could straddle a
    seam; colliding coordinates, whose ratios are 0/0 or infinite, are
    refused as well.  Raises ValueError unless h is finite and positive,
    and InvalidChart if u + h or u - h rounds back to u.
    """
    h = _check_step(h)
    trip, bk = _triple_arrays(u.n)
    base = u.as_array()
    margin = _chart_margins(base, trip, bk)
    if not margin > 10.0 * h:
        raise SeamTooClose(f"seam margin {margin:.3e} is not above 10 h = {10 * h:.3e}")
    return _central_jacobians(base[None], h, trip, bk)[0]


def _exact_jacobian(u: ChartPoint) -> list[list[Fraction]]:
    """The Jacobian at exactly the chart u, as rows of Fractions in triple order.

    A float chart is a dyadic rational point, and the cross-ratios and the
    cover are rational on each branch, so every entry is rational.  For
    D(p, q) = a_p b_q - a_q b_p, d log|D| / d a_p = b_q / D and
    d log|D| / d a_q = -b_p / D; rho = D(0,i) D(j,k) / (D(0,j) D(i,k)), and
    an entry is k'(rho) rho d log rho / d u_m with the cover derivative
    k' = (den / branch den)^2.  Raises InvalidChart unless 0, the chart
    values and 1 are pairwise distinct.
    """
    vals = [Fraction(0), *map(Fraction, u.u), Fraction(1)]
    if len(set(vals)) < len(vals):
        raise InvalidChart("chart coordinates coincide with each other or with 0 or 1")
    pairs = [(a, 1) for a in vals] + [(Fraction(1), 0)]
    rows = []
    for t in triples(u.n):
        (a0, b0), (ai, bi), (aj, bj), (ak, bk) = pairs[0], *(pairs[p] for p in t)
        num, den = _cross(a0, b0, ai, bi, aj, bj, ak, bk)
        if den < 0:
            num, den = -num, -den
        scale = (den / _branch(num, den)[2]) ** 2 * num / den
        d0i, djk = _det(a0, b0, ai, bi), _det(aj, bj, ak, bk)
        d0j, dik = _det(a0, b0, aj, bj), _det(ai, bi, ak, bk)
        grad = (-b0 / d0i - bk / dik, bk / djk + b0 / d0j, bi / dik - bj / djk)
        row = [Fraction(0)] * (u.n - 2)
        for p, g in zip(t, grad):
            if p <= u.n - 2:
                row[p - 1] = scale * g
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


def _rank_and_ratio(jac: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ranks at relative singular value tolerance tol, and ratios s_min / s_max.

    jac is one Jacobian or a (..., T, dim) stack of them, decomposed in
    one SVD call; an all-zero Jacobian has rank 0 and ratio 0.0.
    """
    jac = np.asarray(jac, dtype=float)
    if not np.isfinite(jac).all():
        raise NonFiniteEntry("jacobian contains non-finite entries")
    s = np.linalg.svd(jac, compute_uv=False)
    top = s.max(axis=-1, initial=0.0)
    low = s.min(axis=-1, initial=np.inf)
    rank = np.sum(s > tol * top[..., None], axis=-1)
    return rank, np.divide(low, top, out=np.zeros_like(top), where=top > 0.0)


def jacobian_rank(jac: np.ndarray, tol: float = 1e-6) -> int:
    """Number of singular values above tol times the largest."""
    return int(_rank_and_ratio(jac, tol)[0])


def metric_matrix(u: ChartPoint, h: float = 1e-6) -> np.ndarray:
    """Averaged pullback metric J^T J / C(n,3) in chart coordinates.

    Exactly the average over triples of the squared coordinate
    differentials; symmetric positive semidefinite by construction.
    """
    return _pullback(albanese_jacobian(u, h))


def metric_eval(u: ChartPoint, v, w, h: float = 1e-6) -> float:
    """Bilinear evaluation v^T G(u) w of the averaged metric."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    dim = u.n - 2
    if v.shape != (dim,) or w.shape != (dim,):
        raise DimensionMismatch(f"tangent vectors must have length {dim}")
    return float(v @ metric_matrix(u, h) @ w)


def relabel(perm, c: Configuration) -> Configuration:
    """Relabel leaves by a permutation of 1..n; the root stays put.

    perm[i-1] is the new label of leaf i.
    """
    n = c.n
    perm = [int(v) for v in perm]
    if sorted(perm) != list(range(1, n + 1)):
        raise NotAPermutation(f"{perm} is not a permutation of 1..{n}")
    pts: list[ProjPoint | None] = [None] * (n + 1)
    pts[0] = c.points[0]
    for i, target in enumerate(perm, start=1):
        pts[target] = c.points[i]
    return Configuration(tuple(pts))


# T * dim stencil values per curve_length block: 1024 charts at n = 4,
# one at n = 16.  Larger blocks hold more stencil memory at once and save
# little time.
_PATH_BUDGET = 8192


def curve_length(samples, h: float = 1e-6, max_splits: int = 12) -> float:
    """Length of a piecewise linear chart path under the averaged metric.

    Composite rule: each segment contributes sqrt(du^T G(mid) du).
    Segments whose midpoint is too close to a seam are bisected; at the
    split-depth cap the metric is evaluated one-sidedly at the first of
    the points 1/4, 3/4, 1/10, 9/10, 0 and 1 of the way along the piece
    with enough seam margin, or else the midpoint's SeamTooClose stands.  An InvalidChart is never bisected.
    The pieces of one split depth, and then the fallback points at the
    cap, are evaluated together in blocks, one seam check and one stencil
    per block, with the same bits as one metric_matrix call each.  The
    first failing piece in path order raises its error.
    """
    h = _check_step(h)
    pts = [s.as_array() if isinstance(s, ChartPoint) else np.asarray(s, float) for s in samples]
    if len(pts) < 2:
        raise ValueError("curve needs at least two samples")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise DimensionMismatch("samples must share one chart dimension")
    P = np.array(pts)
    dim = P.shape[1]
    block = max(1, _PATH_BUDGET // max(1, math.comb(dim + 2, 3) * dim))

    def first_error(values):
        return next((v for v in values if isinstance(v, ArithmeticError)), None)

    def metrics(U: np.ndarray) -> list:
        """What metric_matrix gives at each row of U: the matrix, or the error it raises."""
        out = [None] * len(U)
        for s in range(0, len(U), block):
            trip, bk = _triple_arrays(dim + 2)
            V = U[s:s + block]
            ok = np.flatnonzero(np.isfinite(V).all(axis=1) & (_chart_margins(V, trip, bk) > 10.0 * h))
            try:
                for i, jac in zip(s + ok, _central_jacobians(V[ok], h, trip, bk)):
                    out[i] = _pullback(jac)
            except InvalidChart:
                pass  # each row of this block is evaluated alone below
        for i in [i for i, g in enumerate(out) if g is None]:
            try:
                out[i] = metric_matrix(ChartPoint(tuple(U[i])), h)
            except (SeamTooClose, InvalidChart) as err:
                out[i] = err.with_traceback(None)  # kept as a value: no cycle through this frame
        return out

    def lengths(A: np.ndarray, B: np.ndarray, depth: int) -> list:
        """Length or error of each piece A[i] -> B[i], in path order, a block at a time."""
        out = []
        for s in range(0, len(A), block):
            a, b = A[s:s + block], B[s:s + block]
            du, mid = b - a, 0.5 * (a + b)
            live = np.flatnonzero(du.any(axis=1))
            got = [0.0] * len(a)
            for i, g in zip(live, metrics(mid[live])):
                got[i] = g
            cut = [i for i in live if isinstance(got[i], SeamTooClose)]
            if cut and depth > 0:
                ends = np.stack([a[cut], mid[cut], b[cut]], axis=1)  # halves in path order
                halves = lengths(ends[:, :2].reshape(-1, dim), ends[:, 1:].reshape(-1, dim), depth - 1)
                for i, lo, hi in zip(cut, halves[::2], halves[1::2]):
                    got[i] = first_error((lo, hi)) or lo + hi
            elif cut:
                f = np.array([0.25, 0.75, 0.1, 0.9, 0.0, 1.0])  # tried in this order
                k = len(f)
                gs = metrics((a[cut, None] + f[:, None] * du[cut, None]).reshape(-1, dim))
                for j, i in enumerate(cut):
                    tried = (g for g in gs[k * j:k * j + k] if not isinstance(g, SeamTooClose))
                    got[i] = next(tried, got[i])
            out += [
                math.sqrt(max(float(d @ g @ d), 0.0)) if isinstance(g, np.ndarray) else g
                for d, g in zip(du, got)
            ]
            err = first_error(out[s:])
            if err:
                return out + [err] * (len(A) - len(out))  # no later piece can fail first
        return out

    with np.errstate(over="ignore", invalid="ignore"):  # huge charts overflow du, mid and du^T G du
        out = lengths(P[:-1], P[1:], max_splits)
    if first_error(out):
        raise first_error(out)
    return sum(out)


def rank_scan(
    n: int,
    trials: int,
    seed: int = 0,
    h: float = 1e-6,
    tol: float = 1e-6,
    reject_cap: int = 1000,
) -> dict:
    """Random probe of the Albanese differential rank at desk scale.

    Draws chart coordinates i.i.d. from the circle's round measure
    pushed to the line (tan of a uniform angle), rejecting draws whose
    seam margin is at most 10 h, and reports how often the Jacobian has
    full rank n - 2.  Trial k draws from its own random stream, the
    doubles of NumPy's default generator seeded with [seed, k], bit for
    bit, so the report is reproducible and order-independent; the streams
    are computed for a chunk of _SCAN_CHUNK trials at once, without
    numpy.random, and a rejected draw is redrawn from its trial's stream.
    Trials are evaluated in blocks: one stencil evaluation and one SVD
    call per block, with the same bits as one Jacobian per trial.
    """
    n = int(n)
    trials = int(trials)
    if not 3 <= n <= 8:
        raise ValueError("rank_scan supports 3 <= n <= 8")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if reject_cap < 1:
        raise ValueError("reject_cap must be >= 1")
    h = _check_step(h, tol)
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    from ._streams import pcg64_doubles, pcg64_streams

    trip, bk = _triple_arrays(n)
    dim = n - 2

    def draw(state: np.ndarray, inc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        state, r = pcg64_doubles(state, inc, dim)
        return state, np.tan(np.pi * (r + 0.25))

    def accepted(U: np.ndarray) -> np.ndarray:
        return np.isfinite(U).all(axis=-1) & (_chart_margins(U, trip, bk) > 10.0 * h)

    def blocks():
        """(trials, charts) per block; each rejected chart is redrawn from its own stream."""
        for c0 in range(0, trials, _SCAN_CHUNK):
            chunk = range(c0, min(c0 + _SCAN_CHUNK, trials))
            state, inc = pcg64_streams(seed, chunk)
            state, drawn = draw(state, inc)
            for b0 in range(0, len(chunk), _SCAN_BLOCK):
                U = drawn[b0:b0 + _SCAN_BLOCK]
                rows, tries = np.flatnonzero(~accepted(U)), 1
                while len(rows) and tries < reject_cap:
                    i = b0 + rows
                    state[i], U[rows] = draw(state[i], inc[i])
                    rows, tries = rows[~accepted(U[rows])], tries + 1
                if len(rows):
                    raise SeamTooClose(
                        f"trial {chunk[b0 + rows[0]]}: no draw with seam margin above 10 h in {reject_cap} tries"
                    )
                yield chunk[b0:b0 + _SCAN_BLOCK], U

    full = 0
    min_rank = dim
    worst_ratio = math.inf
    counterexample = None
    for ks, U in blocks():
        rank, ratio = _rank_and_ratio(_central_jacobians(U, h, trip, bk), tol)
        short = np.flatnonzero(rank < dim)
        full += len(ks) - len(short)
        if counterexample is None and len(short):
            counterexample = [float(v) for v in U[short[0]]]
        min_rank = min(min_rank, int(rank.min()))
        worst_ratio = min(worst_ratio, float(ratio.min()))
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "h": float(h),
        "tol": float(tol),
        "full_rank_count": full,
        "min_rank": min_rank,
        "worst_sigma_ratio": worst_ratio,
        "counterexample": counterexample,
    }
