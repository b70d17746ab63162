"""The averaged pullback metric on charts, its Jacobian and the rank probe.

The chart layer over treemoduli.configuration: numpy evaluation of the
triple coordinates at gauge-fixed charts u = (u_1, ..., u_{n-2}),
central-difference Jacobians of the Albanese map, and the average of
the squared differentials, a continuous, piecewise smooth metric on
which leaf relabelings act by isometries.  The exact layer's names are
re-exported here.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .configuration import (  # the exact layer, re-exported
    BadIndex, ChartPoint, Configuration, InvalidChart, NotAPermutation, albanese, chart_coords,
    chart_embed, check_triple, forgetful, relabel, triple_coord, triples,
)
from .projline import _integer

__all__ = [
    "Configuration", "ChartPoint", "triples", "check_triple", "chart_coords", "chart_embed",
    "forgetful", "triple_coord", "albanese", "albanese_jacobian", "jacobian_rank", "metric_matrix",
    "metric_eval", "relabel", "curve_length", "rank_scan", "BadIndex", "InvalidChart", "SeamTooClose",
    "NotAPermutation", "DimensionMismatch", "NonFiniteEntry",
]


class SeamTooClose(ArithmeticError):
    """A finite-difference stencil would straddle a seam of the cover."""


class DimensionMismatch(ValueError):
    """Vector length does not match the chart dimension."""


class NonFiniteEntry(ValueError):
    """Matrix contains NaN or infinite entries."""


# Largest n the chart layer takes, 62 chart coordinates: there the table holds
# 8.7 MiB and a first metric, table included, peaks at 36.4 MiB.  Both grow as n^4.
_MAX_N = 64


@functools.lru_cache(maxsize=8)
def _table(n: int) -> tuple[np.ndarray, ...]:
    """The chart layer's arrays at n, in this order: trip, gather, bk, bk[idx] and flat.

    trip (T, 3) lists the triples and bk the b column of their last point
    (0 at the infinity anchor).  Row r of the (n - 2, K) index table idx
    lists, in triple order, the K = C(n - 1, 2) triples that contain point
    r + 1, the point of chart coordinate r; no other triple ratio depends on
    that coordinate, and flat[r K + k] is entry (idx[r, k], r) of a flat
    (T, n - 2) Jacobian.  Entry (slot, sign, r, k) of the (3, 2, n - 2, K)
    gather table is the row, in a chart's value table [0, u_1 .. u_{n-2}, 1, 1,
    u_1 + h .. u_{n-2} + h, u_1 - h .. u_{n-2} - h], of that slot's point of
    triple idx[r, k], with point r + 1 moved by +h or -h.  Read-only, cached
    for the last 8 n; ValueError above n = _MAX_N, before anything is allocated.
    """
    if n > _MAX_N:
        raise ValueError(f"a chart of {n - 2} coordinates is above the limit of {_MAX_N - 2} (n <= {_MAX_N})")
    trip = np.asarray(triples(n), dtype=int)
    bk = (trip[:, 2] != n).astype(float)
    pts = np.arange(1, n - 1)
    idx = np.array([np.flatnonzero((trip == p).any(axis=1)) for p in pts])
    slots = trip[idx].transpose(2, 0, 1)[:, None]
    moved = n + pts[:, None] + np.arange(2)[:, None, None] * (n - 2)
    table = trip, np.where(slots == pts[:, None], moved, slots), bk, bk[idx], (idx * (n - 2) + pts[:, None] - 1).ravel()
    for a in table:
        a.flags.writeable = False
    return table


def _gauge_ratios(a: np.ndarray, i: np.ndarray, j: np.ndarray, k: np.ndarray, bk: np.ndarray) -> np.ndarray:
    """Cross-ratios of [0 : 1], [a_i : 1], [a_j : 1] and [a_k : b_k], the a gathered from the last axis of a.

    (0 - a_i)(a_j b_k - a_k) / ((0 - a_j)(a_i b_k - a_k)): projline._cross with
    its exact products by 1.0 dropped and every other operation in its order,
    so its num / den bit for bit.  In place: at most four result-sized arrays.
    """
    x13 = a.take(i, axis=-1) * bk
    ak = a.take(k, axis=-1)
    x13 -= ak
    aj = a.take(j, axis=-1)
    den = np.multiply(0.0 - aj, x13, out=x13)
    aj *= bk
    aj -= ak
    del ak  # take copies its read-only index, so one more array is alive during each take
    num = np.multiply((0.0 - a).take(i, axis=-1), aj, out=aj)
    return np.divide(num, den, out=num)


def _chart_ratios(u: np.ndarray) -> np.ndarray:
    """Cross-ratios of all triples at a chart, as affine values, on the last axis.

    The exact path's cross_ratio on the standard gauge x_0 = [0 : 1],
    x_m = [u_m : 1], x_{n-1} = [1 : 1] and x_n = [1 : 0]; only the last
    point of a triple can be x_n.  Leading axes of u are batch axes.
    """
    trip, _, bk, _, _ = _table(u.shape[-1] + 2)
    a = np.concatenate([np.zeros(u.shape[:-1] + (1,)), u, np.ones(u.shape[:-1] + (2,))], axis=-1)
    return _gauge_ratios(a, *trip.T, bk)


def _cover_values(rho: np.ndarray) -> np.ndarray:
    """Circle cover of affine ratios: the array copy of cover._branch.

    The branch values stay affine, 1/(1-x), x and 1 - 1/x, rather than
    the homogeneous quotients of _branch: the central differences divide
    every one-ulp change of a value by 2 h, so other rounding would move
    the printed Jacobian-derived output.
    """
    with np.errstate(divide="ignore", over="ignore"):  # the branches not taken
        return np.where(rho < 0.0, 1.0 / (1.0 - rho), np.where(rho <= 1.0, rho, 1.0 - 1.0 / rho))


def _seam_margin(rho: np.ndarray) -> np.ndarray:
    """Smallest chordal distance from any triple ratio on the last axis to {0, 1, infinity}."""
    s = np.hypot(rho, 1.0)
    d0 = np.abs(rho) / s
    d1 = np.abs(rho - 1.0) / (s * math.sqrt(2.0))
    dinf = 1.0 / s
    return np.min(np.minimum(np.minimum(d0, d1), dinf), axis=-1)


def _wrap(d: np.ndarray) -> np.ndarray:
    """(d + 0.5) % 1.0 - 0.5 bit for bit for d in [-1, 1], where the modulo is a shift by 1 (exact)."""
    x = d + 0.5
    if x.min(initial=0.0) < 0.0 or x.max(initial=0.0) >= 1.0:
        x = np.where(x < 0.0, x + 1.0, np.where(x >= 1.0, x - 1.0, x))
    return x - 0.5


def _refusals(U: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The first stencil rule each chart of a block U (..., dim) breaks, and its seam margin.

    Both have the leading axes of U.  Every stencil's one rule, in order: 1 for
    a non-finite coordinate; 2 unless the seam margin (NaN at colliding
    coordinates) is above 10 h, so no stencil straddles a seam; 3 where u + h
    or u - h rounds to u.  0 where none is broken.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # colliding or huge coordinates
        margin = _seam_margin(_chart_ratios(U))
        stuck = ((U + h == U) | (U - h == U)).any(axis=-1)
    finite = np.isfinite(U).all(axis=-1)
    return np.where(finite, np.where(margin > 10.0 * h, np.where(stuck, 3, 0), 2), 1), margin


def _refusal(u: np.ndarray, rule: int, margin: float, h: float) -> ArithmeticError:
    """The error metric_matrix raises at a chart u that _refusals refuses by rule (margin: its seam margin)."""
    if rule == 1:
        return InvalidChart("chart coordinates must be finite")
    if rule == 2:
        return SeamTooClose(f"seam margin {margin:.3e} is not above 10 h = {10 * h:.3e}")
    r = np.flatnonzero(u + h == u if (u + h == u).any() else u - h == u)[0]  # u + h before u - h
    return InvalidChart(f"step h = {h:.3e} does not move chart coordinate {r + 1} = {float(u[r])!r}")


# The chart layer's one memory bound: a stencil slice takes _BUDGET // (T * dim)
# charts (1024 at n = 4, 24 at n = 8, one at n = 16), a curve_length screen
# _BUDGET // (4 T) pieces (512 at n = 4, 3 at n = 16), and a rank_scan redraw
# round at most _BUDGET // (open trials * dim) charts per trial (85 for a full
# block at n = 8).  At n = 16 a slice peaks at about 160 KiB per chart and a
# screen at 31 KiB per piece: screens of one piece spend the time in call
# overhead, while larger slices or screens raise the peak RSS.
_BUDGET = 8192


def _central_jacobians(U: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobians at a block of charts U (m, dim), as an (m, T, dim) stack.

    Column r moves coordinate r by +h and -h and evaluates only the
    C(n - 1, 2) triples that contain its point.  Slices of _BUDGET // (T * dim)
    charts, charts on the leading axis, gather the operands of both signs
    through the gather table of _table and take their cross-ratios and one
    cover.  Each entry is the same float operations as perturbing one chart
    and one coordinate at a time, and every other entry is an exact zero, as
    there.  Each difference is wrapped into the lift nearest the base value.
    U holds only rows that _refusals passes.
    """
    m, dim = U.shape
    trip, gather, _, bk_idx, flat = _table(dim + 2)
    jac, step = np.zeros((m, len(trip) * dim)), max(1, _BUDGET // (len(trip) * dim))
    for s in range(0, m, step):
        V = U[s:s + step]
        a = np.concatenate([np.zeros((len(V), 1)), V, np.ones((len(V), 2)), V + h, V - h], axis=1)
        t = _cover_values(_gauge_ratios(a, *gather, bk_idx))  # (charts, sign, dim, K)
        jac[s:s + step, flat] = (_wrap(t[:, 0] - t[:, 1]) / (2.0 * h)).reshape(len(V), -1)
    return jac.reshape(m, len(trip), dim)


def _pullback(jac: np.ndarray) -> np.ndarray:
    """The averaged metric J^T J / T of a Jacobian, or of each of a (..., T, dim) stack, symmetrised."""
    g = jac.swapaxes(-1, -2) @ jac / float(jac.shape[-2])
    return 0.5 * (g + g.swapaxes(-1, -2))


# Trials per rank_scan redraw loop.  A trial that exhausts its tries, or a
# stuck step, stops the scan at its block.  The random streams of a chunk
# of 16 blocks are seeded, drawn and screened for their first chart
# together, and the chunk's accepted charts get one stencil and one SVD call.
_SCAN_BLOCK = 16
_SCAN_CHUNK = 16 * _SCAN_BLOCK


def _check_step(h: float) -> float:
    """h as a float; ValueError unless h is a finite and positive real number."""
    if not (isinstance(h, numbers.Real) and math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    return float(h)


def albanese_jacobian(u: ChartPoint, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the circle-lifted triple coordinates at a chart.

    Entry (S, m) approximates the partial derivative of the coordinate of
    triple S with respect to u_m by symmetric differences of the cover
    values, each wrapped into the lift nearest the base value.

    Raises ValueError unless h is finite and positive, and the _refusal of
    a refused chart: SeamTooClose within 10 h (chordal) of a seam or at
    colliding coordinates, InvalidChart if u +- h rounds to u.
    """
    h = _check_step(h)
    base = u.as_array()[None]
    rule, margin = _refusals(base, h)
    if rule[0]:
        raise _refusal(base[0], rule[0], margin[0], h)
    return _central_jacobians(base, h)[0]


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
    if not (np.isfinite(v).all() and np.isfinite(w).all()):
        raise NonFiniteEntry("tangent vectors must be finite")
    return float(v @ metric_matrix(u, h) @ w)


def curve_length(samples, h: float = 1e-6, max_splits: int = 12) -> float:
    """Length of a piecewise linear chart path under the averaged metric.

    Composite rule: each segment contributes sqrt(du^T G(mid) du).
    Segments whose midpoint is too close to a seam are bisected; at the
    split-depth cap the metric is evaluated one-sidedly at the first of
    the points 1/4, 3/4, 1/10, 9/10, 0 and 1 of the way along the piece
    with enough seam margin, or else the midpoint's SeamTooClose stands.
    An InvalidChart is never bisected.  The pieces of one split depth are
    screened in blocks, one _refusals screen of the midpoints and one of the
    fallback points at the cap per block, and a block's accepted charts get
    one stacked stencil, pullback and quadratic form.
    Each piece carries its _refusals rule, seam margin and chart; only the
    first failing piece in path order has its error built and raised.
    """
    h, max_splits = _check_step(h), _integer(max_splits, "max_splits")
    if max_splits < 0:
        raise ValueError("max_splits must be >= 0")
    pts = [s.as_array() if isinstance(s, ChartPoint) else np.asarray(s, float) for s in samples]
    if len(pts) < 2:
        raise ValueError("curve needs at least two samples")
    shape = next((p.shape for p in pts if p.ndim != 1), None)
    if shape is not None:
        raise ValueError(f"samples must be a sequence of 1-D coordinate rows, got a sample of shape {shape}")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise DimensionMismatch("samples must share one chart dimension")
    if dims == {0}:
        raise ValueError("chart needs at least one coordinate (n >= 3)")
    P = np.array(pts)
    dim = P.shape[1]
    T = math.comb(dim + 2, 3)
    block = max(1, _BUDGET // (4 * T))  # pieces per screen
    f = np.array([0.25, 0.75, 0.1, 0.9, 0.0, 1.0])  # fallback points, tried in this order

    def lengths(A: np.ndarray, B: np.ndarray, depth: int) -> tuple[np.ndarray, ...]:
        """Length L, rule R, seam margin M and chart C of each piece A[i] -> B[i], in path order.

        R is the _refusals rule of the piece's first failure (0 for none),
        M its margin and C the chart where the piece is evaluated or fails.
        Pieces after the first block that fails are not evaluated and keep
        rule 0: they lie after its first failure in path order.
        """
        du = B - A
        C = 0.5 * (A + B)
        C = np.where(np.isinf(C), 0.5 * A + 0.5 * B, C)  # a + b overflowed; halving is exact there
        L, R, M = np.zeros(len(A)), np.zeros(len(A), int), np.zeros(len(A))
        for s in range(0, len(A), block):
            live = s + np.flatnonzero(du[s:s + block].any(axis=1))  # a piece of length 0 has rule 0
            R[live], M[live] = _refusals(C[live], h)
            cut = live[R[live] == 2]
            if len(cut) and depth == 0:
                F = A[cut, None] + f[:, None] * du[cut, None]  # (pieces, points, dim)
                rule, margin = _refusals(F, h)
                k = (rule == 2).argmin(axis=1)  # the first point not refused for a seam, or 0
                j = np.flatnonzero(rule[np.arange(len(cut)), k] != 2)  # elsewhere the midpoint's failure stands
                i, k = cut[j], k[j]
                R[i], M[i], C[i] = rule[j, k], margin[j, k], F[j, k]
            ok = live[R[live] == 0]
            d, G = du[ok, None], _pullback(_central_jacobians(C[ok], h))
            L[ok] = np.sqrt(np.maximum(d @ G @ d.swapaxes(-1, -2), 0.0))[:, 0, 0]
            if len(cut) and depth > 0:
                ends = np.stack([A[cut], C[cut], B[cut]], axis=1)  # halves in path order
                got = lengths(ends[:, :2].reshape(-1, dim), ends[:, 1:].reshape(-1, dim), depth - 1)
                Lh, Rh, Mh, Ch = (x.reshape(len(cut), 2, *x.shape[1:]) for x in got)
                j, k = np.arange(len(cut)), (Rh[:, 0] == 0).astype(int)  # the lower half's failure, else the upper's
                L[cut], R[cut], M[cut], C[cut] = Lh[:, 0] + Lh[:, 1], Rh[j, k], Mh[j, k], Ch[j, k]
            if R[s:s + block].any():
                break
        return L, R, M, C

    with np.errstate(over="ignore", invalid="ignore"):  # huge charts overflow du, mid and du^T G du
        L, R, M, C = lengths(P[:-1], P[1:], max_splits)
    if R.any():
        q = np.flatnonzero(R)[0]
        raise _refusal(C[q], R[q], M[q], h)
    return sum(L.tolist())


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
    numpy.random, and the chunk's first draw is screened at once.  Each
    block of _SCAN_BLOCK trials runs one redraw loop, then each chunk one stencil
    evaluation and one SVD call, with the same bits as one Jacobian per trial.
    A chart of rule 1 or 2 is redrawn, so a stream stops at its first try
    of rule 0 or 3; the earliest such try of rule 3, then the lowest trial,
    raises.  Round 0 is the first draw; each later round draws as many
    charts ahead per open trial as it has tried, up to reject_cap tries
    and to _BUDGET // (open trials * dim) charts, and a stream is not read
    after its chart is accepted.  The outcome does not depend on the round
    sizes, as every open trial has made the same number of tries.
    """
    n, trials = _integer(n, "n"), _integer(trials, "trials")
    seed, reject_cap = _integer(seed, "seed"), _integer(reject_cap, "reject_cap")
    if not 3 <= n <= 8:
        raise ValueError("rank_scan supports 3 <= n <= 8")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if reject_cap < 1:
        raise ValueError("reject_cap must be >= 1")
    h = _check_step(h)
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < 1.0):
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    tol = float(tol)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    from ._streams import pcg64_doubles, pcg64_streams

    dim = n - 2

    def draw(state: np.ndarray, inc: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next count charts of each stream, as a (count, streams, dim) array in try order."""
        state, r = pcg64_doubles(state, inc, count * dim)
        return state, np.tan(np.pi * (r + 0.25)).reshape(len(inc), count, dim).swapaxes(0, 1)

    full, min_rank, worst_ratio, counterexample = 0, dim, math.inf, None
    for c0 in range(0, trials, _SCAN_CHUNK):
        chunk = range(c0, min(c0 + _SCAN_CHUNK, trials))
        state, inc = pcg64_streams(seed, chunk)
        state, drawn = draw(state, inc, 1)
        rules, U = _refusals(drawn, h)[0], drawn[0]  # U: the accepted charts, once their blocks are done
        for b0 in range(0, len(chunk), _SCAN_BLOCK):
            rows = np.arange(b0, min(b0 + _SCAN_BLOCK, len(chunk)))
            V, rule, tries = U[None, rows], rules[:, rows], 1
            while True:
                stop = (rule % 3).argmin(axis=0)  # the first try of rule 0 or 3, else any try
                got = rule[stop, np.arange(len(rows))]
                q = np.where(got == 3, stop, len(rule)).argmin()  # the earliest stuck try, then the lowest trial
                if got[q] == 3:
                    raise _refusal(V[stop[q], q], 3, math.nan, h)
                ok = np.flatnonzero(got == 0)
                U[rows[ok]] = V[stop[ok], ok]
                rows = rows[got != 0]
                if not len(rows) or tries == reject_cap:
                    break
                ahead = min(tries, reject_cap - tries, max(1, _BUDGET // (len(rows) * dim)))
                state[rows], V = draw(state[rows], inc[rows], ahead)
                rule, tries = _refusals(V, h)[0], tries + ahead
            if len(rows):
                trial = chunk[rows[0]]
                raise SeamTooClose(f"trial {trial}: no draw with seam margin above 10 h in {reject_cap} tries")
        rank, ratio = _rank_and_ratio(_central_jacobians(U, h), tol)
        short = np.flatnonzero(rank < dim)
        full += len(U) - len(short)
        if counterexample is None and len(short):
            counterexample = [float(v) for v in U[short[0]]]
        min_rank = min(min_rank, int(rank.min()))
        worst_ratio = min(worst_ratio, float(ratio.min()))
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "h": h,
        "tol": tol,
        "full_rank_count": full,
        "min_rank": min_rank,
        "worst_sigma_ratio": worst_ratio,
        "counterexample": counterexample,
    }
