import inspect
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from treemoduli.cover import circle_cover, circle_distance, devadoss_length, logit
from treemoduli.moduli import (
    BadIndex,
    ChartPoint,
    Configuration,
    DimensionMismatch,
    InvalidChart,
    NonFiniteEntry,
    NotAPermutation,
    SeamTooClose,
    albanese,
    albanese_jacobian,
    chart_coords,
    chart_embed,
    check_triple,
    curve_length,
    forgetful,
    jacobian_rank,
    metric_eval,
    metric_matrix,
    rank_scan,
    relabel,
    triple_coord,
    triples,
)
from treemoduli.moduli import (
    _SCAN_BLOCK,
    _SCAN_CHUNK,
    _central_jacobians,
    _chart_ratios,
    _cover_values,
    _gauge_ratios,
    _pullback,
    _rank_and_ratio,
    _refusal,
    _refusals,
    _seam_margin,
    _singular_values,
    _table,
    _wrap,
)
from treemoduli._streams import pcg64_doubles, pcg64_streams
from treemoduli.configuration import _exact_jacobian, _exact_rank
from treemoduli.projline import (
    INFINITY,
    ONE,
    ZERO,
    IndeterminateCrossRatio,
    MobiusMap,
    ProjPoint,
    _cross,
    chordal,
    cross_ratio,
)

GOLDEN = Path(__file__).parent / "golden"


def pt(x):
    return ProjPoint.from_affine(x)


def random_chart(rng, n, margin=1e-4):
    """Open-stratum chart drawn from the circle's round measure."""
    while True:
        u = np.tan(np.pi * (rng.random(n - 2) + 0.25))
        if np.isfinite(u).all() and _seam_margin(_chart_ratios(u)) > margin:
            return ChartPoint(tuple(u))


def random_mobius(rng):
    while True:
        a, b, c, d = rng.uniform(-2, 2, size=4)
        if abs(a * d - b * c) > 1e-2:
            return MobiusMap(a, b, c, d)


# -- configurations and charts ---------------------------------------------------


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration((ZERO, ONE, INFINITY))
    c = Configuration((ZERO, pt(0.5), ONE, INFINITY))
    assert c.n == 3
    assert c.in_open_stratum()
    near = Configuration((ZERO, ProjPoint(1e-14, 1.0), ONE, INFINITY))
    assert not near.in_open_stratum()


def test_configuration_json_round_trip():
    c = Configuration((ZERO, pt(0.25), pt(0.6), ONE, INFINITY))
    assert Configuration.from_json(c.to_json()).points == c.points
    with pytest.raises(ValueError):
        Configuration.from_json({"n": 4, "points": [0, 0.5, 1, "inf"]})


def test_chart_coords_examples():
    c = Configuration((ZERO, pt(0.5), ONE, INFINITY))
    assert chart_coords(c).u == (0.5,)
    c = Configuration((ZERO, pt(0.2), pt(0.6), ONE, INFINITY))
    assert chart_coords(c).u == pytest.approx((0.2, 0.6))
    c = Configuration((pt(-1.0), ZERO, ONE, INFINITY))
    assert chart_coords(c).u == pytest.approx((0.5,))


def test_chart_embed_examples():
    c = chart_embed(ChartPoint((0.5,)))
    assert [p.to_json() for p in c.points] == [0.0, 0.5, 1.0, "inf"]
    c = chart_embed(ChartPoint((0.2, 0.6)))
    assert [p.to_json() for p in c.points] == [0.0, 0.2, 0.6, 1.0, "inf"]


def test_chart_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        u = random_chart(rng, n)
        v = chart_coords(chart_embed(u))
        assert v.u == pytest.approx(u.u, rel=1e-9)


def test_embed_of_coords_is_equivalent_configuration():
    # the other composition returns the same moduli point: all triple
    # coordinates agree even though the representing tuples differ
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        c = chart_embed(random_chart(rng, n)).transform(random_mobius(rng))
        c2 = chart_embed(chart_coords(c))
        for s in triples(n):
            assert circle_distance(triple_coord(c, s), triple_coord(c2, s)) < 1e-9


def test_chart_embed_rejects_collisions():
    with pytest.raises(InvalidChart):
        chart_embed(ChartPoint((0.5, 0.5)))
    with pytest.raises(InvalidChart):
        chart_embed(ChartPoint((1.0,)))
    with pytest.raises(InvalidChart):
        chart_embed(ChartPoint((0.0,)))


def test_gauge_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        c = chart_embed(random_chart(rng, n))
        m = random_mobius(rng)
        u1 = chart_coords(c)
        u2 = chart_coords(c.transform(m))
        assert np.allclose(u1.u, u2.u, rtol=1e-9, atol=1e-9)


# -- forgetful maps and triple coordinates ------------------------------------------


def test_forgetful_examples():
    pts = (ZERO, pt(0.3), pt(0.5), pt(0.7), ONE, INFINITY)
    c = Configuration(pts)
    assert forgetful(c, (1, 2, 3)) == (pts[0], pts[1], pts[2], pts[3])
    c3 = Configuration((ZERO, pt(0.5), ONE, INFINITY))
    assert forgetful(c3, (1, 2, 3)) == c3.points
    with pytest.raises(BadIndex):
        forgetful(c, (1, 2, 6))
    with pytest.raises(BadIndex):
        forgetful(c, (2, 1, 3))
    # entries must be integers, not values that truncate to one
    with pytest.raises(BadIndex):
        forgetful(c, (1, 2.5, 3))
    with pytest.raises(BadIndex):
        forgetful(c, ("1", "2", "3"))
    assert forgetful(c, (np.int64(1), 2.0, 3)) == forgetful(c, (1, 2, 3))


@pytest.mark.parametrize("t", [(), (1, 2), (1, 2, 3, 4), 5, None], ids=repr)
def test_check_triple_of_the_wrong_length_is_a_bad_index(t):
    # a value that is not a sequence at all is a bad index too, not a TypeError
    c = Configuration((ZERO, pt(0.3), pt(0.6), ONE, INFINITY))
    for call in (lambda: check_triple(t, 4), lambda: forgetful(c, t)):
        with pytest.raises(BadIndex, match=f"^{re.escape(repr(t))} is not an increasing triple in 1..4$"):
            call()


def test_triple_coord_examples():
    c = Configuration((ZERO, pt(0.5), ONE, INFINITY))
    assert triple_coord(c, (1, 2, 3)).t == 0.5
    collided = Configuration((ZERO, pt(0.4), pt(0.4), ONE, INFINITY))
    assert triple_coord(collided, (1, 2, 3)).t == 0.0
    c4 = Configuration((ZERO, pt(1.0 / 3.0), pt(0.5), ONE, INFINITY))
    assert triple_coord(c4, (1, 2, 4)).t == pytest.approx(2.0 / 3.0)


def test_fast_chart_path_matches_point_path():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        u = random_chart(rng, n)
        rho = _chart_ratios(u.as_array())
        c = chart_embed(u)
        for s, r in zip(triples(n), rho):
            slow = triple_coord(c, s)
            fast = circle_cover(ProjPoint.from_affine(r))
            assert circle_distance(slow, fast) < 1e-9


@st.composite
def extreme_charts(draw):
    """Charts with |u| from 1e-9 to 1e12 and gaps down to 1e-9 to 0, 1 or each other."""
    u = []
    for _ in range(draw(st.integers(1, 6))):
        anchors = [0.0, 1.0] + u
        if draw(st.booleans()):
            x = draw(st.sampled_from(anchors))
            gap = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-9.0, 0.0))
            u.append(x + gap * max(1.0, abs(x)))
        else:
            sign = draw(st.sampled_from((-1.0, 1.0)))
            u.append(sign * 10.0 ** draw(st.floats(-9.0, 12.0)))
    chart = ChartPoint(tuple(u))
    try:
        chart_embed(chart)
    except InvalidChart:
        assume(False)
    return chart


@settings(max_examples=200, deadline=None, derandomize=True)
@given(extreme_charts())
def test_fast_chart_path_matches_point_path_at_extreme_charts(u):
    # the chart path evaluates the exact path's determinants, so the
    # ratios agree bit for bit; the cover values differ only in rounding
    c = chart_embed(u)
    rho = _chart_ratios(u.as_array())
    for s, r, t in zip(triples(u.n), rho, _cover_values(rho)):
        assert cross_ratio(*forgetful(c, s)).affine == r
        assert circle_distance(triple_coord(c, s), t) < 1e-15


def test_albanese_enumeration():
    c = Configuration((ZERO, pt(0.5), ONE, INFINITY))
    vals = albanese(c)
    assert len(vals) == 1 and vals[0] == 0.5
    assert triples(4) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    c4 = chart_embed(ChartPoint((0.3, 0.7)))
    assert len(albanese(c4)) == 4


@st.composite
def extreme_entries(draw):
    """A homogeneous entry: zero (1 in 8), else subnormal, ordinary or huge, of either sign."""
    if draw(st.integers(0, 7)) == 0:
        return 0.0
    mag = draw(st.one_of(st.floats(5e-324, 2.2e-308), st.floats(1e-3, 1e3), st.floats(1e300, 1.7e308)))
    return draw(st.sampled_from((1.0, -1.0))) * mag


@st.composite
def homogeneous_configurations(draw):
    """4-8 points from extreme pairs; about a quarter sit at or within 1e-9 of an earlier one."""
    pts = []
    for _ in range(draw(st.integers(4, 8))):
        if pts and draw(st.integers(0, 3)) == 0:
            p = draw(st.sampled_from(pts))
            e = draw(st.sampled_from((0.0, 2.0**-52, 1e-12, 1e-9)))
            pts.append(ProjPoint(p.a * (1.0 + e), p.b * (1.0 - e)))
        else:
            a, b = draw(extreme_entries()), draw(extreme_entries())
            pts.append(ProjPoint(a, b) if (a, b) != (0.0, 0.0) else INFINITY)
    return Configuration(tuple(pts))


def benchmark_shaped_configuration(n: int, seed: int) -> Configuration:
    """n + 1 points tan(pi (r - 1/2)), every eighth as a homogeneous pair [x b : b] with b in [1/2, 2]."""
    rng = np.random.default_rng(seed)
    x = np.tan(np.pi * (rng.random(n + 1) - 0.5))
    pts = []
    for i, v in enumerate(x):
        b = float(rng.uniform(0.5, 2.0)) if i % 8 == 7 else 1.0
        pts.append(ProjPoint(float(v) * b, b))
    return Configuration(tuple(pts))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(homogeneous_configurations())
@example(benchmark_shaped_configuration(48, seed=0))  # the determinant table's indices at n = 48
# a subnormal product (4e-311 * 3.25) next to one above 2: _canon scales the pair
# by 1/2 and rounds the subnormal entry, which the sign rule alone would not do
@example(Configuration((ZERO, pt(4e-311), pt(1.5), pt(-1.75))))
# the edge of albanese's fast path: num is exactly 2**-960 (taken without _canon)
# or the next float below it (taken through _canon), next to a den of 2.36
# (_canon scales by 1/2) and one of 0.89 (_canon scales by 2)
@example(Configuration((ZERO, pt(2.0**-957), pt(-4.875), pt(-3.875))))
@example(Configuration((ZERO, pt(math.nextafter(2.0**-957, 0.0)), pt(-4.875), pt(-3.875))))
@example(Configuration((ZERO, pt(2.0**-960), pt(-4.75), pt(-0.75))))
@example(Configuration((ZERO, pt(math.nextafter(2.0**-960, 0.0)), pt(-4.75), pt(-0.75))))
@example(Configuration((ZERO, pt(3.0), pt(2.0), pt(0.5))))  # den = -1.25 on the fast path: the sign rule alone
@example(Configuration((ZERO, pt(0.5), pt(0.5), pt(2.0))))  # x_1 = x_2: num == den = 0.375 on the fast path
def test_albanese_is_triple_coord_bit_for_bit(c):
    # albanese evaluates the stored pairs without building points; it must
    # give triple_coord's value for every triple, or raise its 0/0 error
    try:
        expected = [triple_coord(c, s).t.hex() for s in triples(c.n)]
    except IndeterminateCrossRatio as exc:
        with pytest.raises(IndeterminateCrossRatio) as info:
            albanese(c)
        assert str(info.value) == str(exc)
        return
    assert [t.hex() for t in albanese(c)] == expected


def test_albanese_permutation_covariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 7))
        c = chart_embed(random_chart(rng, n))
        perm = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
        moved = relabel(perm, c)
        base = dict(zip(triples(n), albanese(c)))
        for s, t in zip(triples(n), albanese(moved)):
            src = tuple(sorted(perm.index(i) + 1 for i in s))
            # each factor is acted on through the quotient, so values
            # match up to the orientation-reversing reflection
            d_same = circle_distance(t, base[src])
            d_flip = circle_distance(t, (1.0 - base[src]) % 1.0)
            assert min(d_same, d_flip) < 1e-9


def test_devadoss_compatibility():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = chart_embed(random_chart(rng, 5, margin=1e-3))
        for s in triples(5):
            gamma = devadoss_length(*forgetful(c, s))
            via_cover = logit(ProjPoint.from_affine(triple_coord(c, s).t))
            assert gamma.isclose(via_cover, 1e-8)


def test_boundary_continuity():
    # colliding leaves drive every affected coordinate to 0 in R/Z
    prev = None
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        c = Configuration((ZERO, pt(0.4), pt(0.4 + eps), ONE, INFINITY))
        d = circle_distance(triple_coord(c, (1, 2, 3)), 0.0)
        if prev is not None:
            assert d < prev
        prev = d
    assert prev < 1e-7


# -- jacobians ------------------------------------------------------------------------


def test_jacobian_trivial_chart():
    jac = albanese_jacobian(ChartPoint((0.5,)))
    assert jac.shape == (1, 1)
    assert jac[0, 0] == pytest.approx(1.0, abs=1e-9)
    for x in (0.1, 0.37, 0.9):
        assert albanese_jacobian(ChartPoint((x,)))[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_jacobian_seam_guard():
    with pytest.raises(SeamTooClose):
        albanese_jacobian(ChartPoint((0.5, 0.5 + 1e-9)))
    with pytest.raises(SeamTooClose):
        albanese_jacobian(ChartPoint((1.0 + 1e-9,)))
    # a coordinate on the gauge point 1 makes some ratios infinite and the margin NaN
    with pytest.raises(SeamTooClose):
        albanese_jacobian(ChartPoint((1.0, 0.5)))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 16])
def test_jacobian_central_vs_analytic(n):
    rng = np.random.default_rng(5)
    for _ in range(100 if n <= 8 else 10):
        u = random_chart(rng, n)
        fd = albanese_jacobian(u)
        an = np.array(_exact_jacobian(u), dtype=float)
        assert np.allclose(fd, an, rtol=1e-5, atol=1e-8 * np.abs(an).max())


def test_exact_rank_of_constructed_matrices():
    third = Fraction(1, 3)
    rows = [[third, Fraction(2), Fraction(-1)], [Fraction(1), Fraction(6), Fraction(-3)]]
    assert _exact_rank(rows + [[a + b for a, b in zip(*rows)]]) == 1
    assert _exact_rank(rows + [[Fraction(0), Fraction(1), Fraction(0)]]) == 2
    assert _exact_rank([[Fraction(0)] * 3] * 4) == 0
    assert _exact_rank([]) == 0
    # a perturbation far below float resolution still raises the rank
    tiny = Fraction(1, 2**2000)
    assert _exact_rank([[Fraction(1), third], [Fraction(3), 1 + tiny]]) == 2
    assert _exact_rank([[Fraction(1), third], [Fraction(3), Fraction(1)]]) == 1


@pytest.mark.parametrize("u", [(0.3, 0.3), (0.0, 0.5), (1.0, 0.5)])
def test_exact_jacobian_refuses_colliding_points(u):
    with pytest.raises(InvalidChart):
        _exact_jacobian(ChartPoint(u))


def test_exact_jacobian_at_n3_is_the_cover_derivative():
    # one triple, ratio u_1 on (0, 1), where the circle cover is the identity
    assert _exact_jacobian(ChartPoint((0.375,))) == [[Fraction(1)]]


class Dual:
    """A forward-mode dual number over Fraction: a value and its gradient in the chart coordinates."""

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __sub__(self, o):
        return Dual(self.v - o.v, [a - b for a, b in zip(self.d, o.d)])

    def __mul__(self, o):
        return Dual(self.v * o.v, [a * o.v + self.v * b for a, b in zip(self.d, o.d)])

    def __truediv__(self, o):
        return Dual(self.v / o.v, [(a * o.v - self.v * b) / o.v**2 for a, b in zip(self.d, o.d)])


def dual_jacobian(u):
    """Reference exact Jacobian rows, and the cover branches the triples take.

    Duals through the affine cross-ratio (x_0, x_i; x_j, x_k) and the branches
    1/(1-x), x and 1 - 1/x; x_n is infinity, where the ratio is (x_0 - x_i) / (x_0 - x_j).
    """
    dim = len(u)
    zero, one = (Dual(Fraction(c), [Fraction(0)] * dim) for c in (0, 1))
    x = [zero, *(Dual(Fraction(v), [Fraction(int(m == r)) for m in range(dim)]) for r, v in enumerate(u)), one]
    rows, branches = [], set()
    for i, j, k in triples(dim + 2):
        if k == dim + 2:
            rho = (x[0] - x[i]) / (x[0] - x[j])
        else:
            rho = (x[0] - x[i]) * (x[j] - x[k]) / ((x[0] - x[j]) * (x[i] - x[k]))
        branch = 0 if rho.v < 0 else 1 if rho.v < 1 else 2
        t = (one / (one - rho), rho, one - one / rho)[branch]
        rows.append(t.d)
        branches.add(branch)
    return rows, branches


def test_exact_jacobian_matches_forward_mode_duals():
    # every entry equal as a Fraction, on dyadic charts with coordinates
    # below 0, in (0, 1) and above 1, so the ratios take all three branches
    rng = np.random.default_rng(29)
    seen = set()
    for n in range(3, 9):
        for draw in range(6):
            while True:
                if draw % 2:
                    u = [float(v) for v in rng.uniform(-3.0, 4.0, n - 2)]
                else:
                    u = [float(v) for v in rng.integers(-96, 128, n - 2) / 32]
                if len({0.0, 1.0, *u}) == n:
                    break
            want, branches = dual_jacobian(u)
            assert _exact_jacobian(ChartPoint(tuple(u))) == want, u
            seen |= branches
    assert seen == {0, 1, 2}


def exact_metric(u):
    """The averaged metric J^T J / T at exactly the chart u, as rows of Fractions."""
    jac = _exact_jacobian(ChartPoint(u))
    return [[sum(r[a] * r[b] for r in jac) / len(jac) for b in range(len(u))] for a in range(len(u))]


@pytest.mark.parametrize(
    "chart, low",
    [
        (lambda d, rest: (0.3 + d, 0.3, *rest), 4),  # u_1 = u_2
        (lambda d, rest: (1.0 + d, 2.5, *rest), 4),  # u_1 = 1
        (lambda d, rest: (d, 2.5, *rest), 4),  # u_1 = 0
        (lambda d, rest: (rest[0], 0.3 + d, 0.3, *rest[1:]), 5),  # u_2 = u_3
        (lambda d, rest: (0.3, *rest, 1.0 + d), 4),  # u_{n-2} = 1
        (lambda d, rest: (2.5, d, *rest), 4),  # u_2 = 0
        (lambda d, rest: (0.3 + d, *rest, 0.3), 5),  # u_1 = u_{n-2}; at n = 4 the case u_1 = u_2
    ],
    ids=["u1=u2", "u1=1", "u1=0", "u2=u3", "u(n-2)=1", "u2=0", "u1=u(n-2)"],
)
def test_exact_metric_is_continuous_across_seams(chart, low):
    # the metric on the two sides of a seam agrees to first order in the
    # offset: the largest entry difference falls about 2^10-fold for each
    # 2^-10 step of the offset (at n = 4 by 80.2, 1.93 and 1.57 times the
    # offset on the first three seams), also with generic dyadic coordinates
    # besides the seam's two, and with the seam away from u_1
    for n in range(low, 8):
        rest = (-0.625, 3.75, 1.5625)[:n - 4]
        gaps = []
        for d in (2.0**-20, 2.0**-30, 2.0**-40):
            lo, hi = exact_metric(chart(-d, rest)), exact_metric(chart(d, rest))
            gaps.append(max(abs(x - y) for a, b in zip(lo, hi) for x, y in zip(a, b)))
        for big, small in zip(gaps, gaps[1:]):
            assert 2**9 <= big / small <= 2**11, n
        assert gaps[-1] < Fraction(1, 10**10)


def masked_cover_values(rho):
    """Reference chart-side cover: the masked three-branch form, one branch per slice."""
    t = np.empty_like(rho)
    neg = rho < 0.0
    mid = (rho >= 0.0) & (rho <= 1.0)
    up = rho > 1.0
    t[neg] = 1.0 / (1.0 - rho[neg])
    t[mid] = rho[mid]
    t[up] = 1.0 - 1.0 / rho[up]
    return t


def modulo_wrap(d):
    """Reference wrap into [-1/2, 1/2): numpy's float modulo."""
    return (d + 0.5) % 1.0 - 0.5


def gauge_cross_ratios(u):
    """Reference chart ratios: projline._cross on the gauge pairs [0 : 1], [u_m : 1], [1 : 1], [1 : 0]."""
    n = len(u) + 2
    trip = np.array(triples(n))
    a = np.concatenate([[0.0], u, [1.0, 1.0]])
    num, den = _cross(0.0, 1.0, a[trip[:, 0]], 1.0, a[trip[:, 1]], 1.0, a[trip[:, 2]], (trip[:, 2] != n) * 1.0)
    return num / den


def loop_jacobian(u, h=1e-6):
    """Reference central differences: one chart, one coordinate at a time."""
    base = u.as_array()
    jac = np.empty((math.comb(u.n, 3), len(base)))
    for m in range(len(base)):
        up, dn = base.copy(), base.copy()
        up[m] += h
        dn[m] -= h
        tp = masked_cover_values(gauge_cross_ratios(up))
        tm = masked_cover_values(gauge_cross_ratios(dn))
        jac[:, m] = modulo_wrap(tp - tm) / (2.0 * h)
    return jac


def test_cover_values_and_wrap_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    tiny, huge = 5e-324, 1e308
    rho = np.concatenate([
        [0.0, -0.0, 1.0, tiny, -tiny, huge, -huge, math.inf, -math.inf],
        np.nextafter(1.0, [0.0, 2.0]), np.nextafter(0.0, [-1.0, 1.0]),
        rng.standard_normal(500), rng.standard_cauchy(500), rng.random(500),
    ])
    assert _cover_values(rho).tobytes() == masked_cover_values(rho).tobytes()
    half = np.nextafter(0.5, [0.0, 1.0])
    d = np.concatenate([
        [0.5, -0.5, 1.0, -1.0, 0.0, -0.0], half, -half, rng.uniform(-1.0, 1.0, 1000),
        np.nextafter([-1.0, 1.0], 0.0), np.nextafter([0.5, -0.5], 0.0),
    ])
    # _wrap subtracts floor(d + 0.5), -1, 0 or 1, from each element alone:
    # arrays whose every d + 0.5 lies in [0, 1), where it subtracts 0, and
    # single values on both sides of each edge of that interval
    edges = [-1.0, 1.0, -0.5, 0.5, 0.0, -0.0, *np.nextafter([-0.5, -0.5, 0.5, 0.5], [-1.0, 0.0, 0.0, 1.0])]
    for x in [d, rng.uniform(-0.5, 0.5, 1000), np.array([0.0, -0.0]), np.nextafter([0.5, -0.5], 0.0),
              np.empty(0), *([e] for e in edges)]:
        x = np.asarray(x, dtype=float)
        assert _wrap(x).tobytes() == modulo_wrap(x).tobytes(), x


def test_cover_values_of_nan_ratios_are_nan():
    rho = np.array([math.nan, 0.5, math.nan, -1.0, math.nan])
    for fill in (7.0, 0.0):
        np.full(5, fill)  # freed at once, so the result may reuse its memory
        got = _cover_values(rho)
        assert np.isnan(got[[0, 2, 4]]).all()
        assert list(got[[1, 3]]) == [0.5, 0.5]


def test_gauge_ratios_are_cross_num_over_den_bit_for_bit():
    # Every (a_i, a_j, a_k, b_k) over signed zeros, subnormals, 1e+-300 and
    # ordinary and non-finite values, colliding wherever two draws agree, so
    # signs of zeros and NaN positions count; both rows of a batch of two.
    v = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 1e-300, -1e-300, 1e300, -1e300,
                  0.3, -2.5, 1.0, math.inf, math.nan])
    i, j, k, bk = (x.ravel() for x in np.meshgrid(*[np.arange(len(v))] * 3, [0.0, 1.0], indexing="ij"))
    a = np.stack([v, v[::-1]])
    with np.errstate(all="ignore"):
        got = _gauge_ratios(a, i, j, k, bk)
        for row, w in zip(got, a):
            num, den = _cross(0.0, 1.0, w[i], 1.0, w[j], 1.0, w[k], bk)
            assert row.tobytes() == (num / den).tobytes()
    assert np.isnan(got).any() and np.isinf(got).any() and np.signbit(got[got == 0.0]).any()


def seam_margin_reference(rho):
    """The seam margin out of place, one new array per operation: _seam_margin's float operations."""
    s = np.hypot(rho, 1.0)
    d0 = np.abs(rho) / s
    d1 = np.abs(rho - 1.0) / (s * math.sqrt(2.0))
    dinf = 1.0 / s
    return np.min(np.minimum(np.minimum(d0, d1), dinf), axis=-1)


def test_in_place_seam_margin_is_the_reference_bit_for_bit():
    # Each special ratio alone, every ordered pair of them, and random
    # (..., T) stacks that mix them with ordinary ratios; the argument is
    # not written.
    v = [0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, 2.0**-1060,
         np.nextafter(1.0, 2.0), 0.3, -2.5]
    rng = np.random.default_rng(14)
    mixed = np.where(rng.random((3, 40, 560)) < 0.1, rng.choice(v, (3, 40, 560)), rng.standard_cauchy((3, 40, 560)))
    for rho in (np.array(v)[:, None], np.array(np.meshgrid(v, v)).reshape(2, -1).T, mixed, np.empty((0, 5))):
        before = rho.tobytes()
        with np.errstate(invalid="ignore", over="ignore"):  # inf / inf at infinite ratios
            want, got = seam_margin_reference(rho), _seam_margin(rho)
        assert got.tobytes() == want.tobytes()
        assert rho.tobytes() == before


def test_in_place_seam_margin_holds_three_arrays_of_its_argument_size():
    rho = np.random.default_rng(15).standard_cauchy((64, 560))
    _seam_margin(rho)
    tracemalloc.start()
    try:
        _seam_margin(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * rho.nbytes  # the out-of-place reference peaks at 6


def test_gauge_ratios_take_contiguous_writeable_indices(monkeypatch):
    # ndarray.take copies an index that is read-only or not C-contiguous on
    # every call.  The screen and the stencil pass _gauge_ratios views of
    # the cached trip and gather, which are C-contiguous and writeable, and
    # nothing writes into them.
    import treemoduli.moduli as mod

    seen = []
    ratios = mod._gauge_ratios

    def recording(a, i, j, k, bk):
        seen.append((i, j, k))
        return ratios(a, i, j, k, bk)

    rng = np.random.default_rng(16)
    charts = {n: np.array([random_chart(rng, n).u for _ in range(3)]) for n in (3, 4, 16)}
    monkeypatch.setattr(mod, "_gauge_ratios", recording)
    for n, U in charts.items():
        table = _table(n)
        trip, gather = table[:2]
        before = [a.tobytes() for a in table]
        seen.clear()
        mod._chart_ratios(U)
        mod._central_jacobians(U, 1e-6, np.copy)
        assert len(seen) == (2 if n < 16 else 4)  # a screen, then stencil slices of 3, 3 and 1 charts
        for call, store in zip(seen, [trip] + [gather] * (len(seen) - 1)):
            for index in call:
                assert index.flags.c_contiguous and index.flags.writeable
                assert np.shares_memory(index, store)  # a view, not a copy per call
        assert [a.tobytes() for a in table] == before


def test_triple_table_is_cached_and_read_only():
    # one table per n, shared by every kernel call: trip, gather, bk, bk[idx],
    # flat.  bk, bk[idx] and flat are read-only; trip and gather stay
    # writeable so that ndarray.take uses them without a copy (see above).
    import treemoduli.moduli as mod

    for n in (3, 4, 6, 16):
        table = _table(n)
        assert len(table) == 5
        for a, again in zip(table, _table(n)):
            assert a is again
        for a in table[2:]:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 2
    assert [name for name, f in vars(mod).items() if hasattr(f, "cache_info")] == ["_table"]


def near_seam_charts(rng, n, h):
    """The first 20 charts of one seeded draw that one _refusals screen accepts with seam margin at most 100 h."""
    U = np.tan(np.pi * (rng.random((2**17 // math.comb(n, 3), n - 2)) + 0.25))
    rule, margin = _refusals(U, h)
    near = U[(rule == 0) & (margin <= 100.0 * h)]
    assert len(near) >= 20
    return [ChartPoint(tuple(u)) for u in near[:20].tolist()]


def test_stacked_central_jacobians_match_per_chart_loop():
    # Charts above 100 h from every seam at n = 3, 4, 8, 12 and 16, and at
    # n = 4..8 also charts with seam margin in (10 h, 100 h], where the
    # stencil's differences are largest, so nearest to where _wrap subtracts 1
    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 6, 7, 8, 12, 16):
        charts = [random_chart(rng, n) for _ in range(9)] if n in (3, 4, 8, 12, 16) else []
        if 4 <= n <= 8:
            charts += near_seam_charts(np.random.default_rng([89, n]), n, 1e-6)
        T = math.comb(n, 3)
        stack = _central_jacobians(np.array([u.u for u in charts]), 1e-6, np.copy)
        assert stack.shape == (len(charts), T, n - 2)
        for u, jac in zip(charts, stack):
            ref = loop_jacobian(u)
            # the entries the sparse stencil skips are +0.0 in the dense loop
            assert np.array_equal(jac, ref)
            assert np.array_equal(np.signbit(jac), np.signbit(ref))
            assert np.array_equal(albanese_jacobian(u), ref)
        assert _central_jacobians(np.empty((0, n - 2)), 1e-6, np.copy).shape == (0, T, n - 2)


def test_gather_table_moves_each_point_in_its_own_slot():
    for n in (3, 5, 9):
        trip, gather, bk, bk_idx, flat = _table(n)
        dim, K = n - 2, math.comb(n - 1, 2)
        assert trip.shape == (3, math.comb(n, 3))  # slot rows
        assert [tuple(t) for t in trip.T] == triples(n)
        assert list(bk) == [float(t[2] != n) for t in trip.T]  # 0 at the infinity anchor
        assert gather.shape == (3, 2, dim, K) and bk_idx.shape == (2, dim, K) and flat.shape == (dim * K,)
        idx, col = np.divmod(flat.reshape(dim, K), dim)  # (triple, coordinate) in a flat (T, dim) Jacobian
        assert (col == np.arange(dim)[:, None]).all()
        assert bk_idx.tobytes() == np.stack([bk[idx]] * 2).tobytes()  # both signs
        for r in range(dim):
            assert list(idx[r]) == [k for k, t in enumerate(trip.T) if r + 1 in t]
            for sign in range(2):
                moved = n + 1 + sign * dim + r  # the row of u_{r+1} + h, or of u_{r+1} - h
                for k, t in enumerate(trip[:, idx[r]].T):
                    rows = gather[:, sign, r, k]
                    assert list(rows == moved) == [p == r + 1 for p in t]
                    assert [int(v) for v, p in zip(rows, t) if p != r + 1] == [p for p in t if p != r + 1]


# One block of charts at n = 4 and h = 1e-16, and the error each row is refused
# with, or None.  The checks run in order: a non-finite coordinate, then the
# seam margin (colliding coordinates included), then a step that does not
# move a coordinate, u + h before u - h.
REFUSAL_ROWS = [
    ((0.3, 0.6), None),
    ((1e-300, 0.5), (SeamTooClose, "seam margin 1.000e-300 is not above 10 h = 1.000e-15")),
    ((0.3, 0.3), (SeamTooClose, "seam margin 0.000e+00 is not above 10 h = 1.000e-15")),
    ((0.0, 0.5), (SeamTooClose, "seam margin 0.000e+00 is not above 10 h = 1.000e-15")),
    ((1.0, 0.5), (SeamTooClose, "seam margin nan is not above 10 h = 1.000e-15")),
    ((2.0, 2.0), (SeamTooClose, "seam margin 0.000e+00 is not above 10 h = 1.000e-15")),
    ((math.nan, 0.5), (InvalidChart, "chart coordinates must be finite")),
    ((math.inf, 2.0), (InvalidChart, "chart coordinates must be finite")),
    ((0.3, -math.inf), (InvalidChart, "chart coordinates must be finite")),
    ((2.0, 0.3), (InvalidChart, "step h = 1.000e-16 does not move chart coordinate 1 = 2.0")),
    ((0.3, 2.5), (InvalidChart, "step h = 1.000e-16 does not move chart coordinate 2 = 2.5")),
    # -1 + 1e-16 rounds away from -1, -1 - 1e-16 back to it
    ((-1.0, 0.3), (InvalidChart, "step h = 1.000e-16 does not move chart coordinate 1 = -1.0")),
    ((-1.0, 2.0), (InvalidChart, "step h = 1.000e-16 does not move chart coordinate 2 = 2.0")),
    ((0.6, 0.3), None),
]


def test_refusals_of_a_mixed_block():
    def outcomes(U):
        rule, margin = _refusals(U, 1e-16)
        assert rule.shape == margin.shape == (len(U),)
        errs = [_refusal(u, r, g, 1e-16) if r else None for u, r, g in zip(U, rule, margin)]
        return [None if e is None else (type(e), str(e)) for e in errs]

    U = np.array([u for u, _ in REFUSAL_ROWS])
    got = outcomes(U)
    for i, (u, want) in enumerate(REFUSAL_ROWS):
        assert got[i] == want, u
        assert outcomes(U[i:i + 1]) == [want], u  # alone, alike
        if want and all(map(math.isfinite, u)):
            with pytest.raises(want[0], match=f"^{re.escape(want[1])}$"):
                metric_matrix(ChartPoint(u), 1e-16)
    rule, margin = _refusals(U[:0], 1e-16)
    assert rule.shape == margin.shape == (0,)


def test_refusals_take_any_leading_axes():
    # A (tries, streams, dim) block gives the rule and margin bits of its rows
    # screened as flat (streams, dim) blocks, and as one (tries * streams, dim)
    # block.  Alone, a chart gets the same rule and margin, but numpy's sign
    # bit of a NaN margin may differ with the block length.
    rng = np.random.default_rng(17)
    blocks = [
        (np.array([u for u, _ in REFUSAL_ROWS]).reshape(2, 7, 2), 1e-16),
        (np.tan(np.pi * (rng.random((3, 5, 6)) + 0.25)), 1e-3),  # n = 8 draws, some too near a seam
    ]
    for V, h in blocks:
        rule, margin = _refusals(V, h)
        assert rule.shape == margin.shape == V.shape[:-1]
        assert len(set(rule.ravel().tolist())) > 1
        flat = _refusals(V.reshape(-1, V.shape[-1]), h)
        assert rule.ravel().tolist() == flat[0].tolist() and margin.tobytes() == flat[1].tobytes()
        for t in range(len(V)):
            row = _refusals(V[t], h)
            assert rule[t].tolist() == row[0].tolist() and margin[t].tobytes() == row[1].tobytes()
        for ix in np.ndindex(V.shape[:-1]):
            alone = _refusals(V[ix][None], h)
            assert rule[ix] == alone[0][0] and np.array_equal(margin[ix], alone[1][0], equal_nan=True), V[ix]
    assert _refusals(np.empty((0, 4, 3)), 1e-6)[0].shape == (0, 4)


def test_chart_above_the_size_limit_is_refused():
    big = ChartPoint(tuple(2.0 + 0.37 * k for k in range(63)))  # n = 65
    moved = ChartPoint(tuple(v + 1.0 for v in big.u))
    for call in (lambda: metric_matrix(big), lambda: curve_length([big, moved])):
        with pytest.raises(ValueError, match=r"^a chart of 63 coordinates is above the limit of 62 \(n <= 64\)$"):
            call()
    assert _table(64)[0].shape == (3, math.comb(64, 3))  # the limit itself is taken


@pytest.mark.parametrize("h", [1e-300, 1e-20])
def test_step_below_chart_resolution_is_refused(h):
    # u + h rounds back to u: the stencil would be all zeros
    with pytest.raises(InvalidChart, match="does not move chart coordinate 1 = 0.3"):
        albanese_jacobian(ChartPoint((0.3, 0.5)), h)
    with pytest.raises(InvalidChart):
        rank_scan(4, 5, h=h)
    with pytest.raises(InvalidChart):
        curve_length([ChartPoint((0.3, 0.5)), ChartPoint((0.6, 0.5))], h)
    # the exact Jacobian takes no step
    assert any(any(row) for row in _exact_jacobian(ChartPoint((0.3, 0.5))))


def test_table_cache_holds_at_most_8_tables():
    # a sweep over n = 33..64 kept 131 MiB of tables alive with 32 cached
    assert _table.cache_info().maxsize == 8
    for n in range(33, 65):
        _table(n)
    assert _table.cache_info().currsize <= 8
    _table.cache_clear()


def test_albanese_above_the_size_limit_is_refused(monkeypatch):
    import treemoduli.configuration as conf

    class PastTheGuard(Exception):
        pass

    def dets(pairs):
        raise PastTheGuard(len(pairs))

    big = Configuration((ZERO, INFINITY, *(pt(float(k)) for k in range(1, 129))))  # n = 129
    monkeypatch.setattr(conf, "_pair_dets", None)  # refused before the determinant table is formed
    with pytest.raises(ValueError, match=r"^a configuration of n = 129 is above the albanese limit of n = 128$"):
        albanese(big)
    monkeypatch.setattr(conf, "_pair_dets", dets)
    with pytest.raises(PastTheGuard) as info:  # the limit itself is taken
        albanese(Configuration(big.points[:-1]))
    assert info.value.args == (129,)


def test_chart_layer_re_exports_the_exact_layer():
    import treemoduli
    from treemoduli import configuration, moduli

    for name in configuration.__all__:
        assert getattr(moduli, name) is getattr(configuration, name)
    for name in ("Configuration", "ChartPoint", "albanese", "chart_coords", "relabel", "triples"):
        assert getattr(treemoduli, name) is getattr(configuration, name)
    assert treemoduli.metric_matrix is metric_matrix and treemoduli.moduli is moduli


def test_jacobian_rank():
    assert jacobian_rank(np.array([[1.0]])) == 1
    assert jacobian_rank(np.zeros((4, 3))) == 0
    rng = np.random.default_rng(6)
    low = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 3))
    assert jacobian_rank(low) == 2
    with pytest.raises(NonFiniteEntry):
        jacobian_rank(np.array([[1.0, np.nan]]))


# -- the averaged metric -----------------------------------------------------------------


def test_metric_trivial_chart():
    g = metric_matrix(ChartPoint((0.5,)))
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-9)
    for x in (0.2, 0.8):
        assert metric_matrix(ChartPoint((x,)))[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_metric_properties():
    rng = np.random.default_rng(7)
    for n in (4, 5, 6):
        for _ in range(20):
            u = random_chart(rng, n)
            g = metric_matrix(u)
            assert np.allclose(g, g.T, atol=1e-12)
            w = np.linalg.eigvalsh(g)
            assert w.min() >= -1e-9 * max(np.abs(w).max(), 1e-30)
            jac = albanese_jacobian(u)
            # singular values of G are the squares of those of J
            assert jacobian_rank(g, 1e-12) == jacobian_rank(jac, 1e-6)
    g = metric_matrix(ChartPoint((0.3, 0.7)))
    assert g.shape == (2, 2)
    assert np.linalg.matrix_rank(g, tol=1e-9) == 2


def test_metric_eval():
    u = ChartPoint((0.5,))
    assert metric_eval(u, [0.0], [0.0]) == 0.0
    assert metric_eval(u, [1.0], [1.0]) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(8)
    u4 = random_chart(rng, 4)
    v, w = rng.standard_normal(2), rng.standard_normal(2)
    assert metric_eval(u4, 2 * v, w) == pytest.approx(2 * metric_eval(u4, v, w), rel=1e-9)
    assert metric_eval(u4, v, w) == pytest.approx(metric_eval(u4, w, v), rel=1e-9)
    assert metric_eval(u4, v, v) >= 0.0
    with pytest.raises(DimensionMismatch):
        metric_eval(u4, [1.0], [1.0, 2.0])
    for v, w in [([math.nan, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, -math.inf])]:
        with pytest.raises(NonFiniteEntry, match="^tangent vectors must be finite$"):
            metric_eval(ChartPoint((0.3, 0.5)), v, w)


def test_relabel():
    pts = (ZERO, pt(0.3), pt(0.6), ONE, INFINITY)
    c = Configuration(pts)
    assert relabel([1, 2, 3, 4], c).points == pts
    swapped = relabel([2, 1, 3, 4], c)
    assert swapped.points[1] is pts[2]
    assert swapped.points[2] is pts[1]
    assert relabel([2, 1, 3, 4], swapped).points == pts
    with pytest.raises(NotAPermutation):
        relabel([1, 1, 3, 4], c)
    # labels must be integers, not values that truncate or convert to one
    for perm in ([1, 2.9, 3, 4], ["1", "2", "3", "4"]):
        with pytest.raises(NotAPermutation):
            relabel(perm, c)
    assert relabel([np.int64(2), 1.0, 3, 4], c).points == swapped.points


def transition(perm, u):
    return np.asarray(chart_coords(relabel(perm, chart_embed(u))).u)


def test_relabeling_acts_by_isometries():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 30:
        n = int(rng.integers(4, 7))
        u = random_chart(rng, n, margin=1e-3)
        perm = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
        base = u.as_array()
        u2 = transition(perm, u)
        if np.abs(u2).max() > 1e3 or _seam_margin(_chart_ratios(u2)) < 1e-3:
            continue
        dim = n - 2
        dphi = np.empty((dim, dim))
        for m in range(dim):
            h = 1e-6 * max(1.0, abs(base[m]))
            up, dn = base.copy(), base.copy()
            up[m] += h
            dn[m] -= h
            dphi[:, m] = (
                transition(perm, ChartPoint(tuple(up)))
                - transition(perm, ChartPoint(tuple(dn)))
            ) / (2.0 * h)
        v = rng.standard_normal(dim)
        q1 = metric_eval(u, v, v)
        q2 = metric_eval(ChartPoint(tuple(u2)), dphi @ v, dphi @ v)
        assert q2 == pytest.approx(q1, rel=1e-4)
        checked += 1


def test_three_leaf_pseudometric_chain_rule():
    # the blown-up edge-length form relates to the cover form by the
    # logit derivative: d(gamma)/du = kappa'(u) / (kappa(u) (1 - kappa(u)))
    rng = np.random.default_rng(10)
    for u in rng.uniform(0.05, 0.95, size=50):
        h = 1e-6
        gp = devadoss_length(ZERO, pt(u + h), ONE, INFINITY).affine
        gm = devadoss_length(ZERO, pt(u - h), ONE, INFINITY).affine
        fd = (gp - gm) / (2.0 * h)
        t = circle_cover(pt(u)).t
        analytic = 1.0 / (t * (1.0 - t))  # cover derivative is 1 on (0, 1)
        assert fd == pytest.approx(analytic, rel=1e-5)


# -- curve length --------------------------------------------------------------------------


def test_curve_length_constant():
    u = ChartPoint((0.4,))
    assert curve_length([u, u, u]) == 0.0


def test_curve_length_unit_branch_segment():
    samples = [ChartPoint((0.3,)), ChartPoint((0.6,))]
    assert curve_length(samples) == pytest.approx(0.3, abs=1e-6)


def test_curve_length_reversal_and_additivity():
    rng = np.random.default_rng(11)
    samples = [ChartPoint((x,)) for x in (0.2, 0.35, 0.62, 0.8)]
    fwd = curve_length(samples)
    rev = curve_length(list(reversed(samples)))
    assert rev == pytest.approx(fwd, rel=1e-12)
    split = curve_length(samples[:2]) + curve_length(samples[1:])
    assert split == pytest.approx(fwd, rel=1e-12)
    u4 = [random_chart(rng, 4, margin=1e-2) for _ in range(3)]
    assert curve_length(list(reversed(u4))) == pytest.approx(curve_length(u4), rel=1e-9)


def test_curve_length_across_seam():
    # crossing u = 1 splits the segment; the exact length is
    # int_{0.5}^{1} 1 du + int_1^{1.5} u^-2 du = 1/2 + 1/3
    samples = [ChartPoint((0.5 + i / 200,)) for i in range(201)]
    assert curve_length(samples) == pytest.approx(5.0 / 6.0, abs=1e-4)


def test_curve_length_input_validation():
    with pytest.raises(ValueError):
        curve_length([ChartPoint((0.5,))])
    with pytest.raises(DimensionMismatch):
        curve_length([ChartPoint((0.5,)), ChartPoint((0.5, 0.6))])
    for refused in (lambda: ChartPoint(()), lambda: curve_length([[], []])):
        with pytest.raises(ValueError, match=r"^chart needs at least one coordinate \(n >= 3\)$") as err:
            refused()
        assert type(err.value) is ValueError
    # a bare number or a nested row is not a chart row
    for samples, shape in (([0.3, 0.5], ()), ([[[0.3]], [[0.5]]], (1, 1))):
        with pytest.raises(ValueError) as err:
            curve_length(samples)
        assert type(err.value) is ValueError
        assert str(err.value) == f"samples must be a sequence of 1-D coordinate rows, got a sample of shape {shape}"


@pytest.mark.parametrize("h", [-1.0, 0.0, math.nan, math.inf])
def test_curve_length_validates_step_up_front(h):
    # a path of zero-length segments evaluates no metric at all
    with pytest.raises(ValueError):
        curve_length([[0.3, 0.5], [0.3, 0.5]], h=h)


def loop_curve_length(samples, h=1e-6, max_splits=12):
    """Reference: one recursive metric_matrix evaluation per segment, in path order."""
    pts = [s.as_array() if isinstance(s, ChartPoint) else np.asarray(s, float) for s in samples]

    def seg(a, b, depth):
        du = b - a
        if not du.any():
            return 0.0
        mid = 0.5 * (a + b)
        mid = np.where(np.isinf(mid), 0.5 * a + 0.5 * b, mid)  # as curve_length forms it
        try:
            g = metric_matrix(ChartPoint(tuple(mid)), h)
        except SeamTooClose:
            if depth > 0:
                return seg(a, mid, depth - 1) + seg(mid, b, depth - 1)
            for f in (0.25, 0.75, 0.1, 0.9, 0.0, 1.0):
                try:
                    g = metric_matrix(ChartPoint(tuple(a + f * du)), h)
                    break
                except SeamTooClose:
                    continue
            else:
                raise
        return math.sqrt(max(float(du @ g @ du), 0.0))

    return sum(seg(pts[i], pts[i + 1], max_splits) for i in range(len(pts) - 1))


def seeded_path(rng, n, legs=6, per_leg=12):
    """Chart path whose legs move one coordinate across 0, 1 and the others.

    Each leg ends 0.05 away from every seam, and one segment of a leg
    with crossings has its midpoint within 1e-6 of one, so curve_length
    refuses and bisects it.
    """
    u = rng.choice(np.arange(-2.45, 3.5, 0.1), n - 2, replace=False)
    rows = [u.copy()]
    for _ in range(legs):
        m = int(rng.integers(n - 2))
        seams = np.array([0.0, 1.0, *np.delete(u, m)])
        while True:
            t = np.linspace(u[m], u[m] + rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0), per_leg + 1)
            if np.abs(t[-1] - seams).min() > 0.05:
                break
        inner = seams[(seams - t[0]) * (seams - t[-1]) < 0]
        if len(inner):
            c = rng.choice(inner)
            i = int((c - t[0]) / (t[1] - t[0]))
            if 1 <= i <= per_leg - 2:
                mid, half = c + rng.uniform(-1e-6, 1e-6), 0.5 * (t[1] - t[0])
                t[i], t[i + 1] = mid - half, mid + half
        for v in t[1:]:
            u[m] = v
            rows.append(u.copy())
    return rows


@pytest.mark.parametrize("n", [4, 8, 16])
def test_blocked_curve_length_matches_per_segment_reference(n):
    rng = np.random.default_rng([41, n])
    for _ in range(3 if n < 16 else 1):
        rows = seeded_path(rng, n)
        assert curve_length(rows) == loop_curve_length(rows)
        charts = [ChartPoint(tuple(r)) for r in rows]
        assert curve_length(charts) == loop_curve_length(charts)


def test_blocked_curve_length_matches_reference_on_special_paths():
    seam = [
        [float(v) for v in line.split(",")]
        for line in (GOLDEN / "seam_path.csv").read_text().splitlines()[1:]
        if line.strip()
    ]
    assert curve_length(seam) == loop_curve_length(seam)
    # zero-length segments, between and around live ones
    rows = [[0.2, 0.6], [0.2, 0.6], [0.3, 0.6], [0.3, 0.6], [0.3, 0.6], [0.3, 0.7], [0.3, 0.7]]
    assert curve_length(rows) == loop_curve_length(rows) > 0.0
    # a crossing at a segment midpoint with no splits left: one-sided fallback
    cross = [[0.5 + 1e-7, 2.0], [1.5 + 1e-7, 2.0], [1.5 + 1e-7, 2.5]]
    for splits in (0, 1, 2):
        assert curve_length(cross, max_splits=splits) == loop_curve_length(cross, max_splits=splits)
    # three blocks at n = 4, the last one short
    line = [[0.3 + 0.4 * k / 2500, 2.0 - k / 2500] for k in range(2501)]
    assert curve_length(line) == loop_curve_length(line)


def seam_margin_homogeneous(u):
    """Smallest chordal distance from a triple cross-ratio to 0, 1 and infinity, on ProjPoints."""
    c = chart_embed(ChartPoint(tuple(u)))
    return min(
        min(chordal(rho, ZERO), chordal(rho, ONE), chordal(rho, INFINITY))
        for rho in (cross_ratio(*forgetful(c, s)) for s in triples(c.n))
    )


def test_curve_length_stencils_keep_clear_of_seams(monkeypatch):
    import treemoduli.moduli as mod

    charts = []
    stencil = mod._central_jacobians

    def recording(U, h, reduce=None):
        charts.extend(map(tuple, U))
        return stencil(U, h, reduce)

    monkeypatch.setattr(mod, "_central_jacobians", recording)
    rng = np.random.default_rng(43)
    rows = seeded_path(rng, 5, legs=8)
    curve_length(rows)
    assert len(charts) > len(rows)  # bisections add charts
    seen = len(charts)
    # no splits left: only the first fallback point with seam margin, 1/4 of
    # the way, gets a stencil, not every fallback point that passes the screen
    curve_length([[0.5 + 1e-7, 2.0], [1.5 + 1e-7, 2.0]], max_splits=0)
    assert charts[seen:] == [(0.75 + 1e-7, 2.0)]
    assert min(seam_margin_homogeneous(u) for u in charts) > 1e-5


def test_curve_length_builds_one_error(monkeypatch):
    # Refused charts are carried as _refusals rules; an error object is built
    # only for the first failing piece, which the call raises.
    import treemoduli.moduli as mod

    rng = np.random.default_rng(43)
    bisected = seeded_path(rng, 5, legs=8)
    failing = [
        ([[-1.67], [-1.64], [0.9]], {"h": 0.5}),  # 10 h >= 1/sqrt(2): every chart is refused
        ([[0.3 + 0.01 * k, 0.3 + 0.01 * k, 2.5, 3.5] for k in range(21)], {"max_splits": 8}),  # on u_1 = u_2
    ]
    want = curve_length(bisected)
    refs = []
    for rows, kw in failing:
        with pytest.raises(ArithmeticError) as err:
            curve_length(rows, **kw)
        refs.append((type(err.value), str(err.value)))
    built = []

    def counting(base):
        class Counting(base):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        return Counting

    monkeypatch.setattr(mod, "SeamTooClose", counting(SeamTooClose))
    monkeypatch.setattr(mod, "InvalidChart", counting(InvalidChart))
    assert curve_length(bisected) == want
    assert built == []
    for (rows, kw), ref in zip(failing, refs):
        with pytest.raises(ArithmeticError) as err:
            curve_length(rows, **kw)
        assert isinstance(err.value, ref[0]) and str(err.value) == ref[1]
        assert len(built) == 1
        built.clear()


def test_curve_length_raises_the_first_failing_segment():
    # With h = 1e-300 every stencil fails.  Segment 0 has its midpoint on
    # the gauge point 1 and fails in its first bisection half, before the
    # block stencil of segment 1 is reached in path order.
    rows = [[0.9, 0.5], [1.1, 0.5], [2.0, 3.0]]
    with pytest.raises(InvalidChart) as ref:
        loop_curve_length(rows, h=1e-300)
    with pytest.raises(InvalidChart) as got:
        curve_length(rows, h=1e-300)
    assert str(got.value) == str(ref.value)
    assert "coordinate 1 = 0.95" in str(got.value)
    # a later refused segment does not mask an earlier failed fallback
    rows = [[1.0 - 1e-7, 2.0], [1.0 + 1e-7, 2.0], [1e308, 2.0], [1.7e308, 2.0]]
    with pytest.raises(SeamTooClose):
        loop_curve_length(rows, max_splits=0)
    with pytest.raises(SeamTooClose):
        curve_length(rows, max_splits=0)
    # a + b overflows on the last segment, yet every midpoint is finite: the
    # pieces near 1.7e308 are refused for their seam margin
    with np.errstate(over="ignore"), pytest.raises(SeamTooClose) as ref:
        loop_curve_length(rows[2:])
    with pytest.raises(SeamTooClose, match=r"^seam margin 0\.000e\+00 ") as got:
        curve_length(rows[2:])
    assert str(got.value) == str(ref.value)


# Seam values of a chart coordinate (the gauge points 0 and 1 and just off
# them) and extreme ones whose midpoints and steps overflow.
SEAM_AND_EXTREME = [0.0, 1.0, 1e-7, -1e-7, 1.0 + 1e-7, 1.0 - 1e-7, 1e300, -1e300, 1.7e308, -1.7e308]


def length_or_error(f, rows, **kw):
    try:
        return f(rows, **kw)
    except (SeamTooClose, InvalidChart) as err:
        return type(err), str(err)


def test_curve_length_matches_reference_at_seams_and_extremes():
    # Value, or error type and message, of the level-by-level evaluation
    # against the recursive reference, on short paths that mix seam and
    # extreme coordinates with ordinary ones.  The reference overflows
    # with numpy warnings; curve_length must not warn.
    rng = np.random.default_rng(53)
    for _ in range(800):
        shape = (int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        special = rng.choice(SEAM_AND_EXTREME, shape)
        rows = np.where(rng.random(shape) < 0.6, special, rng.uniform(-3, 3, shape))
        kw = {"max_splits": int(rng.choice([0, 1, 3])), "h": float(rng.choice([1e-6, 1e-300]))}
        with np.errstate(over="ignore", invalid="ignore"):
            ref = length_or_error(loop_curve_length, rows.tolist(), **kw)
        got = length_or_error(curve_length, rows.tolist(), **kw)
        assert got == ref or got != got and ref != ref, (rows.tolist(), kw)


def test_curve_length_raises_the_midpoint_error_when_every_fallback_is_refused():
    # One split: the piece from 0.3 falls back to 0.3 itself, and every
    # point of the piece [5e299, 1e300] is refused.  Its midpoint 7.5e299
    # has margin 1/7.5e299; the last fallback point, 1e300, has 1e-300.
    rows = [[0.3, 2.0], [1e300, 2.0]]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SeamTooClose) as ref:
        loop_curve_length(rows, max_splits=1)
    with pytest.raises(SeamTooClose) as got:
        curve_length(rows, max_splits=1)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("seam margin 1.333e-300 ")


def test_curve_length_along_a_seam_stops_after_the_first_failing_block(monkeypatch):
    # Every point of this n = 6 path has u_1 = u_2, so each piece is refused
    # down to the split cap and fails there.  Pieces are taken in path order
    # a block (102 charts at n = 6) at a time, and the work stops after the
    # first failing block of each depth instead of bisecting all 20
    # segments 8 times (about 41000 refused charts).
    import treemoduli.moduli as mod

    rows = [[0.3 + 0.01 * k, 0.3 + 0.01 * k, 2.5, 3.5] for k in range(21)]
    with pytest.raises(SeamTooClose) as ref:
        loop_curve_length(rows, max_splits=8)
    refused = []
    screen = mod._refusals

    def recording(U, h):
        rule, margin = screen(U, h)
        refused.append(np.count_nonzero(rule))
        return rule, margin

    monkeypatch.setattr(mod, "_refusals", recording)
    with pytest.raises(SeamTooClose) as got:
        curve_length(rows, max_splits=8)
    assert str(got.value) == str(ref.value)
    # 140 pieces, 6 blocks of 102 and 6 * 102 fallback points
    assert 0 < sum(refused) < 3000


def test_curve_length_does_not_depend_on_the_block_size(monkeypatch):
    # Paths that fail in many blocks at one piece per block, and paths that
    # are bisected at seams, give the same length, or error type and
    # message, as at the default block size.
    import treemoduli.moduli as mod

    paths = [
        ([[0.3 + 0.01 * k, 0.3 + 0.01 * k] for k in range(21)], {}),  # on u_1 = u_2: every piece fails
        ([[0.3 + 0.01 * k, 0.3 + 0.01 * k, 2.5, 3.5] for k in range(21)], {"max_splits": 8}),
        ([[0.2, 2.0], [0.3, 2.0], [0.3, 0.3], [0.6, 0.6], [0.9, 2.0]], {"max_splits": 2}),
        ([[-1.67], [-1.64], [0.9]], {"h": 0.5}),  # every chart is refused
        ([[0.9, 0.5], [1.1, 0.5], [2.0, 3.0]], {"h": 1e-300}),  # every stencil is stuck
        ([[1.0 - 1e-7, 2.0], [1.0 + 1e-7, 2.0], [1e308, 2.0], [1.7e308, 2.0]], {"max_splits": 0}),
        ([[0.5 + 1e-7, 2.0], [1.5 + 1e-7, 2.0], [1.5 + 1e-7, 2.5]], {"max_splits": 1}),
        (seeded_path(np.random.default_rng(61), 5), {}),
    ]
    want = [length_or_error(curve_length, rows, **kw) for rows, kw in paths]
    assert sum(isinstance(w, tuple) for w in want) == 6
    monkeypatch.setattr(mod, "_BUDGET", 1)
    assert [length_or_error(curve_length, rows, **kw) for rows, kw in paths] == want


def bench_path(n):
    """A path shaped like the benchmark's curve-length inputs: 300 segments at n = 16, 1000 at n = 4."""
    return seeded_path(np.random.default_rng([71, n]), n, legs=12 if n == 16 else 40, per_leg=25)


@pytest.mark.parametrize("n", range(3, 17))
def test_stacked_pullback_and_quadratic_form_equal_the_per_chart_ones(n):
    # Bit for bit against one Jacobian at a time, J^T J / T symmetrised and
    # sqrt(max(d G d, 0)), on stacks of 0, 1 and several charts.
    rng = np.random.default_rng([73, n])
    T, dim = math.comb(n, 3), n - 2
    assert _pullback(np.zeros((0, T, dim))).shape == (0, dim, dim)
    U = np.array([random_chart(rng, n, margin=1e-3).u for _ in range(7)])
    D = rng.uniform(-2.0, 2.0, U.shape)
    jac = _central_jacobians(U, 1e-6, np.copy)
    for m in (1, 7):
        G = _pullback(jac[:m])
        L = np.sqrt(np.maximum(D[:m, None] @ G @ D[:m, :, None], 0.0))[:, 0, 0]
        for k in range(m):
            g = jac[k].T @ jac[k] / float(T)
            g = 0.5 * (g + g.T)
            assert G[k].tobytes() == g.tobytes() == metric_matrix(ChartPoint(tuple(U[k]))).tobytes()
            assert L[k] == math.sqrt(max(float(D[k] @ g @ D[k]), 0.0))


def test_benchmark_shaped_n16_path_does_not_depend_on_the_block_size(monkeypatch):
    import treemoduli.moduli as mod

    rows = bench_path(16)
    want = loop_curve_length(rows)
    assert curve_length(rows) == want
    for budget in (1, 10**9):
        monkeypatch.setattr(mod, "_BUDGET", budget)
        assert curve_length(rows) == want


def peak_bytes(f, *args):
    """tracemalloc peak of f(*args), after one untraced call fills the caches."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_curve_length_screens_several_pieces_per_call_at_flat_memory(monkeypatch):
    # The bounds are figures of the earlier blocking, one screen per stencil
    # block (numpy 2.4): 320 _refusals calls on the benchmark-shaped n = 16
    # path, where a stencil block is one chart, and tracemalloc peaks of
    # 440 KiB there and 975 KiB at n = 4 over 1000 segments.  A screen now
    # takes 16 pieces at n = 16, 29 screens for the path's 320 pieces over
    # all split depths, and its stencil evaluates one chart per slice and
    # hands each slice's Jacobian to _pullback.
    import treemoduli.moduli as mod

    rows = bench_path(16)
    screened, stencilled, sliced = [], [], []
    screen, stencil, cover = mod._refusals, mod._central_jacobians, mod._cover_values

    def counting_screen(U, *args):
        screened.append(len(U))
        return screen(U, *args)

    def counting_stencil(U, *args):
        stencilled.append(len(U))
        return stencil(U, *args)

    def counting_cover(rho):
        sliced.append(len(rho))  # the stencil's one cover per slice, charts on the leading axis
        return cover(rho)

    monkeypatch.setattr(mod, "_refusals", counting_screen)
    monkeypatch.setattr(mod, "_central_jacobians", counting_stencil)
    monkeypatch.setattr(mod, "_cover_values", counting_cover)
    curve_length(rows)
    assert len(screened) == 29
    assert max(stencilled) > 1 and max(sliced) == 1 and sum(sliced) == sum(stencilled)
    monkeypatch.undo()
    assert peak_bytes(curve_length, rows) <= 1.15 * 450391
    assert peak_bytes(curve_length, bench_path(4)) <= 998288


@pytest.mark.parametrize("n", range(3, 9))
def test_stencil_with_the_copying_identity_is_albanese_jacobian_per_chart(n):
    # Enough charts for several stencil slices at n = 7 and 8 (46 and 24 a
    # slice), the last one short: each slice's Jacobians, copied out of the
    # buffer the next slice overwrites, are the one-chart Jacobians bit for bit.
    rng = np.random.default_rng([83, n])
    charts = [random_chart(rng, n) for _ in range(75)]
    jac = _central_jacobians(np.array([u.u for u in charts]), 1e-6, np.copy)
    assert jac.shape == (75, math.comb(n, 3), n - 2)
    for u, j in zip(charts, jac):
        assert j.tobytes() == albanese_jacobian(u).tobytes()


# -- rank scan ----------------------------------------------------------------------------


def test_rank_scan_trivial_case():
    rep = rank_scan(3, 50, seed=0)
    assert rep["full_rank_count"] == 50
    assert rep["min_rank"] == 1
    assert rep["counterexample"] is None


def test_rank_scan_deterministic():
    a = rank_scan(4, 25, seed=7)
    b = rank_scan(4, 25, seed=7)
    assert a == b
    c = rank_scan(4, 25, seed=8)
    assert c != a


def loop_rank_scan(n, trials, seed, h=1e-6, tol=1e-6):
    """Reference scan: draw, Jacobian and SVD one trial at a time."""
    full, min_rank, worst, counterexample = 0, n - 2, math.inf, None
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        while True:
            u = np.tan(np.pi * (rng.random(n - 2) + 0.25))
            if np.isfinite(u).all() and _seam_margin(_chart_ratios(u)) > 10.0 * h:
                break
        jac = albanese_jacobian(ChartPoint(tuple(u)), h)
        rank = jacobian_rank(jac, tol)
        s = np.linalg.svd(jac, compute_uv=False)
        full += rank == n - 2
        if rank < n - 2 and counterexample is None:
            counterexample = [float(v) for v in u]
        min_rank = min(min_rank, rank)
        worst = min(worst, float(s[-1] / s[0]))
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "h": h,
        "tol": tol,
        "full_rank_count": full,
        "min_rank": min_rank,
        "worst_sigma_ratio": worst,
        "counterexample": counterexample,
    }


@pytest.mark.parametrize(
    "n, trials",
    [(n, t) for n in range(3, 9) for t in (1, 33, 100)]
    + [(n, t) for n in (4, 8) for t in (256, 257, _SCAN_CHUNK, _SCAN_CHUNK + 1)],
)
def test_rank_scan_matches_per_trial_loop(n, trials):
    # trial counts that are not multiples of the block size, one that fills
    # the stream chunk and one that crosses it, and the same about half a chunk
    assert rank_scan(n, trials, seed=3) == loop_rank_scan(n, trials, 3)


def test_rank_scan_counterexample_matches_per_trial_loop():
    # a tolerance high enough that some charts count as rank-deficient
    rep = rank_scan(6, 100, seed=5, tol=0.05)
    assert rep["counterexample"] is not None
    assert rep == loop_rank_scan(6, 100, 5, tol=0.05)


def test_rank_scan_does_not_depend_on_the_stencil_budget(monkeypatch):
    # one chart per stencil slice, or a whole chunk in one, gives the same report
    import treemoduli.moduli as mod

    cases = [((n, 300), {"seed": 3}) for n in range(3, 9)] + [((6, 300), {"seed": 5, "tol": 0.05})]
    want = [rank_scan(*args, **kw) for args, kw in cases]
    assert want[-1]["counterexample"] is not None
    for budget in (1, 10**9):
        monkeypatch.setattr(mod, "_BUDGET", budget)
        assert [rank_scan(*args, **kw) for args, kw in cases] == want


def test_rank_scan_decomposes_each_chunk_once(monkeypatch):
    # one stencil call per 512-trial chunk, after its redraw loops, and one SVD
    # call per stencil slice: 24 charts at n = 8, so 21 full slices and one of 8
    import treemoduli.moduli as mod

    want = rank_scan(8, 1000, seed=1)
    calls = []
    stencil, singular = mod._central_jacobians, mod._singular_values

    def counting_stencil(U, h, reduce):
        calls.append(("stencil", len(U)))
        return stencil(U, h, reduce)

    def counting_singular(jac):
        calls.append(("svd", len(jac)))
        return singular(jac)

    monkeypatch.setattr(mod, "_central_jacobians", counting_stencil)
    monkeypatch.setattr(mod, "_singular_values", counting_singular)
    assert rank_scan(8, 1000, seed=1) == want
    slices = [("svd", 24)] * 21 + [("svd", 8)]
    assert calls == [("stencil", 512)] + slices + [("stencil", 488)] + slices[1:]


def test_scan_chunks_are_whole_blocks_that_divide_2_pow_32():
    # pcg64_streams needs every trial number of a chunk to have as many 32-bit
    # words; a chunk starts at a multiple of _SCAN_CHUNK, so it never holds
    # trials on both sides of 2**32 (or of any power of it)
    assert _SCAN_CHUNK % _SCAN_BLOCK == 0
    assert 2**32 % _SCAN_CHUNK == 0


STREAM_SEEDS = [0, 1, 5, 109, 2**32 - 1, 2**32, 2**64 + 5, 3**80, 10**39 + 7]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("ks", [range(40), [2**32 - 1], [2**32, 2**40 + 3]], ids=["0..39", "2^32-1", "two-word"])
def test_pcg64_kernel_is_default_rng_bit_for_bit(seed, ks):
    # the first draw of a chart, then more from the same streams, as a redraw takes them
    state, inc = pcg64_streams(seed, ks)
    state, first = pcg64_doubles(state, inc, 4)
    state, more = pcg64_doubles(state, inc, 9)
    want = np.array([np.random.default_rng([seed, k]).random(16) for k in ks]).view(np.uint64)
    assert (np.hstack([first, more]).view(np.uint64) == want[:, :13]).all()
    _, last = pcg64_doubles(state[-1:], inc[-1:], 3)  # a one-row slice advances its own stream
    assert (last.view(np.uint64) == want[-1:, 13:]).all()


M128 = (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def object_pcg64_doubles(state, inc, count):
    """Reference: pcg64_doubles on object arrays of Python ints, the formula before the limb kernel."""
    a, b, mults, sums = 1, 0, [], []
    for _ in range(count):
        a, b = a * PCG_MULT & M128, (b * PCG_MULT + 1) & M128
        mults.append(a)
        sums.append(b)
    states = (state[:, None] * np.array(mults, object) + inc[:, None] * np.array(sums, object)) & M128
    x = (states >> 64 ^ states) & (1 << 64) - 1
    rot = states >> 122
    return states[:, -1], (((x >> rot | x << 64 - rot) & (1 << 64) - 1) >> 11).astype(float) * 2.0**-53


def limbs(values):
    """128-bit integers as the (m, 4) uint64 rows of their 32-bit limbs, the lowest first."""
    return np.array([[v >> 32 * j & 0xFFFFFFFF for j in range(4)] for v in values], np.uint64)


def from_limbs(rows):
    return [sum(int(v) << 32 * j for j, v in enumerate(row)) for row in rows]


def stepped_to(target, inc):
    """The state whose next LCG step is target."""
    return (target - inc) * pow(PCG_MULT, -1, 1 << 128) & M128


ODD = 0x5851F42D4C957F2D14057B7EF767814F
LIMB_CASES = {
    "state 2^128-1": [(M128, ODD)],
    "inc all ones": [(ODD, M128), (M128, M128)],  # carries run through all four limbs
    "rotate by 0": [(stepped_to((1 << 122) - 1, ODD), ODD), (stepped_to(0x0123456789ABCDEF << 58, ODD), ODD)],
    "rotate by 63": [(stepped_to(M128, ODD), ODD), (stepped_to(63 << 122 | 0x9E3779B97F4A7C15, ODD), ODD)],
    "mixed": [(3**k & M128, 7**k & M128 | 1) for k in range(60, 66)],
}


@pytest.mark.parametrize("count", [1, 3072])  # 3072: a full draw-ahead round at n = 8
@pytest.mark.parametrize("case", LIMB_CASES)
def test_pcg64_limb_kernel_matches_python_ints(case, count):
    state, inc = map(list, zip(*LIMB_CASES[case]))
    if case.startswith("rotate by"):  # the first step lands on the wanted top six bits
        top = [((s * PCG_MULT + c) & M128) >> 122 for s, c in zip(state, inc)]
        assert top == [int(case.split()[-1])] * len(state)
    want_state, want = object_pcg64_doubles(np.array(state, object), np.array(inc, object), count)
    got_state, got = pcg64_doubles(limbs(state), limbs(inc), count)
    assert got_state.dtype == np.uint64 and got_state.shape == (len(state), 4)
    assert from_limbs(got_state) == list(want_state)
    assert (got.view(np.uint64) == want.view(np.uint64)).all()
    _, last = pcg64_doubles(limbs(state)[-1:], limbs(inc)[-1:], count)  # a one-row slice
    assert (last.view(np.uint64) == want[-1:].view(np.uint64)).all()


@pytest.mark.parametrize("seed", [0, 109, 2**64 + 5, 10**39 + 7])
def test_pcg64_streams_are_uint64_limbs_of_default_rng_state(seed):
    ks = [0, 1, 255]
    state, inc = pcg64_streams(seed, ks)
    assert state.dtype == inc.dtype == np.uint64 and state.shape == inc.shape == (3, 4)
    want = [np.random.default_rng([seed, k]).bit_generator.state["state"] for k in ks]
    assert from_limbs(state) == [w["state"] for w in want]
    assert from_limbs(inc) == [w["inc"] for w in want]


def default_rng_rank_scan(n, trials, seed=0, h=1e-6, tol=1e-6, reject_cap=1000):
    """rank_scan drawn from one np.random.default_rng([seed, k]) per trial k: the stream reference."""
    dim = n - 2

    def draw(rng):
        return np.tan(np.pi * (rng.random(dim) + 0.25))

    def accepted(U):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.isfinite(U).all(axis=-1) & (_seam_margin(_chart_ratios(U)) > 10.0 * h)

    full, min_rank, worst_ratio, counterexample = 0, dim, math.inf, None
    for k0 in range(0, trials, 16):
        ks = range(k0, min(k0 + 16, trials))
        rngs = [np.random.default_rng([int(seed), k]) for k in ks]
        U = np.array([draw(rng) for rng in rngs])
        for row in np.flatnonzero(~accepted(U)):
            for _ in range(reject_cap - 1):
                U[row] = draw(rngs[row])
                if accepted(U[row]):
                    break
            else:
                raise SeamTooClose(
                    f"trial {ks[row]}: no draw with seam margin above 10 h in {reject_cap} tries"
                )
        rank, ratio = _rank_and_ratio(_central_jacobians(U, h, _singular_values), tol)
        short = np.flatnonzero(rank < dim)
        full += len(ks) - len(short)
        if counterexample is None and len(short):
            counterexample = [float(v) for v in U[short[0]]]
        min_rank = min(min_rank, int(rank.min()))
        worst_ratio = min(worst_ratio, float(ratio.min()))
    return {
        "n": n, "trials": trials, "seed": int(seed), "h": float(h), "tol": float(tol),
        "full_rank_count": full, "min_rank": min_rank,
        "worst_sigma_ratio": worst_ratio, "counterexample": counterexample,
    }


def scan_outcome(scan, *args, **kwargs):
    """The report of a scan, or the type and message of the error it raises."""
    try:
        return scan(*args, **kwargs)
    except (SeamTooClose, InvalidChart) as err:
        return type(err), str(err)


@pytest.mark.parametrize("seed", [0, 3, 2**32, 2**70])
@pytest.mark.parametrize("h", [1e-3, 3e-3, 1e-2])
@pytest.mark.parametrize("n", range(4, 9))
def test_rank_scan_streams_match_default_rng(n, h, seed):
    # rejection-heavy steps: many charts are redrawn, some trials exhaust the cap
    want = scan_outcome(default_rng_rank_scan, n, 40, seed, h)
    assert scan_outcome(rank_scan, n, 40, seed, h) == want


@pytest.mark.parametrize(
    "n, trials, seed, h, cap",
    [
        (5, 300, 3, 1e-3, 1000),
        (4, 600, 10**39 + 7, 1e-2, 1000),
        (8, 3, 0, 0.5, 1000),
        (4, 3, 1, 0.5, 1000),
        (4, 600, 2, 1e-3, 3),
        (6, 600, 0, 1e-3, 5),
        (7, 1600, 2, 1e-3, 8),
        (4, 600, 2, 1e-3, 1),
        (8, 100, 1, 8e-3, 1000),
        (8, 300, 0, 5e-3, 1000),
        (8, 400, 2, 8e-3, 300),
        (7, 300, 4, 8e-3, 100),
    ],
)
def test_rank_scan_streams_match_default_rng_across_chunks(n, trials, seed, h, cap):
    # trial counts past the 512-trial stream chunk, a 40-digit seed, and reject-cap
    # failures at trial 0 and, with a low cap, at trial 344 and at trials 513 and
    # 1466 of the second and third chunks; then steps that refuse most draws, so
    # redraw rounds draw many charts ahead, with a cap of 100 tries that ends a
    # round short (trial 12)
    want = scan_outcome(default_rng_rank_scan, n, trials, seed, h, reject_cap=cap)
    assert scan_outcome(rank_scan, n, trials, seed, h, reject_cap=cap) == want


def scripted_streams(monkeypatch, charts):
    """Make trial k of rank_scan draw the charts charts[k] in order, then (0.3, 0.6) forever."""
    def r(u):  # the uniform double whose tan(pi (r + 1/4)) is about u
        return (math.atan(u) / math.pi - 0.25) % 1.0

    def streams(seed, ks):
        return np.zeros(len(ks), dtype=int), np.array(list(ks))

    def doubles(state, inc, count):
        rows = [[r(v) for u in charts[k] for v in u] for k in inc]
        rows = [row + [r(0.3), r(0.6)] * count for row in rows]
        return state + count, np.array([row[s:s + count] for row, s in zip(rows, state)])

    monkeypatch.setattr("treemoduli._streams.pcg64_streams", streams)
    monkeypatch.setattr("treemoduli._streams.pcg64_doubles", doubles)


SEAM, OK = (0.3, 0.3), (0.3, 0.6)
FIFTEEN_OK = [[OK]] * 15


@pytest.mark.parametrize(
    "charts, stuck",
    [
        # trial 2 is stuck at its third try, before trials 1 and 3 at their fourth
        ([[SEAM, SEAM, OK, (5.5, 0.3)], [SEAM] * 3 + [(2.5, 0.3)], [SEAM, SEAM, (4.5, 0.3)], [SEAM] * 3 + [(3.5, 0.3)]], 4.5),
        # trials 1 and 3 are stuck at their fourth try: the lower trial raises
        ([[SEAM, SEAM, OK, (5.5, 0.3)], [SEAM] * 3 + [(2.5, 0.3)], [SEAM] * 3 + [OK], [SEAM] * 3 + [(3.5, 0.3)]], 2.5),
        # trial 16 is stuck at its first try, before trial 0 at its third, but in the
        # second 16-trial block, which runs only after the first has failed
        ([[SEAM, SEAM, (2.5, 0.3)]] + FIFTEEN_OK + [[(5.5, 0.3)]] + FIFTEEN_OK, 2.5),
    ],
)
def test_rank_scan_raises_the_first_stuck_try(monkeypatch, charts, stuck):
    # at h = 1e-16 a coordinate above 2 does not move; trial 0 is accepted at its
    # third try, so its fourth, stuck at 5.5 in the same round of draws, is never tried
    scripted_streams(monkeypatch, charts)
    with pytest.raises(InvalidChart, match="^step h = 1.000e-16 does not move chart coordinate 1 = ") as err:
        rank_scan(4, len(charts), h=1e-16)
    assert float(str(err.value).rsplit(" = ", 1)[1]) == pytest.approx(stuck)


def test_rank_scan_cap_failure_in_a_lower_block_raises_first(monkeypatch):
    # trial 0 runs out of tries, trial 16 is stuck at its first: the first block fails first
    scripted_streams(monkeypatch, [[SEAM] * 3] + FIFTEEN_OK + [[(5.5, 0.3)]] + FIFTEEN_OK)
    with pytest.raises(SeamTooClose, match=r"^trial 0: no draw with seam margin above 10 h in 3 tries$"):
        rank_scan(4, 32, h=1e-16, reject_cap=3)


NAN = (math.nan, 0.3)


@pytest.mark.parametrize(
    "charts, stuck",
    [
        # a non-finite draw is redrawn like a seam draw; the stuck one after it raises,
        # in a round of its own and in one round with the non-finite draw
        ([[OK], [NAN, (2.5, 0.3)], [OK], [OK]], 2.5),
        ([[OK], [SEAM, SEAM, NAN, (3.5, 0.3)], [OK], [OK]], 3.5),
    ],
)
def test_rank_scan_redraws_a_non_finite_chart(monkeypatch, charts, stuck):
    scripted_streams(monkeypatch, charts)
    with pytest.raises(InvalidChart, match="^step h = 1.000e-16 does not move chart coordinate 1 = ") as err:
        rank_scan(4, 4, h=1e-16)
    assert float(str(err.value).rsplit(" = ", 1)[1]) == pytest.approx(stuck)


def test_rank_scan_builds_no_refusal_error(monkeypatch):
    # about 28000 charts of this scan are refused and redrawn; none of them
    # needs an error object
    import treemoduli.moduli as mod

    want = rank_scan(8, 100, seed=1, h=8e-3)
    built = []

    class Counting(mod.SeamTooClose):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(mod, "SeamTooClose", Counting)
    assert rank_scan(8, 100, seed=1, h=8e-3) == want
    assert built == []


def test_rank_scan_screens_each_chunk_first_draw_once(monkeypatch):
    # one _refusals call for the first draw of each 512-trial chunk, not one per
    # 16-trial block, and one for each redraw round (this scan has one)
    import treemoduli._streams as streams
    import treemoduli.moduli as mod

    want = rank_scan(8, 1000, seed=1)
    calls = []
    refusals, doubles = mod._refusals, streams.pcg64_doubles

    def counting_refusals(U, *args):
        calls.append(("screen", U[..., 0].size))  # charts, whatever the leading axes
        return refusals(U, *args)

    def counting_doubles(state, inc, count):
        calls.append(("draw", len(inc), count // 6))
        return doubles(state, inc, count)

    monkeypatch.setattr(mod, "_refusals", counting_refusals)
    monkeypatch.setattr(streams, "pcg64_doubles", counting_doubles)
    assert rank_scan(8, 1000, seed=1) == want
    draws, screens = calls[::2], calls[1::2]
    assert [c[0] for c in draws] == ["draw"] * len(draws) and len(screens) == len(draws)
    assert [("screen", m * tries) for _, m, tries in draws] == screens  # each draw screened in one call
    assert [c for c in draws if c[1] > 16] == [("draw", 512, 1), ("draw", 488, 1)]
    assert len(screens) == 2 + 1


def test_rank_scan_enters_a_redraw_loop_only_for_a_block_with_a_refused_first_draw():
    # At h = 1e-4 about one chart in twelve is refused at n = 6, so some
    # 16-trial blocks hold a refused first draw and some do not; those blocks
    # are found here from NumPy's generators, one per trial.  A loop entered
    # for a block whose first draws are all accepted would draw nothing, so
    # the loops are counted by tracing the statement that opens one: the only
    # one that reads a block's first-draw rules.
    import treemoduli.moduli as mod

    n, trials, seed, h = 6, 1200, 0, 1e-4
    first = np.array([np.tan(np.pi * (np.random.default_rng([seed, k]).random(n - 2) + 0.25)) for k in range(trials)])
    refused = sorted(set((np.flatnonzero(_refusals(first, h)[0]) // _SCAN_BLOCK).tolist()))
    assert 0 < len(refused) < trials // _SCAN_BLOCK
    lines, start = inspect.getsourcelines(mod.rank_scan)
    opens = [start + i for i, text in enumerate(lines) if "rules[:, rows]" in text]
    assert len(opens) == 1
    entered = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == opens[0]:
            entered.append((frame.f_locals["c0"] + frame.f_locals["b0"]) // _SCAN_BLOCK)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is mod.rank_scan.__code__ else None

    want = rank_scan(n, trials, seed, h)
    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = rank_scan(n, trials, seed, h)
    finally:
        sys.settrace(outer)
    assert got == want
    assert entered == refused


def test_rank_scan_cap_failure_draws_only_the_failing_block(monkeypatch):
    # At h = 0.5 every chart is refused: block 0 redraws its 16 streams up
    # to the reject cap and raises, and no other stream is drawn again.
    import treemoduli._streams as streams

    draws = []
    doubles = streams.pcg64_doubles

    def counting_doubles(state, inc, count):
        draws.append((len(inc), count // 6))
        return doubles(state, inc, count)

    monkeypatch.setattr(streams, "pcg64_doubles", counting_doubles)
    with pytest.raises(SeamTooClose, match=r"^trial 0: no draw"):
        rank_scan(8, 1000, h=0.5)
    assert draws[0] == (_SCAN_CHUNK, 1)
    assert all(m == 16 for m, _ in draws[1:])
    assert sum(tries for _, tries in draws) == 1000


def test_rank_scan_redraw_memory_is_flat_in_the_reject_cap():
    # At h = 0.5 every chart is refused, so the redraw rounds of the one block
    # run to the cap.  A round draws at most _BUDGET // (16 * 6) charts per
    # stream; when it drew as many as it had tried, the peak grew with the cap
    # (24 MiB at 1000, 96 MiB at 4000).  Both peaks are about 4.2 MiB now.
    def scan(cap):
        with pytest.raises(SeamTooClose, match=rf"^trial 0: no draw .* in {cap} tries$"):
            rank_scan(8, 16, h=0.5, reject_cap=cap)

    low, high = peak_bytes(scan, 1000), peak_bytes(scan, 4000)
    assert high < 8 * 2**20 and high <= 1.5 * low, (low, high)


def test_rank_scan_memory_stays_at_the_256_trial_chunk_figure():
    # 1029562 B is the tracemalloc peak of this scan with 256-trial chunks and
    # an (m, T, dim) Jacobian stack per chunk (numpy 2.4).  A 512-trial chunk
    # holds singular values instead, and its draw and screen peak near the
    # old figure.  Peaks move by about 5 % between processes, so the bound
    # has 10 %: it catches a chunk of 1024 trials (about 1.98 MB).
    assert peak_bytes(rank_scan, 8, 1000, 1) <= 1.1 * 1029562


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rank_scan(4, 3, tol=None), "tol must lie strictly between 0 and 1, got None"),
        (lambda: rank_scan(4, 3, tol="0.5"), "tol must lie strictly between 0 and 1, got '0.5'"),
        (lambda: rank_scan(4, 3, h=None), "h must be finite and positive, got None"),
        (lambda: metric_matrix(ChartPoint((0.3, 0.5)), None), "h must be finite and positive, got None"),
        (lambda: curve_length([[0.3], [0.6]], h="1e-6"), "h must be finite and positive, got '1e-6'"),
    ],
    ids=["scan-tol-None", "scan-tol-str", "scan-h-None", "metric-h-None", "path-h-str"],
)
def test_step_and_tolerance_that_are_not_numbers_are_value_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and str(info.value) == message


def test_rank_scan_refuses_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        rank_scan(4, 5, seed=-1)


def test_split_and_draw_caps_are_checked_counts():
    # a non-integral cap is refused before the redraw loop slices by it
    with pytest.raises(ValueError, match=r"^reject_cap = 2.5 is not an integer$"):
        rank_scan(4, 3, h=0.5, reject_cap=2.5)
    with pytest.raises(ValueError, match=r"^max_splits must be >= 0$"):
        curve_length([[0.3, 2.0], [0.6, 2.0]], max_splits=-1)


def test_rank_scan_reject_cap_names_lowest_trial():
    with pytest.raises(SeamTooClose, match=r"^trial 0:"):
        rank_scan(4, 3, h=0.5)
    with pytest.raises(ValueError):
        rank_scan(4, 3, reject_cap=0)


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_step_must_be_finite_and_positive(h):
    with pytest.raises(ValueError):
        albanese_jacobian(ChartPoint((0.3, 0.5)), h)
    with pytest.raises(ValueError):
        rank_scan(4, 5, h=h)


@pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -0.5, math.nan])
def test_rank_scan_tolerance_in_unit_interval(tol):
    with pytest.raises(ValueError):
        rank_scan(4, 5, tol=tol)


def test_low_sigma_ratio_chart_is_exactly_full_rank():
    # a coordinate near the tangent pole depresses the float sigma ratio
    # below the rank tolerance, yet the differential there is injective
    u = ChartPoint((-1.9402308244564916, 1039.0048485204481, 0.04369664961997496))
    assert _rank_and_ratio(_singular_values(albanese_jacobian(u)), 0.0)[1] < 1e-6
    assert _exact_rank(_exact_jacobian(u)) == 3


@pytest.mark.parametrize("n, seed", [(7, 3), (8, 0)])
def test_printed_counterexamples_are_exactly_full_rank(n, seed):
    # the charts behind goldens rank_scan_n7_seed3.txt and rank_scan_n8_seed0.txt:
    # the float test calls them rank deficient, the exact Jacobian has rank n - 2
    u = ChartPoint(tuple(rank_scan(n, 200, seed=seed)["counterexample"]))
    assert _rank_and_ratio(_singular_values(albanese_jacobian(u)), 0.0)[1] < 1e-6
    assert _exact_rank(_exact_jacobian(u)) == n - 2


def test_benchmark_scan_counterexamples_are_exactly_full_rank():
    # Every counterexample that the benchmark-shaped scans print, 1000 trials
    # at n = 4..8 and seeds 0..4: the float SVD calls each chart rank
    # deficient, and the exact Jacobian has rank n - 2 at all 18 of them.
    flagged = [
        (n, rep["counterexample"])
        for n in range(4, 9) for seed in range(5)
        if (rep := rank_scan(n, 1000, seed))["counterexample"] is not None
    ]
    assert len(flagged) == 18
    for n, u in flagged:
        assert _exact_rank(_exact_jacobian(ChartPoint(tuple(u)))) == n - 2


def test_rank_scan_schema_and_preconditions():
    rep = rank_scan(5, 10, seed=1, h=1e-6, tol=1e-6)
    assert list(rep) == [
        "n",
        "trials",
        "seed",
        "h",
        "tol",
        "full_rank_count",
        "min_rank",
        "worst_sigma_ratio",
        "counterexample",
    ]
    assert rep["n"] == 5 and rep["trials"] == 10 and rep["seed"] == 1
    assert 0 <= rep["full_rank_count"] <= 10
    assert 0.0 <= rep["worst_sigma_ratio"] <= 1.0
    with pytest.raises(ValueError):
        rank_scan(4, 0)
    with pytest.raises(ValueError):
        rank_scan(9, 10)
    # n, trials and seed must be integers, not values that truncate to one
    for args, kw in [((4.7, 3), {}), ((4, 2.9), {}), (("4", 3), {}), ((4, 3), {"seed": 1.5})]:
        with pytest.raises(ValueError, match="integer"):
            rank_scan(*args, **kw)
    assert rank_scan(np.int64(4), 3.0, seed=np.uint64(2)) == rank_scan(4, 3, seed=2)
