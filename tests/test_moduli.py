import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    _central_jacobians,
    _chart_margins,
    _chart_ratios,
    _cover_values,
    _exact_jacobian,
    _exact_rank,
    _incidence,
    _rank_and_ratio,
    _seam_margin,
    _triple_arrays,
    _wrap,
)
from treemoduli._streams import pcg64_doubles, pcg64_streams
from treemoduli.projline import (
    INFINITY,
    ONE,
    ZERO,
    IndeterminateCrossRatio,
    MobiusMap,
    ProjPoint,
    chordal,
    cross_ratio,
)

GOLDEN = Path(__file__).parent / "golden"


def pt(x):
    return ProjPoint.from_affine(x)


def random_chart(rng, n, margin=1e-4):
    """Open-stratum chart drawn from the circle's round measure."""
    trip, bk = _triple_arrays(n)
    while True:
        u = np.tan(np.pi * (rng.random(n - 2) + 0.25))
        if np.isfinite(u).all() and _seam_margin(_chart_ratios(u, trip, bk)) > margin:
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
        trip, bk = _triple_arrays(n)
        rho = _chart_ratios(u.as_array(), trip, bk)
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
    trip, bk = _triple_arrays(u.n)
    rho = _chart_ratios(u.as_array(), trip, bk)
    for s, r, t in zip(triples(u.n), rho, _cover_values(rho)):
        assert cross_ratio(*forgetful(c, s)).affine == r
        assert circle_distance(triple_coord(c, s), t) < 1e-15


def test_albanese_enumeration():
    c = Configuration((ZERO, pt(0.5), ONE, INFINITY))
    vals = albanese(c)
    assert len(vals) == 1 and vals[0].t == 0.5
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(homogeneous_configurations())
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
    assert [t.t.hex() for t in albanese(c)] == expected


def test_albanese_permutation_covariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 7))
        c = chart_embed(random_chart(rng, n))
        perm = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
        moved = relabel(perm, c)
        base = {s: t.t for s, t in zip(triples(n), albanese(c))}
        for s, t in zip(triples(n), albanese(moved)):
            src = tuple(sorted(perm.index(i) + 1 for i in s))
            # each factor is acted on through the quotient, so values
            # match up to the orientation-reversing reflection
            d_same = circle_distance(t.t, base[src])
            d_flip = circle_distance(t.t, (1.0 - base[src]) % 1.0)
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


def test_jacobian_central_vs_analytic():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = random_chart(rng, 4)
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


def loop_jacobian(u, h=1e-6):
    """Reference central differences: one chart, one coordinate at a time."""
    trip, bk = _triple_arrays(u.n)
    base = u.as_array()
    jac = np.empty((len(trip), len(base)))
    for m in range(len(base)):
        up, dn = base.copy(), base.copy()
        up[m] += h
        dn[m] -= h
        tp = _cover_values(_chart_ratios(up, trip, bk))
        tm = _cover_values(_chart_ratios(dn, trip, bk))
        jac[:, m] = _wrap(tp - tm) / (2.0 * h)
    return jac


def test_stacked_central_jacobians_match_per_chart_loop():
    rng = np.random.default_rng(11)
    for n in (4, 8, 12, 16):
        charts = [random_chart(rng, n) for _ in range(9)]
        trip, bk = _triple_arrays(n)
        stack = _central_jacobians(np.array([u.u for u in charts]), 1e-6, trip, bk)
        assert stack.shape == (9, len(trip), n - 2)
        for u, jac in zip(charts, stack):
            ref = loop_jacobian(u)
            # the entries the sparse stencil skips are +0.0 in the dense loop
            assert np.array_equal(jac, ref)
            assert np.array_equal(np.signbit(jac), np.signbit(ref))
            assert np.array_equal(albanese_jacobian(u), ref)


def test_incidence_table_lists_the_triples_of_each_point():
    for n in (3, 5, 9):
        trip, _ = _triple_arrays(n)
        idx, moved = _incidence(n)
        assert _incidence(n)[0] is idx
        assert idx.shape == (n - 2, math.comb(n - 1, 2))
        for r in range(n - 2):
            assert list(idx[r]) == [k for k, t in enumerate(trip) if r + 1 in t]
            assert np.array_equal(moved[r], trip[idx[r]] == r + 1)
        assert (moved.sum(axis=-1) == 1).all()
        with pytest.raises(ValueError):
            idx[0, 0] = 0


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


def test_triple_table_is_cached_and_read_only():
    trip, bk = _triple_arrays(6)
    assert _triple_arrays(6)[0] is trip
    with pytest.raises(ValueError):
        trip[0, 0] = 2
    with pytest.raises(ValueError):
        bk[0] = 2.0


def test_numpy_stand_in_is_replaced_on_first_use():
    # the stencil and SVD loops then look up numpy itself, through no proxy
    import treemoduli.moduli

    metric_matrix(ChartPoint((0.3, 0.5)))
    assert treemoduli.moduli.np is np


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
        trip, bk = _triple_arrays(n)
        if np.abs(u2).max() > 1e3 or _seam_margin(_chart_ratios(u2, trip, bk)) < 1e-3:
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

    def recording(U, h, trip, bk):
        charts.extend(map(tuple, U))
        return stencil(U, h, trip, bk)

    monkeypatch.setattr(mod, "_central_jacobians", recording)
    rng = np.random.default_rng(43)
    rows = seeded_path(rng, 5, legs=8)
    curve_length(rows)
    curve_length([[0.5 + 1e-7, 2.0], [1.5 + 1e-7, 2.0]], max_splits=0)
    assert len(charts) > len(rows)  # bisections and the fallback add charts
    assert min(seam_margin_homogeneous(u) for u in charts) > 1e-5


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
    # a later non-finite midpoint does not mask an earlier failed fallback
    rows = [[1.0 - 1e-7, 2.0], [1.0 + 1e-7, 2.0], [1e308, 2.0], [1.7e308, 2.0]]
    with pytest.raises(SeamTooClose):
        loop_curve_length(rows, max_splits=0)
    with np.errstate(over="ignore"), pytest.raises(SeamTooClose):
        curve_length(rows, max_splits=0)
    with np.errstate(over="ignore"), pytest.raises(InvalidChart, match="finite"):
        curve_length(rows[2:])


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
    metric = mod.metric_matrix
    monkeypatch.setattr(mod, "metric_matrix", lambda u, h: refused.append(u) or metric(u, h))
    with pytest.raises(SeamTooClose) as got:
        curve_length(rows, max_splits=8)
    assert str(got.value) == str(ref.value)
    assert len(refused) < 3000  # 140 pieces, 6 blocks of 102 and 6 * 102 fallback points


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
    trip, bk = _triple_arrays(n)
    full, min_rank, worst, counterexample = 0, n - 2, math.inf, None
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        while True:
            u = np.tan(np.pi * (rng.random(n - 2) + 0.25))
            if np.isfinite(u).all() and _seam_margin(_chart_ratios(u, trip, bk)) > 10.0 * h:
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


@pytest.mark.parametrize("trials", [1, 33, 100])
@pytest.mark.parametrize("n", range(3, 9))
def test_rank_scan_matches_per_trial_loop(n, trials):
    # trial counts that are not multiples of the block size
    assert rank_scan(n, trials, seed=3) == loop_rank_scan(n, trials, 3)


def test_rank_scan_counterexample_matches_per_trial_loop():
    # a tolerance high enough that some charts count as rank-deficient
    rep = rank_scan(6, 100, seed=5, tol=0.05)
    assert rep["counterexample"] is not None
    assert rep == loop_rank_scan(6, 100, 5, tol=0.05)


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


def default_rng_rank_scan(n, trials, seed=0, h=1e-6, tol=1e-6, reject_cap=1000):
    """rank_scan drawn from one np.random.default_rng([seed, k]) per trial k: the stream reference."""
    trip, bk = _triple_arrays(n)
    dim = n - 2

    def draw(rng):
        return np.tan(np.pi * (rng.random(dim) + 0.25))

    def accepted(U):
        return np.isfinite(U).all(axis=-1) & (_chart_margins(U, trip, bk) > 10.0 * h)

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
        rank, ratio = _rank_and_ratio(_central_jacobians(U, h, trip, bk), tol)
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
        (4, 600, 2, 1e-3, 1),
    ],
)
def test_rank_scan_streams_match_default_rng_across_chunks(n, trials, seed, h, cap):
    # trial counts past the 256-trial stream chunk, a 40-digit seed, and reject-cap
    # failures at trial 0 and, with a low cap, at trials 344 and 513 of later chunks
    want = scan_outcome(default_rng_rank_scan, n, trials, seed, h, reject_cap=cap)
    assert scan_outcome(rank_scan, n, trials, seed, h, reject_cap=cap) == want


def test_rank_scan_refuses_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        rank_scan(4, 5, seed=-1)


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
    assert _rank_and_ratio(albanese_jacobian(u), 0.0)[1] < 1e-6
    assert _exact_rank(_exact_jacobian(u)) == 3


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
