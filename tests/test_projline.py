import copy
import math
import pickle

import numpy as np
import pytest

from treemoduli.projline import (
    CYCLE,
    CYCLE2,
    IDENTITY,
    INFINITY,
    ONE,
    SWAP_01,
    SWAP_0INF,
    SWAP_1INF,
    ZERO,
    DegenerateAnchor,
    DegenerateMatrix,
    IndeterminateCrossRatio,
    MobiusMap,
    ProjPoint,
    S3Element,
    chordal,
    cross_ratio,
    frame_map,
    normalize_quadruple,
)
from treemoduli.cover import CirclePoint, circle_distance, cover_integral
from treemoduli.moduli import BadIndex, ChartPoint, Configuration, NotAPermutation, check_triple, curve_length
from treemoduli.moduli import forgetful, rank_scan, relabel
from treemoduli.plots import graph_samples, helix_samples, ideal_geodesic, tree3_figure
from treemoduli.tangent import SU11Matrix, circle_exp, mul, stereo_param, torsion_point


def random_points(rng, k, scale=1.0):
    """Sample points by the circle's round measure (tan of a uniform angle)."""
    out = []
    while len(out) < k:
        t = rng.random()
        x = math.tan(math.pi * (t + 0.25)) * scale
        if math.isfinite(x):
            out.append(ProjPoint.from_affine(x))
    return out


def random_mobius(rng):
    while True:
        a, b, c, d = rng.uniform(-2, 2, size=4)
        if abs(a * d - b * c) > 1e-2:
            return MobiusMap(a, b, c, d)


# -- ProjPoint -------------------------------------------------------------


def test_canonical_form_invariants():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = ProjPoint(rng.uniform(-10, 10), rng.uniform(-10, 10))
        a, b = p.canonical()
        assert max(abs(a), abs(b)) == 1.0
        first = b if b != 0.0 else a
        assert first > 0.0


def test_canonical_pair_has_no_negative_zero():
    # -0.0 would print as "-0.0" in the JSON echo of a point
    for a, b in ((-0.0, 1.0), (0.0, -3.0), (-0.0, -3.0), (2.0, -0.0), (-2.0, 0.0), (1e300, -1e-300)):
        p = ProjPoint(a, b)
        assert math.copysign(1.0, p.a) == 1.0 or p.a < 0.0
        assert math.copysign(1.0, p.b) == 1.0
    assert ProjPoint(-0.0, 1.0).to_json() == 0.0 and str(ProjPoint(-0.0, 1.0).to_json()) == "0.0"


def test_affine_round_trip_exact():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-1e6, 1e6, size=100):
        assert ProjPoint.from_affine(x).affine == x
    assert ProjPoint.from_affine(math.inf).is_infinite
    assert ProjPoint.from_affine(-math.inf).is_infinite


def test_invalid_pairs_rejected():
    with pytest.raises(ValueError):
        ProjPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        ProjPoint(math.nan, 1.0)
    with pytest.raises(ValueError):
        ProjPoint(math.inf, 1.0)


def test_point_equality_tolerance():
    assert ProjPoint.from_affine(2.0) == ProjPoint(2.0 + 1e-14, 1.0)
    assert ProjPoint.from_affine(2.0) != ProjPoint.from_affine(2.0 + 1e-6)
    assert ProjPoint(1.0, 1e-15) == INFINITY
    assert chordal(ZERO, INFINITY) == 1.0


def test_json_round_trip():
    for p in (ZERO, ONE, INFINITY, ProjPoint.from_affine(-3.25)):
        assert ProjPoint.from_json(p.to_json()) == p
    assert ProjPoint.from_json([2.0, 4.0]).affine == 0.5
    assert ProjPoint.from_json(3).affine == 3.0
    assert ProjPoint.from_json([-1, 4]).affine == -0.25
    # only the string "inf" is infinity; booleans and strings are not numbers
    for bad in (math.inf, -math.inf, math.nan, [math.inf, 1.0], True, [True, False], "3", "Infinity", None):
        with pytest.raises(ValueError):
            ProjPoint.from_json(bad)
    # affine overflow falls back to the homogeneous form
    big = ProjPoint(1.0, 1e-320)
    obj = big.to_json()
    assert isinstance(obj, list)
    assert ProjPoint.from_json(obj) == big


# -- MobiusMap --------------------------------------------------------------


def test_mobius_apply_examples():
    assert CYCLE(ZERO) == ONE                       # (1-0)^-1 = 1
    assert MobiusMap.identity()(ProjPoint.from_affine(7.0)).affine == 7.0
    # order three, stepwise: 1/2 -> 2 -> -1 -> 1/2
    p = ProjPoint.from_affine(0.5)
    q = CYCLE(p)
    assert q.affine == pytest.approx(2.0)
    q = CYCLE(q)
    assert q.affine == pytest.approx(-1.0)
    assert CYCLE(q) == p


def test_scalar_multiples_act_identically():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = random_mobius(rng)
        lam = rng.uniform(0.1, 5) * rng.choice([-1, 1])
        p = random_points(rng, 1)[0]
        assert m(p) == m.scale(lam)(p)


def test_degenerate_matrix_rejected():
    with pytest.raises(DegenerateMatrix):
        MobiusMap(1.0, 2.0, 2.0, 4.0)
    with pytest.raises(DegenerateMatrix):
        MobiusMap(math.inf, 0.0, 0.0, 1.0)
    # finite entries whose products overflow: the determinant is inf - inf = nan, then inf + inf
    with pytest.raises(DegenerateMatrix):
        MobiusMap(1e200, 1e200, 1e200, 1e200)
    with pytest.raises(DegenerateMatrix):
        MobiusMap(1e200, -1e200, 1e200, 1e200)


def test_compose_is_apply_after():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m, n = random_mobius(rng), random_mobius(rng)
        p = random_points(rng, 1)[0]
        assert m.compose(n)(p).isclose(m(n(p)), 1e-9)


def test_compose_cycle_inverse_is_identity():
    m = CYCLE.matrix.compose(CYCLE2.matrix)
    for p in (ZERO, ONE, INFINITY, ProjPoint.from_affine(0.3)):
        assert m(p) == p


def test_compose_identity_returns_same_entries():
    m = MobiusMap(2.0, -1.0, 0.5, 3.0)
    c = m.compose(MobiusMap.identity())
    assert (c.a, c.b, c.c, c.d) == (m.a, m.b, m.c, m.d)


def test_swap_composition_realizes_cycles():
    # swap at 0,1 followed by swap at 1,inf is the inverse rotation 1 - 1/x
    m = SWAP_1INF.compose(SWAP_01)
    assert m is CYCLE2
    rng = np.random.default_rng(4)
    for p in random_points(rng, 50):
        if abs(p.affine) < 1e-6:
            continue
        assert m(p).isclose(ProjPoint.from_affine(1.0 - 1.0 / p.affine), 1e-9)
    # and in the other order the rotation itself
    assert SWAP_01.compose(SWAP_1INF) is CYCLE


# -- S3 action ---------------------------------------------------------------


def test_s3_apply_examples():
    assert SWAP_01(ZERO) == ONE
    assert IDENTITY(INFINITY).is_infinite
    g = SWAP_01.compose(SWAP_1INF).compose(SWAP_01)
    assert g is SWAP_0INF
    assert g(ProjPoint.from_affine(5.0)).affine == pytest.approx(0.2)


def test_braid_relation_pointwise():
    rng = np.random.default_rng(5)
    lhs = SWAP_01.compose(SWAP_1INF).compose(SWAP_01)
    rhs = SWAP_1INF.compose(SWAP_01).compose(SWAP_1INF)
    assert lhs is rhs is SWAP_0INF
    for p in random_points(rng, 1000):
        img = lhs(p)
        assert img.isclose(rhs(p), 1e-12)
        if abs(p.affine) > 1e-9:
            assert img.isclose(ProjPoint.from_affine(1.0 / p.affine), 1e-9)


def test_s3_group_structure():
    elements = [IDENTITY, SWAP_01, SWAP_1INF, SWAP_0INF, CYCLE, CYCLE2]
    # closure and faithfulness of the composition table
    rng = np.random.default_rng(6)
    pts = random_points(rng, 20)
    for g in elements:
        for h in elements:
            gh = g.compose(h)
            assert gh in elements
            for p in pts:
                assert gh(p).isclose(g(h(p)), 1e-9)
    # conjugating the rotation by a swap inverts it
    assert SWAP_01.compose(CYCLE).compose(SWAP_01) is CYCLE.inverse()
    assert CYCLE.inverse() is CYCLE2


def test_s3_from_word():
    assert S3Element.from_word([]) is IDENTITY
    assert S3Element.from_word(["swap01", "swap1inf"]) is SWAP_01.compose(SWAP_1INF)
    assert S3Element.from_word([SWAP_01, SWAP_01]) is IDENTITY


# -- cross-ratio --------------------------------------------------------------


def affine_cross_ratio(x0, x1, x2, x3):
    """Independent affine oracle for finite quadruples."""
    return ((x0 - x1) / (x0 - x2)) * ((x2 - x3) / (x1 - x3))


def test_cross_ratio_examples():
    rho = ProjPoint.from_affine(0.5)
    assert cross_ratio(ZERO, rho, ONE, INFINITY).affine == 0.5
    assert cross_ratio(ZERO, ZERO, ONE, INFINITY).affine == 0.0
    # [1 : 2 : inf : 0] with 2 = (1 - 1/2)^-1
    v = cross_ratio(ONE, ProjPoint.from_affine(2.0), INFINITY, ZERO)
    assert v.affine == 0.5


def test_cross_ratio_matches_affine_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        xs = rng.uniform(-5, 5, size=4)
        if min(abs(xs[i] - xs[j]) for i in range(4) for j in range(i + 1, 4)) < 1e-3:
            continue
        got = cross_ratio(*(ProjPoint.from_affine(x) for x in xs))
        want = affine_cross_ratio(*xs)
        assert got.isclose(ProjPoint.from_affine(want), 1e-10)


def test_cross_ratio_single_coincidence_exact():
    # coincident slots {0,1} or {2,3} give 0, {0,2} or {1,3} give
    # infinity, {1,2} or {0,3} give 1, all without rounding error
    p = ProjPoint.from_affine(0.7)
    q = ProjPoint.from_affine(-1.3)
    r = ProjPoint.from_affine(2.0)
    assert cross_ratio(p, p, q, r).a == 0.0
    assert cross_ratio(p, q, r, r).a == 0.0
    assert cross_ratio(p, q, p, r).is_infinite
    assert cross_ratio(p, q, r, q).is_infinite
    assert cross_ratio(p, q, q, r) == ONE
    assert cross_ratio(p, q, r, p) == ONE


def test_cross_ratio_indeterminate():
    p = ProjPoint.from_affine(0.7)
    q = ProjPoint.from_affine(2.0)
    with pytest.raises(IndeterminateCrossRatio):
        cross_ratio(p, p, p, q)


def test_pgl2_invariance():
    rng = np.random.default_rng(8)
    count = 0
    while count < 1000:
        pts = random_points(rng, 4)
        if min(
            chordal(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4)
        ) < 1e-4:
            continue
        m = random_mobius(rng)
        base = cross_ratio(*pts)
        moved = cross_ratio(*(m(p) for p in pts))
        assert moved.isclose(base, 1e-9)
        count += 1


def test_klein_invariance_exact():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = random_points(rng, 4)
        base = cross_ratio(p[0], p[1], p[2], p[3])
        for perm in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
            v = cross_ratio(*(p[i] for i in perm))
            assert (v.a, v.b) == (base.a, base.b)


def test_anharmonic_identity():
    # rho and its rotation satisfy rho = (s - 1)/s with s the rotated value
    rng = np.random.default_rng(10)
    for _ in range(200):
        rho = random_points(rng, 1)[0]
        if chordal(rho, ONE) < 1e-6 or chordal(rho, ZERO) < 1e-6:
            continue
        s = CYCLE(rho)
        if s.is_infinite or abs(s.affine) < 1e-9:
            continue
        assert rho.isclose(ProjPoint.from_affine((s.affine - 1.0) / s.affine), 1e-9)


def test_cross_ratio_infinity_is_affine_limit():
    rng = np.random.default_rng(11)
    for _ in range(100):
        xs = sorted(rng.uniform(-3, 3, size=3))
        if xs[1] - xs[0] < 1e-2 or xs[2] - xs[1] < 1e-2:
            continue
        exact = cross_ratio(
            ProjPoint.from_affine(xs[0]),
            ProjPoint.from_affine(xs[1]),
            ProjPoint.from_affine(xs[2]),
            INFINITY,
        ).affine
        far = affine_cross_ratio(xs[0], xs[1], xs[2], 1e6)
        assert far == pytest.approx(exact, rel=1e-5)


# -- normalizing maps ---------------------------------------------------------


def test_normalize_quadruple_standard_position():
    m = normalize_quadruple(ZERO, ProjPoint.from_affine(0.5), ONE, INFINITY)
    for p in (ZERO, ONE, INFINITY, ProjPoint.from_affine(0.31)):
        assert m(p) == p


def test_normalize_quadruple_reads_off_coordinate():
    m = normalize_quadruple(ZERO, ProjPoint.from_affine(3.0), ONE, INFINITY)
    assert m(ProjPoint.from_affine(3.0)).affine == pytest.approx(3.0)


def test_normalize_quadruple_against_cross_ratio():
    rng = np.random.default_rng(12)
    for _ in range(200):
        pts = random_points(rng, 4)
        if min(
            chordal(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4)
        ) < 1e-4:
            continue
        m = normalize_quadruple(*pts)
        assert m(pts[0]) == ZERO
        assert m(pts[2]) == ONE
        assert m(pts[3]) == INFINITY
        assert m(pts[1]).isclose(cross_ratio(*pts), 1e-9)


def test_normalize_ordered_quadruple_lands_inside():
    m = normalize_quadruple(
        ProjPoint.from_affine(-1.0), ZERO, ONE, INFINITY
    )
    img = m(ZERO)
    assert img.affine == pytest.approx(0.5)
    rng = np.random.default_rng(13)
    for _ in range(100):
        xs = np.sort(rng.uniform(-10, 10, size=4))
        if np.min(np.diff(xs)) < 1e-2:
            continue
        pts = [ProjPoint.from_affine(x) for x in xs]
        y = normalize_quadruple(*pts)(pts[1]).affine
        assert 0.0 < y < 1.0


def test_degenerate_anchor():
    with pytest.raises(DegenerateAnchor):
        frame_map(ZERO, ZERO, ONE)
    with pytest.raises(DegenerateAnchor):
        normalize_quadruple(ZERO, ONE, INFINITY, INFINITY)


# -- the library's one integer rule ------------------------------------------------


C4 = Configuration((ZERO, ProjPoint.from_affine(0.3), ProjPoint.from_affine(0.6), ONE, INFINITY))
C5 = Configuration((ZERO, *(ProjPoint.from_affine(x) for x in (0.2, 0.4, 0.6)), ONE, INFINITY))
CROSS = [[0.5 + 1e-7, 2.0], [1.5 + 1e-7, 2.0]]  # bisected at a seam

# Every integer argument of the library, valid at 3: (name, call of one value, error type).
INTEGER_ARGUMENTS = {
    "check_triple": ("triple entry", lambda v: check_triple((1, v, 4), 5), BadIndex),
    "forgetful": ("triple entry", lambda v: forgetful(C5, (1, 2, v)), BadIndex),
    "relabel": ("label", lambda v: relabel([1, 2, v, 4], C4), NotAPermutation),
    "rank_scan-n": ("n", lambda v: rank_scan(v, 3), ValueError),
    "rank_scan-trials": ("trials", lambda v: rank_scan(4, v), ValueError),
    "rank_scan-seed": ("seed", lambda v: rank_scan(4, 3, seed=v), ValueError),
    "rank_scan-reject_cap": ("reject_cap", lambda v: rank_scan(4, 3, reject_cap=v), ValueError),
    "curve_length-max_splits": ("max_splits", lambda v: curve_length(CROSS, max_splits=v), ValueError),
    "mul": ("m", lambda v: mul(v, ProjPoint(1.0, 2.0)), ValueError),
    "torsion_point-a": ("a", lambda v: torsion_point((v, 8)), ValueError),
    "torsion_point-b": ("b", lambda v: torsion_point((1, v)), ValueError),
    "cover_integral": ("order", cover_integral, ValueError),
    "helix_samples": ("k", helix_samples, ValueError),
    "graph_samples": ("k", graph_samples, ValueError),
}


@pytest.mark.parametrize("row", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf, "3", None], ids=repr)
def test_integer_argument_refuses_non_integers(row, bad):
    name, call, error = INTEGER_ARGUMENTS[row]
    with pytest.raises(error) as info:
        call(bad)
    assert info.type is error  # never OverflowError, TypeError or another ValueError
    assert str(info.value) == f"{name} = {bad!r} is not an integer"


@pytest.mark.parametrize("row", INTEGER_ARGUMENTS)
def test_integer_argument_takes_integral_values(row):
    _name, call, _error = INTEGER_ARGUMENTS[row]
    assert call(3.0) == call(np.int64(3)) == call(3)


# -- the library's one angle rule ------------------------------------------------


# Every angle argument of the library, valid at 0.3: a name and a call of one value.
ANGLE_ARGUMENTS = {
    "CirclePoint": CirclePoint,
    "circle_distance": lambda v: circle_distance(0.2, v),
    "ideal_geodesic": lambda v: ideal_geodesic(v, 0.8),
    "circle_exp": circle_exp,
    "stereo_param": stereo_param,
}


@pytest.mark.parametrize("row", ANGLE_ARGUMENTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_angle_argument_refuses_non_finite_values(row, bad):
    # each would otherwise return a NaN (or raise a bare "math domain error")
    call = ANGLE_ARGUMENTS[row]
    call(0.3)
    with pytest.raises(ValueError) as info:
        call(bad)
    assert info.type is ValueError
    assert str(info.value) == f"angle {bad!r} is not a finite number"


# -- value types ----------------------------------------------------------------


def value_objects():
    """One object of each immutable value type, with the name of one of its fields."""
    return [
        (ProjPoint(3.0, -2.0), "a"),
        (MobiusMap(1.0, 2.0, 3.0, 5.0), "d"),
        (CYCLE, "perm"),
        (CirclePoint(0.25), "t"),
        (Configuration((ZERO, ProjPoint(1e-300, 1.0), ONE, INFINITY)), "points"),
        (ChartPoint((0.3, 0.7)), "u"),
        (SU11Matrix(1.5 + 0.5j, 0.5 - 1.0j), "v"),
        (ideal_geodesic(0.1, 0.35), "center"),
        (tree3_figure(ZERO, ProjPoint.from_affine(0.3), ONE, INFINITY), "gamma"),
    ]


@pytest.mark.parametrize("obj, field", value_objects(), ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_value_types_copy_and_pickle_and_refuse_changes(obj, field):
    clones = [copy.copy(obj), copy.deepcopy(obj)]
    clones += [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is type(obj) and clone == obj and repr(clone) == repr(obj)
        if isinstance(obj, S3Element):
            assert clone is obj  # the six elements are singletons
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


def test_value_types_compare_hash_and_print_by_fields():
    assert repr(CirclePoint(1.25)) == "CirclePoint(t=0.25)"
    assert repr(ChartPoint((1, 2))) == "ChartPoint(u=(1.0, 2.0))"
    assert repr(ideal_geodesic(0.0, 0.5)) == "ArcDescriptor(kind='diameter', t1=0.0, t2=0.5, center=None, radius=None)"
    assert CirclePoint(0.25) == CirclePoint(-0.75) and hash(CirclePoint(0.25)) == hash(CirclePoint(-0.75))
    assert CirclePoint(0.25) != ChartPoint((0.25,)) and CirclePoint(0.25) != 0.25
    assert len({SU11Matrix(1.0, 0.0), SU11Matrix(1.0, 0.0), SU11Matrix(1.0, 1e-300)}) == 2
    assert MobiusMap(1.0, 2.0, 3.0, 5.0) == MobiusMap(1.0, 2.0, 3.0, 5.0) != MobiusMap(2.0, 4.0, 6.0, 10.0)
    # a point compares by the chordal tolerance, so it has no hash, nor has a value that holds one
    for obj in (ZERO, Configuration((ZERO, ONE, ProjPoint(2.0, 1.0), INFINITY)), tree3_figure(ZERO, ONE, ONE, INFINITY)):
        with pytest.raises(TypeError):
            hash(obj)
