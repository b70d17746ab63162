import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from treemoduli.projline import (
    INFINITY,
    ONE,
    ZERO,
    MobiusMap,
    ProjPoint,
    chordal,
)
from treemoduli.tangent import (
    DetNotOne,
    OffCircle,
    SU11Matrix,
    add,
    cayley,
    cayley_inv,
    circle_exp,
    mul,
    neg,
    stereo_param,
    su11_conjugate,
    torsion_point,
)


def random_points(rng, k):
    return [stereo_param(t) for t in rng.random(k) if t != 0.25][:k]


def random_det1(rng):
    """Random real matrix with determinant 1 up to rounding."""
    while True:
        a, b, c = rng.uniform(-2, 2, size=3)
        if abs(a) > 0.2:
            return MobiusMap(a, b, c, (1.0 + b * c) / a)


def anti_transpose(m: MobiusMap) -> MobiusMap:
    return MobiusMap(m.d, m.c, m.b, m.a)


# -- circle dictionary ---------------------------------------------------------


def test_circle_exp_is_homomorphism():
    rng = np.random.default_rng(0)
    for s, t in rng.random((200, 2)):
        assert abs(circle_exp(s)) == pytest.approx(1.0, abs=1e-12)
        assert circle_exp(s + t) == pytest.approx(circle_exp(s) * circle_exp(t), abs=1e-12)


def test_cayley_examples():
    assert cayley(INFINITY) == pytest.approx(1j)
    assert cayley(ONE) == pytest.approx(1.0 + 0j)
    assert cayley(ZERO) == pytest.approx(-1j)
    assert cayley(ProjPoint.from_affine(-1.0)) == pytest.approx(-1.0 + 0j)


def test_cayley_lands_on_circle():
    rng = np.random.default_rng(1)
    for p in random_points(rng, 300):
        assert abs(abs(cayley(p)) - 1.0) < 1e-12


def test_cayley_inv_examples():
    assert cayley_inv(1j).is_infinite
    assert cayley_inv(-1.0 + 0j).affine == pytest.approx(-1.0)
    got = cayley_inv(circle_exp(0.125)).affine
    assert got == pytest.approx(math.tan(3.0 * math.pi / 8.0), rel=1e-12)


def test_cayley_round_trips():
    rng = np.random.default_rng(2)
    for p in random_points(rng, 300):
        assert cayley_inv(cayley(p)).isclose(p, 1e-9)
    for t in np.random.default_rng(3).random(300):
        z = circle_exp(t)
        assert cayley(cayley_inv(z)) == pytest.approx(z, abs=1e-9)


def test_cayley_inv_off_circle():
    with pytest.raises(OffCircle):
        cayley_inv(1.01 + 0j)


def test_stereo_param_examples():
    assert stereo_param(0.0) == ONE
    assert stereo_param(0.25).is_infinite
    assert stereo_param(0.5).affine == pytest.approx(-1.0)
    rng = np.random.default_rng(4)
    for t in rng.random(200):
        if abs(t - 0.25) < 1e-9:
            continue
        assert stereo_param(t).isclose(cayley_inv(circle_exp(t)), 1e-9)


# -- SU(1,1) --------------------------------------------------------------------


def test_su11_rotation_matrix_entries():
    m = su11_conjugate(MobiusMap(0.0, 1.0, -1.0, 1.0))
    assert abs(m.u - (0.5 - 1.0j)) < 1e-12
    assert abs(m.v - 0.5j) < 1e-12
    m2 = su11_conjugate(MobiusMap(1.0, -1.0, 1.0, 0.0))
    assert abs(m2.u - (0.5 + 1.0j)) < 1e-12
    assert abs(m2.v + 0.5j) < 1e-12


def test_su11_identity():
    m = su11_conjugate(MobiusMap.identity())
    assert m.u == 1.0 and m.v == 0.0


def test_su11_unit_defect():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m = su11_conjugate(random_det1(rng))
        assert m.unit_defect < 1e-10


def test_su11_requires_det_one():
    with pytest.raises(DetNotOne):
        su11_conjugate(MobiusMap(2.0, 0.0, 0.0, 1.0))
    # a NaN determinant is not within any tolerance of 1
    nan_det = SimpleNamespace(a=1.0, b=0.0, c=0.0, d=1.0, det=math.nan)
    with pytest.raises(DetNotOne):
        su11_conjugate(nan_det)


def test_su11_rotation_orbits():
    m = su11_conjugate(MobiusMap(0.0, 1.0, -1.0, 1.0))
    orbit = {1.0 + 0j, 1j, -1j}
    for z in orbit:
        w = m(z)
        assert any(abs(w - o) < 1e-12 for o in orbit)
    # the orbit of -1 is {-1, (4 + 3i)/5, (4 - 3i)/5}
    z = -1.0 + 0j
    seen = [z]
    for _ in range(2):
        z = m(z)
        seen.append(z)
    assert abs(m(z) - seen[0]) < 1e-12
    expected = {(-1.0, 0.0), (0.8, 0.6), (0.8, -0.6)}
    got = {(round(w.real, 9), round(w.imag, 9)) for w in seen}
    assert got == expected


def test_su11_preserves_circle_and_conjugate_inverse():
    rng = np.random.default_rng(6)
    for _ in range(200):
        m = su11_conjugate(random_det1(rng))
        z = circle_exp(rng.random())
        w = m(z)
        assert abs(abs(w) - 1.0) < 1e-9
        # complex conjugate of the image equals its inverse on the circle
        assert abs(w.conjugate() - 1.0 / w) < 1e-9


def test_su11_intertwines_cayley():
    # the circle action matches the line action of the anti-transposed
    # matrix, i.e. the original map seen through the coordinate 1/x
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = random_det1(rng)
        mm = su11_conjugate(m)
        flipped = anti_transpose(m)
        for p in random_points(rng, 10):
            assert abs(mm(cayley(p)) - cayley(flipped(p))) < 1e-9


# -- group law --------------------------------------------------------------------


def test_group_identities_exact():
    assert add(ONE, ONE).is_infinite
    assert add(ONE, ONE).b == 0.0
    assert add(ZERO, ProjPoint.from_affine(17.0)).affine == 17.0
    assert add(INFINITY, INFINITY) == ZERO
    x = ProjPoint.from_affine(7.0 / 3.0)
    s = add(x, INFINITY)
    inv = ProjPoint(-x.b, x.a)
    assert (s.a, s.b) == (inv.a, inv.b)


def test_group_axioms():
    rng = np.random.default_rng(8)
    pts = random_points(rng, 3000)
    for a, b, c in zip(pts[0::3], pts[1::3], pts[2::3]):
        assert chordal(add(a, b), add(b, a)) < 1e-12
        assert chordal(add(add(a, b), c), add(a, add(b, c))) < 1e-9
        assert chordal(add(a, ZERO), a) < 1e-12
        assert chordal(add(a, neg(a)), ZERO) < 1e-12


def test_group_neg():
    assert neg(ProjPoint.from_affine(2.0)).affine == -2.0
    assert neg(ZERO) == ZERO
    assert neg(INFINITY).is_infinite


def test_tangent_addition_formula():
    t = math.tan(math.pi / 6.0)
    s = add(ProjPoint.from_affine(t), ProjPoint.from_affine(t))
    assert s.affine == pytest.approx(math.sqrt(3.0), rel=1e-12)
    rng = np.random.default_rng(9)
    for x, y in rng.uniform(-1.4, 1.4, size=(300, 2)):
        if abs(math.cos(x)) < 1e-3 or abs(math.cos(y)) < 1e-3 or abs(math.cos(x + y)) < 1e-3:
            continue
        got = add(ProjPoint.from_affine(math.tan(x)), ProjPoint.from_affine(math.tan(y)))
        assert chordal(got, ProjPoint.from_affine(math.tan(x + y))) < 1e-9


def test_transport_to_circle_multiplication():
    rng = np.random.default_rng(10)
    for a, b in zip(random_points(rng, 200), random_points(rng, 200)):
        lhs = 1j * cayley(add(a, b))
        rhs = (1j * cayley(a)) * (1j * cayley(b))
        assert abs(lhs - rhs) < 1e-9


def test_integer_multiples():
    assert mul(3, ProjPoint(1.0, 2.0)).affine == pytest.approx(5.5)
    p = ProjPoint.from_affine(math.pi)
    assert mul(1, p).affine == math.pi
    assert mul(0, p) == ZERO
    assert mul(2, ONE).is_infinite
    assert mul(2, INFINITY) == ZERO
    assert mul(4, ONE) == ZERO
    q = ProjPoint.from_affine(0.37)
    assert chordal(mul(-3, q), neg(mul(3, q))) < 1e-12


def test_triple_formula():
    rng = np.random.default_rng(11)
    for w in rng.uniform(0.3, 3.0, size=100):
        got = mul(3, ProjPoint(1.0, w))
        want = ProjPoint(3.0 * w * w - 1.0, w**3 - 3.0 * w)
        assert chordal(got, want) < 1e-9


def test_mul_matches_tangent_multiples():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0)
        m = int(rng.integers(-6, 7))
        if abs(math.cos(m * math.atan(x))) < 1e-3:
            continue
        got = mul(m, ProjPoint.from_affine(x))
        want = ProjPoint.from_affine(math.tan(m * math.atan(x)))
        assert chordal(got, want) < 1e-9


def test_formal_group_series():
    # degree <= 5 series of (x + y)/(1 - xy): x + y + xy(x + y) + (xy)^2 (x + y)
    r = 0.1
    xi = np.linspace(-1.0, 1.0, 15)
    grid_x, grid_y = np.meshgrid(xi, xi)
    vals = np.empty_like(grid_x)
    for i in range(15):
        for j in range(15):
            vals[i, j] = add(
                ProjPoint.from_affine(r * grid_x[i, j]),
                ProjPoint.from_affine(r * grid_y[i, j]),
            ).affine
    cols, names = [], []
    for i in range(10):
        for j in range(10):
            if i + j <= 9:
                cols.append((grid_x**i * grid_y**j).ravel())
                names.append((i, j))
    coef, *_ = np.linalg.lstsq(np.array(cols).T, vals.ravel(), rcond=None)
    expected = {(1, 0): 1.0, (0, 1): 1.0, (2, 1): 1.0, (1, 2): 1.0, (3, 2): 1.0, (2, 3): 1.0}
    for (i, j), c in zip(names, coef):
        if i + j > 5:
            continue
        assert c / r ** (i + j) == pytest.approx(expected.get((i, j), 0.0), abs=1e-4)


# -- torsion ---------------------------------------------------------------------


def test_torsion_examples():
    assert torsion_point(Fraction(1, 4)) == ONE
    assert torsion_point(0) == ZERO
    assert torsion_point(Fraction(1, 2)).is_infinite
    assert torsion_point((3, 4)).affine == -1.0
    r3 = torsion_point(Fraction(1, 3))
    assert r3.affine == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert chordal(mul(3, r3), ZERO) < 1e-12


def test_torsion_points_annihilated_by_denominator():
    for b in range(1, 13):
        for a in range(b):
            p = torsion_point(Fraction(a, b))
            assert chordal(mul(b, p), ZERO) < 1e-9


def test_unique_two_torsion():
    seen = set()
    for b in range(1, 25):
        for a in range(b):
            p = torsion_point(Fraction(a, b))
            if chordal(p, ZERO) < 1e-9:
                continue
            if chordal(add(p, p), ZERO) < 1e-9:
                seen.add(p.is_infinite)
                assert p.is_infinite
    assert seen == {True}
