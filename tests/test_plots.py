import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treemoduli.cover import CirclePoint, circle_cover, circle_distance, devadoss_length
from treemoduli.plots import (
    CoincidentIdealPoints,
    _loop,
    arcs_csv,
    disk_svg,
    graph_csv,
    graph_samples,
    graph_svg,
    helix_csv,
    helix_samples,
    helix_svg,
    ideal_geodesic,
    tree3_figure,
)
from treemoduli.projline import INFINITY, ONE, ZERO, ProjPoint, _canon
from treemoduli.tangent import cayley, stereo_param


def pt(x):
    return ProjPoint.from_affine(x)


# -- geodesics ------------------------------------------------------------------


def test_antipodal_geodesic_is_diameter():
    a = ideal_geodesic(0.0, 0.5)
    assert a.kind == "diameter"
    assert a.endpoints()[0] == pytest.approx((1.0, 0.0))
    assert a.endpoints()[1] == pytest.approx((-1.0, 0.0))
    assert a.apex() == (0.0, 0.0)


def test_quarter_geodesic():
    a = ideal_geodesic(0.0, 0.25)
    assert a.kind == "circular"
    assert a.center == pytest.approx((1.0, 1.0))
    assert a.radius == pytest.approx(1.0)


def test_orthogonality_invariant():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 100:
        t1, t2 = rng.random(2)
        d = circle_distance(t1, t2)
        if d < 1e-3 or abs(d - 0.5) < 1e-3:
            continue
        a = ideal_geodesic(t1, t2)
        cx, cy = a.center
        residual = abs(cx * cx + cy * cy - (1.0 + a.radius**2))
        assert residual < 1e-9
        # both endpoints lie on the arc circle
        for ex, ey in a.endpoints():
            assert math.hypot(ex - cx, ey - cy) == pytest.approx(a.radius, abs=1e-9)
        checked += 1


def test_coincident_ideal_points():
    with pytest.raises(CoincidentIdealPoints):
        ideal_geodesic(0.3, 0.3)


# -- tree figures ------------------------------------------------------------------


def test_tree3_gamma_annotations():
    fig = tree3_figure(ZERO, pt(0.5), ONE, INFINITY)
    assert fig.gamma.affine == 0.0
    assert not fig.boundary
    assert len(fig.arcs) == 2
    assert fig.internal_edge is not None

    fig = tree3_figure(ZERO, pt(0.7310585786300049), ONE, INFINITY)
    assert fig.gamma.affine == pytest.approx(1.0, rel=1e-9)

    fig = tree3_figure(ZERO, ZERO, ONE, INFINITY)
    assert fig.gamma.is_infinite
    assert fig.boundary


def test_tree3_annotation_matches_devadoss():
    rng = np.random.default_rng(1)
    for _ in range(50):
        xs = rng.uniform(-3, 3, size=4)
        if min(abs(xs[i] - xs[j]) for i in range(4) for j in range(i + 1, 4)) < 1e-2:
            continue
        pts = [pt(x) for x in xs]
        fig = tree3_figure(*pts)
        gamma = devadoss_length(*pts)
        assert fig.gamma.isclose(gamma, 0.0) or (fig.gamma.a, fig.gamma.b) == (
            gamma.a,
            gamma.b,
        )


# -- helix and graph samples ---------------------------------------------------------


def test_helix_endpoints_close_up():
    samples = helix_samples(101)
    (a0, b0), (a1, b1) = samples[0], samples[-1]
    assert circle_distance(a0, a1) < 1e-9
    assert circle_distance(b0, b1) < 1e-9


def test_helix_windings():
    samples = helix_samples(4001)

    def winding(ts):
        total = 0.0
        for i in range(len(ts) - 1):
            d = (ts[i + 1] - ts[i] + 0.5) % 1.0 - 0.5
            assert abs(d) < 0.25
            total += d
        return round(total)

    assert abs(winding([s for s, _ in samples])) == 1
    assert winding([t for _, t in samples]) == 3


def test_helix_minimal_samples():
    samples = helix_samples(2)
    assert len(samples) == 2
    with pytest.raises(ValueError):
        helix_samples(1)
    # k must be an integer: 2.5 is not read as 2
    for sample in (helix_samples, graph_samples):
        with pytest.raises(ValueError):
            sample(2.5)
        assert sample(np.int64(3)) == sample(3.0) == sample(3)


def test_loop_takes_at_most_2_20_samples():
    # the generator checks k before its first sample, so 2**20 costs one sample here
    assert next(_loop(2**20))[0] == -0.5
    for emit in (helix_samples, graph_samples):
        with pytest.raises(ValueError, match=r"^k = 1048577 is above the limit of 2\*\*20 = 1048576 samples$"):
            emit(2**20 + 1)


def test_graph_samples_have_pole_rows():
    samples = graph_samples(11)
    assert math.isinf(samples[0][1])
    assert math.isinf(samples[-1][1])
    mid = samples[5]
    assert mid[0] == pytest.approx(0.0)
    assert abs(mid[1]) < 1e-12


# -- text emitters ----------------------------------------------------------------------


def test_csv_headers():
    assert helix_csv(helix_samples(4)).splitlines()[0] == "point_angle,cover_angle"
    assert graph_csv(graph_samples(4)).splitlines()[0] == "loop_param,x,cover_value"
    arcs = [ideal_geodesic(0.0, 0.25), ideal_geodesic(0.1, 0.6)]
    lines = arcs_csv(arcs).splitlines()
    assert lines[0] == "kind,t1,t2,center_x,center_y,radius"
    assert len(lines) == 3
    assert graph_csv(graph_samples(5)).splitlines()[1].split(",")[1] == "inf"


def test_svg_documents_parse():
    fig = tree3_figure(ZERO, pt(0.5), ONE, INFINITY)
    for doc in (
        disk_svg(fig),
        helix_svg(helix_samples(64)),
        graph_svg(graph_samples(64)),
    ):
        assert doc.startswith("<?xml")
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 1000 1000"
    assert "internal edge length = 0" in disk_svg(fig)


def test_svg_arc_geometry_is_annotated():
    fig = tree3_figure(ZERO, pt(0.5), ONE, INFINITY)
    for arc in fig.arcs:
        if arc.kind == "circular":
            cx, cy = arc.center
            assert cx * cx + cy * cy == pytest.approx(1.0 + arc.radius**2, abs=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 1500))
@example(16384)  # the k of the exact benchmark
def test_loop_samples_match_per_sample_cover(k):
    # reference: one ProjPoint and one circle_cover call per sample; hex
    # compares every bit, zero signs included, and the pole rows read inf
    grid = [-0.5 + j / (k - 1) for j in range(k)]
    xs = [stereo_param(s - 0.25) for s in grid]
    cover = [circle_cover(x).t.hex() for x in xs]
    z = [cayley(x) for x in xs]
    angle = [CirclePoint(math.atan2(w.imag, w.real) / (2.0 * math.pi)).t.hex() for w in z]
    helix = helix_samples(k)
    assert [p.hex() for p, _ in helix] == angle
    assert [t.hex() for _, t in helix] == cover
    graph = graph_samples(k)
    assert [s for s, _, _ in graph] == grid
    assert [x.hex() for _, x, _ in graph] == [x.affine.hex() for x in xs]
    assert [t.hex() for _, _, t in graph] == cover
    # the loop's pair is stereo_param's up to its power-of-two scale
    assert [_canon(a, b) for _, a, b, _ in _loop(k)] == [(x.a, x.b) for x in xs]
