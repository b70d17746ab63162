"""Figure data for disk trees, the cover graph, and the torus helix.

Geodesics of the Poincare disk between ideal boundary points are either
diameters or arcs of circles meeting the unit circle orthogonally.  The
three-leaf tree figure places its internal vertices schematically at the
arc apexes; only the annotated internal-edge length is a computed
quantity.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .cover import CirclePoint, circle_cover, circle_distance, devadoss_length
from .projline import ProjPoint
from .tangent import cayley, stereo_param

__all__ = [
    "ArcDescriptor",
    "ideal_geodesic",
    "Tree3Figure",
    "tree3_figure",
    "helix_samples",
    "graph_samples",
    "arcs_csv",
    "helix_csv",
    "graph_csv",
    "disk_svg",
    "helix_svg",
    "graph_svg",
    "CoincidentIdealPoints",
]

SVG_SIZE = 1000
SVG_RADIUS = 480


class CoincidentIdealPoints(ArithmeticError):
    """No geodesic between coincident ideal points."""


@dataclass(frozen=True)
class ArcDescriptor:
    """Disk geodesic between two ideal points, given by angles in R/Z.

    A diameter when the points are antipodal, otherwise the arc of the
    circle through both that meets the unit circle orthogonally
    (|center|^2 = 1 + radius^2).
    """

    kind: str  # "diameter" | "circular"
    t1: float
    t2: float
    center: tuple[float, float] | None = None
    radius: float | None = None

    def endpoints(self) -> tuple[tuple[float, float], tuple[float, float]]:
        e = lambda t: (math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
        return e(self.t1), e(self.t2)

    def apex(self) -> tuple[float, float]:
        """Point of the geodesic nearest the origin (its visual midpoint)."""
        if self.kind == "diameter":
            return (0.0, 0.0)
        cx, cy = self.center
        norm = math.hypot(cx, cy)
        f = 1.0 - self.radius / norm
        return (cx * f, cy * f)


def ideal_geodesic(t1: float, t2: float) -> ArcDescriptor:
    """Disk geodesic between the ideal points at angles t1, t2.

    Raises CoincidentIdealPoints when the angles agree modulo 1.
    """
    t1 = float(t1) % 1.0
    t2 = float(t2) % 1.0
    d = circle_distance(t1, t2)
    if d <= 1e-12:
        raise CoincidentIdealPoints(f"angles {t1} and {t2} coincide")
    if abs(d - 0.5) <= 1e-9:
        return ArcDescriptor("diameter", t1, t2)
    z1 = (math.cos(2 * math.pi * t1), math.sin(2 * math.pi * t1))
    z2 = (math.cos(2 * math.pi * t2), math.sin(2 * math.pi * t2))
    # Orthogonality forces <c, z1> = <c, z2> = 1.
    det = z1[0] * z2[1] - z1[1] * z2[0]
    cx = (z2[1] - z1[1]) / det
    cy = (z1[0] - z2[0]) / det
    r = math.sqrt(cx * cx + cy * cy - 1.0)
    return ArcDescriptor("circular", t1, t2, (cx, cy), r)


def _angle(z: complex) -> float:
    return (math.atan2(z.imag, z.real) / (2.0 * math.pi)) % 1.0


@dataclass(frozen=True)
class Tree3Figure:
    """Disk data for the rooted tree on four boundary points.

    The two pair arcs are split at their apexes into four leaf stubs;
    the schematic internal edge joins the apexes.  gamma is the signed
    internal-edge length, infinite on boundary (collision) quadruples.
    """

    angles: tuple[float, float, float, float]
    arcs: tuple[ArcDescriptor, ...]
    internal_edge: tuple[tuple[float, float], tuple[float, float]] | None
    gamma: ProjPoint
    boundary: bool


def tree3_figure(
    p0: ProjPoint, p1: ProjPoint, p2: ProjPoint, p3: ProjPoint
) -> Tree3Figure:
    """Figure data for the tree with root p0 and leaves p1, p2, p3."""
    gamma = devadoss_length(p0, p1, p2, p3)
    angles = tuple(_angle(cayley(p)) for p in (p0, p1, p2, p3))
    arcs = []
    for a, b in ((angles[0], angles[1]), (angles[2], angles[3])):
        try:
            arcs.append(ideal_geodesic(a, b))
        except CoincidentIdealPoints:
            pass
    edge = None
    if len(arcs) == 2:
        edge = (arcs[0].apex(), arcs[1].apex())
    return Tree3Figure(
        angles=angles,
        arcs=tuple(arcs),
        internal_edge=edge,
        gamma=gamma,
        boundary=gamma.is_infinite or len(arcs) < 2,
    )


def _loop(k: int) -> Iterator[tuple[float, ProjPoint]]:
    """k pairs (s, x) with x = tan(pi s) on the uniform grid over one loop, s in [-1/2, 1/2]."""
    k = int(k)
    if k < 2:
        raise ValueError("need at least two samples")
    for j in range(k):
        s = -0.5 + j / (k - 1)
        yield s, stereo_param(s - 0.25)


def helix_samples(k: int) -> list[tuple[CirclePoint, CirclePoint]]:
    """k samples of (circle angle of x, cover value of x) along one loop.

    The first coordinate winds once around the circle, the second three
    times; the endpoints of the list agree modulo 1 in both coordinates.
    """
    return [(CirclePoint(_angle(cayley(x))), circle_cover(x)) for _s, x in _loop(k)]


def graph_samples(k: int) -> list[tuple[float, ProjPoint, CirclePoint]]:
    """k samples (s, x, cover value) with x = tan(pi s) over one loop."""
    return [(s, x, circle_cover(x)) for s, x in _loop(k)]


# -- text emitters ---------------------------------------------------------


def _g9(x: float) -> str:
    return format(float(x), ".9g")


def arcs_csv(arcs) -> str:
    lines = ["kind,t1,t2,center_x,center_y,radius"]
    for a in arcs:
        if a.kind == "diameter":
            lines.append(f"diameter,{_g9(a.t1)},{_g9(a.t2)},,,")
        else:
            lines.append(
                f"circular,{_g9(a.t1)},{_g9(a.t2)},"
                f"{_g9(a.center[0])},{_g9(a.center[1])},{_g9(a.radius)}"
            )
    return "\n".join(lines) + "\n"


def helix_csv(samples) -> str:
    lines = ["point_angle,cover_angle"]
    for s, t in samples:
        lines.append(f"{_g9(s.t)},{_g9(t.t)}")
    return "\n".join(lines) + "\n"


def graph_csv(samples) -> str:
    lines = ["loop_param,x,cover_value"]
    for s, x, t in samples:
        xs = "inf" if x.is_infinite else _g9(x.affine)
        lines.append(f"{_g9(s)},{xs},{_g9(t.t)}")
    return "\n".join(lines) + "\n"


def _to_px(p: tuple[float, float]) -> tuple[float, float]:
    return (
        SVG_SIZE / 2 + SVG_RADIUS * p[0],
        SVG_SIZE / 2 - SVG_RADIUS * p[1],
    )


def _svg(body: str) -> str:
    """SVG 1.1 document of SVG_SIZE square holding the given elements."""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f"{body}</svg>\n"
    )


def _arc_path(a: ArcDescriptor) -> str:
    (x1, y1), (x2, y2) = (_to_px(p) for p in a.endpoints())
    if a.kind == "diameter":
        return (
            f'<line x1="{_g9(x1)}" y1="{_g9(y1)}" x2="{_g9(x2)}" y2="{_g9(y2)}" '
            'stroke="black" fill="none"/>'
        )
    r = a.radius * SVG_RADIUS
    # Geodesic arcs subtend less than pi, and the y flip reverses sweep.
    z1, z2 = a.endpoints()
    cross = (z1[0] - a.center[0]) * (z2[1] - a.center[1]) - (
        z1[1] - a.center[1]
    ) * (z2[0] - a.center[0])
    sweep = 0 if cross > 0 else 1
    return (
        f'<path d="M {_g9(x1)} {_g9(y1)} A {_g9(r)} {_g9(r)} 0 0 {sweep} '
        f'{_g9(x2)} {_g9(y2)}" stroke="black" fill="none"/>'
    )


def disk_svg(fig: Tree3Figure) -> str:
    """SVG 1.1 document for a three-leaf tree figure."""
    parts = [
        f'<circle cx="{SVG_SIZE / 2:.9g}" cy="{SVG_SIZE / 2:.9g}" '
        f'r="{SVG_RADIUS}" fill="none" stroke="black"/>\n'
    ]
    for a in fig.arcs:
        parts.append(_arc_path(a) + "\n")
    if fig.internal_edge is not None:
        (x1, y1), (x2, y2) = (_to_px(p) for p in fig.internal_edge)
        parts.append(
            f'<line x1="{_g9(x1)}" y1="{_g9(y1)}" x2="{_g9(x2)}" y2="{_g9(y2)}" '
            'stroke="black" stroke-dasharray="8 6" fill="none"/>\n'
        )
    for i, t in enumerate(fig.angles):
        x, y = _to_px((math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)))
        parts.append(
            f'<circle cx="{_g9(x)}" cy="{_g9(y)}" r="6" '
            f'fill="{"black" if i == 0 else "white"}" stroke="black"/>\n'
        )
    glabel = "inf" if fig.gamma.is_infinite else format(fig.gamma.affine, ".9g")
    flag = " (boundary)" if fig.boundary else ""
    parts.append(
        f'<text x="20" y="40" font-size="28" font-family="monospace">'
        f"internal edge length = {glabel}{flag}</text>\n"
    )
    return _svg("".join(parts))


def _torus_svg(points: list[tuple[float, float]]) -> str:
    """SVG chart of points in the unit square of the torus, polylines split at wraps."""
    pairs = enumerate(itertools.pairwise(points), start=1)
    wraps = [j for j, (p, q) in pairs if abs(q[0] - p[0]) > 0.5 or abs(q[1] - p[1]) > 0.5]
    runs = [points[a:b] for a, b in zip([0, *wraps], [*wraps, len(points)]) if b - a > 1]
    xys = (" ".join(f"{20 + 960 * x:.9g},{980 - 960 * y:.9g}" for x, y in run) for run in runs)
    polylines = (f'<polyline points="{xy}" stroke="black" fill="none"/>' for xy in xys)
    rect = '<rect x="20" y="20" width="960" height="960" fill="none" stroke="black"/>\n'
    return _svg(rect + "\n".join(polylines) + "\n")


def helix_svg(samples) -> str:
    """SVG chart of the helix in the unit square of the torus."""
    return _torus_svg([(s.t, t.t) for s, t in samples])


def graph_svg(samples) -> str:
    """SVG chart of the cover value against the loop parameter."""
    return _torus_svg([((s + 0.5), t.t) for s, _x, t in samples])
