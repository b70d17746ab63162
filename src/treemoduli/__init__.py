"""Numerical toolkit for the real projective line and tree moduli.

Homogeneous arithmetic on the projective line, its piecewise Mobius
three-fold cover of the circle, the tangent-addition group law, and the
averaged pullback metric on moduli of marked points, together with a
rank probe of the conjectured Albanese immersion.
"""

from .cover import (
    CirclePoint,
    Interval,
    circle_cover,
    circle_distance,
    classify,
    cover_derivative,
    cover_integral,
    devadoss_length,
    line_cover,
    logit,
    winding_number,
)
from .moduli import (
    ChartPoint,
    Configuration,
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
from .projline import (
    INFINITY,
    ONE,
    POINT_TOL,
    ZERO,
    MobiusMap,
    ProjPoint,
    S3Element,
    chordal,
    cross_ratio,
    frame_map,
    normalize_quadruple,
)
from .tangent import (
    SU11Matrix,
    cayley,
    cayley_inv,
    stereo_param,
    su11_conjugate,
    torsion_point,
)

__version__ = "0.1.0"
