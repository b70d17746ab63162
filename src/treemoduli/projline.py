"""Homogeneous-coordinate arithmetic on the real projective line.

Points are nonzero real pairs [a : b] up to scale, with b = 0 for the
point at infinity.  Every operation acts on the pairs directly, so poles
and infinity never pass through a division, and values exponentially
close to 0, 1 or infinity keep their full relative precision.
"""

from __future__ import annotations

import math

__all__ = [
    "POINT_TOL",
    "ProjPoint",
    "MobiusMap",
    "S3Element",
    "ZERO",
    "ONE",
    "INFINITY",
    "IDENTITY",
    "SWAP_01",
    "SWAP_1INF",
    "SWAP_0INF",
    "CYCLE",
    "CYCLE2",
    "S3_ELEMENTS",
    "chordal",
    "cross_ratio",
    "normalize_quadruple",
    "frame_map",
    "DegenerateMatrix",
    "IndeterminateCrossRatio",
    "DegenerateAnchor",
]

# Chordal tolerance below which two points count as equal.
POINT_TOL = 1e-12


class DegenerateMatrix(ValueError):
    """2x2 matrix with zero or non-finite determinant."""


class IndeterminateCrossRatio(ArithmeticError):
    """Cross-ratio of the form 0/0 (three or more coincident points)."""


class DegenerateAnchor(ArithmeticError):
    """Coincident anchor points cannot be sent to (0, 1, infinity)."""


def _integer(v, name: str, error: type[Exception] = ValueError) -> int:
    """int(v) when v equals it (ints, numpy integers, 3.0); else error, also for NaN, inf, None and strings."""
    try:
        if int(v) == v:
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} = {v!r} is not an integer")


class _Value:
    """Immutable value whose fields are its __slots__, in order.

    Setting or deleting an attribute raises AttributeError.  Equality and
    hash go by class and field tuple and the repr is dataclass-style;
    copy, deepcopy and pickle rebuild the object by calling its class
    with the fields, so a subclass's __init__ takes them in slot order.
    The default __init__ stores them as given.
    """

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes fields {self.__slots__}, got {len(fields)} values")
        for name, v in zip(self.__slots__, fields):
            object.__setattr__(self, name, v)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


def _canon(a: float, b: float) -> tuple[float, float]:
    """The pair ProjPoint stores for a finite nonzero [a : b] (see its docstring); never -0.0."""
    shift = 1 - math.frexp(a if abs(a) > abs(b) else b)[1]
    a = math.ldexp(a, shift)
    b = math.ldexp(b, shift)
    if b < 0.0 or (b == 0.0 and a < 0.0):
        return 0.0 - a, 0.0 - b
    return a + 0.0, b + 0.0


class ProjPoint(_Value):
    """A point of the real projective line, stored as a pair [a : b].

    The stored pair is rescaled by an exact power of two so that
    max(|a|, |b|) lies in [1, 2), and the overall sign is fixed so that
    the first nonzero entry of (b, a) is positive.  Power-of-two scaling
    is lossless, so a pair such as [exp(g) : 1 + exp(g)] keeps the tiny
    gap between its entries exactly; the max = 1 canonical form, used
    for equality testing, is available through :meth:`canonical`.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("homogeneous pair must be finite")
        if a == 0.0 and b == 0.0:
            raise ValueError("[0 : 0] is not a projective point")
        a, b = _canon(a, b)
        _set_a(self, a)
        _set_b(self, b)

    @classmethod
    def from_affine(cls, x: float) -> "ProjPoint":
        x = float(x)
        if math.isinf(x):
            return cls(1.0, 0.0)
        return cls(x, 1.0)

    @property
    def is_infinite(self) -> bool:
        return self.b == 0.0

    @property
    def affine(self) -> float:
        """Affine value a/b; +inf for the point at infinity."""
        if self.b == 0.0:
            return math.inf
        return self.a / self.b

    def canonical(self) -> tuple[float, float]:
        """The pair rescaled so that max(|a|, |b|) is exactly 1."""
        m = max(abs(self.a), abs(self.b))
        return (self.a / m, self.b / m)

    def isclose(self, other: "ProjPoint", tol: float = POINT_TOL) -> bool:
        return chordal(self, other) <= tol

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.isclose(other)

    def __neg__(self) -> "ProjPoint":
        return ProjPoint(-self.a, self.b)

    def __repr__(self) -> str:
        if self.is_infinite:
            return "ProjPoint(inf)"
        x = self.affine
        if math.isinf(x):
            return f"ProjPoint([{self.a!r} : {self.b!r}])"
        return f"ProjPoint({x!r})"

    def to_json(self):
        """Number for finite points, "inf" for infinity.

        Falls back to the two-element homogeneous form when the affine
        value overflows a double.
        """
        if self.is_infinite:
            return "inf"
        x = self.affine
        if math.isinf(x):
            return [self.a, self.b]
        return x

    @classmethod
    def from_json(cls, obj) -> "ProjPoint":
        """Point from a finite number, the string "inf" or a pair [a, b] of finite numbers.

        Booleans, other strings and out-of-range numbers (1e400, Infinity) raise ValueError.
        """
        if obj == "inf":
            return INFINITY
        if isinstance(obj, (list, tuple)):
            if len(obj) != 2:
                raise ValueError(f"homogeneous form needs two entries, got {obj!r}")
            return cls(_finite_number(obj[0]), _finite_number(obj[1]))
        return cls.from_affine(_finite_number(obj))


# The slots' own setters: cheaper than object.__setattr__ in the hottest constructor.
_set_a, _set_b = ProjPoint.a.__set__, ProjPoint.b.__set__


def _finite_number(v) -> float:
    """A JSON number as a finite float; ValueError for any other value."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"point value {v!r} is not a number")
    try:
        x = float(v)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f'point value {x!r} is not a finite number; infinity is written "inf"')
    return x


def _det(a0, b0, a1, b1):
    """The determinant a0 b1 - a1 b0 of the pairs [a0 : b0] and [a1 : b1].

    Plain arithmetic, so the arguments may be floats or numpy arrays.
    """
    return a0 * b1 - a1 * b0


def _cross(a0, b0, a1, b1, a2, b2, a3, b3):
    """Cross-ratio of four pairs as (num, den) = (x_01 x_23, x_02 x_13)."""
    return (
        _det(a0, b0, a1, b1) * _det(a2, b2, a3, b3),
        _det(a0, b0, a2, b2) * _det(a1, b1, a3, b3),
    )


def _cross_checked(a0, b0, a1, b1, a2, b2, a3, b3):
    """_cross of four float pairs; IndeterminateCrossRatio when it is 0/0."""
    num, den = _cross(a0, b0, a1, b1, a2, b2, a3, b3)
    if num == 0.0 and den == 0.0:
        raise IndeterminateCrossRatio("cross-ratio is 0/0 on this quadruple")
    return num, den


ZERO = ProjPoint(0.0, 1.0)
ONE = ProjPoint(1.0, 1.0)
INFINITY = ProjPoint(1.0, 0.0)


def chordal(p: ProjPoint, q: ProjPoint) -> float:
    """Chordal distance |a_p b_q - a_q b_p| / (|p| |q|).

    Scale-free and finite at infinity, so it is usable as the global
    point-equality metric.
    """
    num = abs(_det(p.a, p.b, q.a, q.b))
    return num / (math.hypot(p.a, p.b) * math.hypot(q.a, q.b))


class MobiusMap(_Value):
    """Real 2x2 matrix with finite nonzero determinant, acting by x -> (ax+b)/(cx+d).

    Scalar multiples act identically on the projective line.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        a, b, c, d = float(a), float(b), float(c), float(d)
        for e in (a, b, c, d):
            if not math.isfinite(e):
                raise DegenerateMatrix("matrix entries must be finite")
        if not math.isfinite(det := _det(a, c, b, d)) or det == 0.0:
            raise DegenerateMatrix(f"matrix determinant {det!r} is zero or not finite")
        super().__init__(a, b, c, d)

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def det(self) -> float:
        return _det(self.a, self.c, self.b, self.d)

    def __call__(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.a * p.a + self.b * p.b, self.c * p.a + self.d * p.b)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """Matrix product: self applied after other."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def scale(self, s: float) -> "MobiusMap":
        return MobiusMap(self.a * s, self.b * s, self.c * s, self.d * s)

    def __repr__(self) -> str:
        return f"MobiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


class S3Element(_Value):
    """One of the six fractional linear symmetries of {0, 1, infinity}.

    The group is generated by the involutions x -> 1 - x (swapping 0, 1)
    and x -> x/(x-1) (swapping 1, infinity); together they satisfy the
    braid relation, with x -> 1/x as the common triple product.
    """

    __slots__ = ("name", "matrix", "perm")

    def __reduce__(self):
        # the six elements are singletons: a copy or an unpickled element is the same one
        return S3Element.from_word, ((self.name,),)

    def __call__(self, p: ProjPoint) -> ProjPoint:
        return self.matrix(p)

    def compose(self, other: "S3Element") -> "S3Element":
        """Group product: self applied after other."""
        perm = tuple(self.perm[other.perm[i]] for i in range(3))
        return _S3_BY_PERM[perm]

    __matmul__ = compose

    def inverse(self) -> "S3Element":
        inv = [0, 0, 0]
        for i, j in enumerate(self.perm):
            inv[j] = i
        return _S3_BY_PERM[tuple(inv)]

    @staticmethod
    def from_word(word) -> "S3Element":
        """Reduce a word in the generators to its canonical element."""
        g = IDENTITY
        for w in word:
            if isinstance(w, str):
                w = S3_ELEMENTS[w]
            g = g.compose(w)
        return g

    def __repr__(self) -> str:
        return f"S3Element({self.name})"


# perm lists the images of (0, 1, infinity) as indices into that triple.
IDENTITY = S3Element("identity", MobiusMap.identity(), (0, 1, 2))
SWAP_01 = S3Element("swap01", MobiusMap(-1.0, 1.0, 0.0, 1.0), (1, 0, 2))
SWAP_1INF = S3Element("swap1inf", MobiusMap(1.0, 0.0, 1.0, -1.0), (0, 2, 1))
SWAP_0INF = S3Element("swap0inf", MobiusMap(0.0, 1.0, 1.0, 0.0), (2, 1, 0))
CYCLE = S3Element("cycle", MobiusMap(0.0, 1.0, -1.0, 1.0), (1, 2, 0))
CYCLE2 = S3Element("cycle2", MobiusMap(1.0, -1.0, 1.0, 0.0), (2, 0, 1))

S3_ELEMENTS = {
    g.name: g for g in (IDENTITY, SWAP_01, SWAP_1INF, SWAP_0INF, CYCLE, CYCLE2)
}
_S3_BY_PERM = {g.perm: g for g in S3_ELEMENTS.values()}


def cross_ratio(p0: ProjPoint, p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> ProjPoint:
    """Cross-ratio of four points, computed homogeneously.

    With x_ij = a_i b_j - a_j b_i the value is [x_01 x_23 : x_02 x_13],
    which agrees with (x0-x1)/(x0-x2) * (x2-x3)/(x1-x3) on finite
    quadruples and is exact at infinity.  A single coincident pair gives
    one of 0, 1, infinity exactly.

    Raises IndeterminateCrossRatio when numerator and denominator both
    vanish (three or more coincident points).
    """
    return ProjPoint(*_cross_checked(p0.a, p0.b, p1.a, p1.b, p2.a, p2.b, p3.a, p3.b))


def frame_map(q0: ProjPoint, q1: ProjPoint, qinf: ProjPoint) -> MobiusMap:
    """The Mobius map sending (q0, q1, qinf) to (0, 1, infinity).

    Built from the cross-ratio: the image of x is [q0 : x : q1 : qinf],
    so applying the result to any fourth point reproduces cross_ratio
    with the same arithmetic.
    """
    if (
        chordal(q0, q1) <= POINT_TOL
        or chordal(q0, qinf) <= POINT_TOL
        or chordal(q1, qinf) <= POINT_TOL
    ):
        raise DegenerateAnchor("anchor points must be pairwise distinct")
    k1i = _det(q1.a, q1.b, qinf.a, qinf.b)
    k01 = _det(q0.a, q0.b, q1.a, q1.b)
    return MobiusMap(-k1i * q0.b, k1i * q0.a, k01 * qinf.b, -k01 * qinf.a)


def normalize_quadruple(
    p0: ProjPoint, p1: ProjPoint, p2: ProjPoint, p3: ProjPoint
) -> MobiusMap:
    """Normalizing map of a quadruple: sends (p0, p2, p3) to (0, 1, infinity).

    Applying the result to p1 equals cross_ratio(p0, p1, p2, p3); for a
    quadruple in increasing cyclic order the image of p1 lies in (0, 1).
    """
    del p1  # identified by the quadruple but not used to build the map
    return frame_map(p0, p2, p3)
