"""Scalar fields on ambient space and boundary-average functionals.

Fields are expression trees over the ambient coordinates, evaluated
vectorized over sample points.  Data nodes hold constants, coordinates and
indicators of balls, boxes and distance neighbourhoods; BranchCompose
evaluates a subtree through a branch map.  Every other node is an ``Op``,
whose name selects a row of the operator table ``_OPS``: the arity (0 for
min/max, which take two or more), whether the arguments must be real,
whether the result is always real or real when every argument is, and the
function that computes it from the points and the argument nodes.  That
function evaluates the arguments itself, so each operator fixes their
order: division tests its denominator for zeros before it evaluates the
numerator.  Every node says which coordinates it reads (``reads``), so the
search moves no coefficient a field cannot see and a field that reads a
coordinate the points lack is refused before it is evaluated.  Every node
also gives a float range (lo, hi) that holds all its values
(``value_range``), so the search can stop at a disc whose mean reaches the
field's lower bound, and a per-point slack (``slack``): how far a point may
move, in the euclidean norm of C^N, before the node's computed value can
change, or, asked for a way, before it can fall (way -1) or rise (+1).  A
constant never changes and an indicator only where a point crosses its
set's edge, and not at all in the way its value already sits at the end
of its range; an operator of finite range over arguments of finite range
passes the way down through the operators that are monotone in each
argument (``_OpSpec.ways``).  So a field built from constants and
indicators alone (``ScalarField.piecewise_constant``) lets the search skip
a trial that moves no boundary node by its fall slack: no sample of the
trial is below its incumbent's, so neither is the mean.

Values live in R union {-inf}: log 0 is -inf (nonpositive arguments fold
into the same convention), -inf + finite is -inf, min/max propagate it,
and any combination that would produce NaN raises DomainError instead.
exp, abs2 and the arithmetic overflow to +-inf without a warning.
Characteristic functions of balls/boxes use strict inequalities, so they
are indicators of open sets and boundary points take the larger value
once negated.

The Poisson functional of a disc is the plain average of the field over
equispaced boundary nodes (trapezoid rule on a periodic integrand, so
spectrally accurate); arc functionals restrict to a node subset with half
weights at arc endpoints and are normalized by the full circle.
"""

from __future__ import annotations

import operator
import re as _re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .space import BranchMap

__all__ = [
    "FieldNode", "Const", "Coord", "Op", "BallIndicator", "BoxIndicator",
    "DistanceIndicator", "BranchCompose", "ScalarField",
    "pushforward_field", "parse_field", "eval_field", "QuadratureSpec",
    "boundary_means", "poisson_functional", "arc_functional",
    "decreasing_approximation",
]

TWO_PI = 2.0 * np.pi
# The range of a node that bounds nothing.
_ANY = (-np.inf, np.inf)
_U = 2.0**-53
# The range in which _edge_slack is derived: an edge between these, a
# distance at most 2 * _SLACK_MAX.
_SLACK_MIN_EDGE = 2.0**-480
_SLACK_MAX = 2.0**500


class FieldNode:
    is_real = True
    # Zero-based indices of the coordinates the node reads, as a frozenset;
    # None, for node kinds that do not say, means every coordinate.
    reads = None
    # Floats (lo, hi) with lo <= v <= hi for every value v the node takes;
    # (-inf, inf) for node kinds that do not say, and for complex nodes.
    value_range = _ANY
    # Whether the node is a constant or an indicator, or an operator over
    # such nodes: constant off the edges its slack measures the way to.
    piecewise_constant = False

    def ev(self, pts):  # pragma: no cover - abstract
        raise NotImplementedError

    def slack(self, pts, way=0):
        """Per point p of pts, shape (M, N), a float s >= 0 such that ev
        gives, at every point q within s of p (euclidean norm in C^N), the
        same bits as at p (way 0), a value no lower (way -1) or no higher
        (way +1); 0 for node kinds that do not say."""
        return np.zeros(pts.shape[0])


@dataclass(frozen=True)
class Const(FieldNode):
    value: float
    reads = frozenset()
    piecewise_constant = True

    @property
    def value_range(self):
        return (float(self.value), float(self.value))

    def ev(self, pts):
        return np.full(pts.shape[0], float(self.value))

    def slack(self, pts, way=0):
        return np.full(pts.shape[0], np.inf)


@dataclass(frozen=True)
class Coord(FieldNode):
    index: int  # zero-based
    is_real = False

    @property
    def reads(self):
        return frozenset((self.index,))

    def ev(self, pts):
        if self.index >= pts.shape[1]:
            raise DomainError(
                f"coordinate z{self.index + 1} beyond ambient dimension {pts.shape[1]}"
            )
        return pts[:, self.index]


def _log(pts, a):
    v = a.ev(pts)
    out = np.full_like(v, -np.inf)
    np.log(v, out=out, where=v > 0)
    return out


def _exp(pts, a):
    with np.errstate(over="ignore"):
        return np.exp(a.ev(pts))


def _abs2(pts, a):
    v = a.ev(pts)
    # A huge v overflows to inf, and an infinite complex v puts NaN into
    # the imaginary part that is discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        return (v * np.conj(v)).real if np.iscomplexobj(v) else v * v


def _arith(what: str, combine):
    """Binary arithmetic: overflow gives +-inf, NaN raises DomainError."""

    def fn(pts, a, b):
        with np.errstate(invalid="ignore", over="ignore"):
            out = combine(pts, a, b)
            if np.isnan(out).any():
                raise DomainError(f"{what} produced NaN (undefined -inf combination?)")
            return out

    return fn


def _quotient(pts, a, b):
    den = b.ev(pts)
    if np.any(den == 0):
        raise DomainError("division by zero inside field expression")
    return a.ev(pts) / den


def _part(take):
    return lambda pts, a: take(a.ev(pts)).astype(float, copy=False)


def _fold(ufunc):
    return lambda pts, *args: reduce(ufunc, (a.ev(pts) for a in args))


def _corners(combine):
    """Range of a binary operator from its arguments' ranges: the least and
    greatest of its four corner values, or (-inf, inf) when a corner is
    undefined (inf - inf, 0 * inf).

    Sound for +, - and *: over a box the exact operation takes its extremes
    at the corners, and correctly rounded float arithmetic is monotone, so
    it rounds every value inside the box between the rounded corners.
    """

    def span(a, b):
        vals = [combine(x, y) for x in a for y in b]
        return _ANY if any(v != v for v in vals) else (min(vals), max(vals))

    return span


def _nonnegative(*ranges):
    return (0.0, np.inf)


def _unbounded(*ranges):
    return _ANY


def _sign(r) -> int:
    """1 when the range r is >= 0, -1 when it is <= 0, 0 when it spans 0."""
    return 1 if r[0] >= 0 else -1 if r[1] <= 0 else 0


def _rising(*ranges):
    return (1,) * len(ranges)


def _product_ways(a, b):
    # a * b rises with a where b >= 0 and falls with it where b <= 0.
    return (_sign(b), _sign(a))


class _OpSpec(NamedTuple):
    arity: int  # 0 for two or more
    real_args: bool  # every argument must be real-valued
    real: bool  # the result is real; if False, real when every argument is
    fn: Callable  # (pts, *argument nodes) -> values
    span: Callable  # (*argument ranges) -> range (lo, hi) of the values
    # (*argument ranges) -> per argument, 1 if the computed value never
    # falls as that argument's value rises, -1 if it never rises, 0 if
    # neither, or None for all 0.  Op.slack asks that way times its own.
    ways: Callable = None


_OPS = {
    "re": _OpSpec(1, False, True, _part(np.real), _unbounded),
    "im": _OpSpec(1, False, True, _part(np.imag), _unbounded),
    "abs": _OpSpec(1, False, True, lambda pts, a: np.abs(a.ev(pts)),
                   _nonnegative),
    "abs2": _OpSpec(1, False, True, _abs2, _nonnegative),
    "log": _OpSpec(1, True, True, _log, _unbounded),
    "exp": _OpSpec(1, True, True, _exp, _nonnegative),
    "neg": _OpSpec(1, False, False, lambda pts, a: -a.ev(pts),
                   lambda a: (-a[1], -a[0]), lambda a: (-1,)),
    "+": _OpSpec(2, False, False,
                 _arith("addition", lambda pts, a, b: a.ev(pts) + b.ev(pts)),
                 _corners(operator.add), _rising),
    "-": _OpSpec(2, False, False,
                 _arith("subtraction", lambda pts, a, b: a.ev(pts) - b.ev(pts)),
                 _corners(operator.sub), lambda a, b: (1, -1)),
    "*": _OpSpec(2, False, False,
                 _arith("multiplication", lambda pts, a, b: a.ev(pts) * b.ev(pts)),
                 _corners(operator.mul), _product_ways),
    "/": _OpSpec(2, False, False, _arith("division", _quotient), _unbounded),
    "min": _OpSpec(0, True, True, _fold(np.minimum),
                   lambda *r: (min(lo for lo, _ in r), min(hi for _, hi in r)),
                   _rising),
    "max": _OpSpec(0, True, True, _fold(np.maximum),
                   lambda *r: (max(lo for lo, _ in r), max(hi for _, hi in r)),
                   _rising),
}


@dataclass(frozen=True)
class Op(FieldNode):
    """Operator ``name`` of the _OPS table applied to the argument nodes."""

    name: str
    args: tuple

    def __post_init__(self):
        spec = _OPS.get(self.name)
        if spec is None:
            raise ValueError(f"unknown operator {self.name!r}")
        if spec.arity == 0 and len(self.args) < 2:
            raise ValueError(f"{self.name} needs at least two arguments")
        if spec.arity and len(self.args) != spec.arity:
            raise ValueError(
                f"{self.name} takes {spec.arity} argument(s), got {len(self.args)}"
            )
        if spec.real_args and not all(a.is_real for a in self.args):
            raise ValueError(f"{self.name} requires real-valued arguments")

    @property
    def is_real(self):
        return _OPS[self.name].real or all(a.is_real for a in self.args)

    @property
    def reads(self):
        sets = [a.reads for a in self.args]
        return None if None in sets else frozenset().union(*sets)

    @property
    def value_range(self):
        return _OPS[self.name].span(*(a.value_range for a in self.args))

    @property
    def piecewise_constant(self):
        return all(a.piecewise_constant for a in self.args)

    def ev(self, pts):
        return _OPS[self.name].fn(pts, *self.args)

    @cached_property
    def _ways(self) -> tuple:
        """Per argument, the factor Op.slack gives the way it asks it for:
        the spec's ``ways`` where this node's range and every argument's
        are finite, 0 otherwise.

        Within finite ranges every value is finite, so +, -, * and the
        folds never meet NaN or raise; rounding to nearest is monotone,
        so fl(a + b), fl(a - b), fl(a * b) (b of one sign), min, max and
        neg move with their arguments as the exact operations do.
        """
        spec = _OPS[self.name]
        ranges = [a.value_range for a in self.args]
        finite = all(np.isfinite(r).all() for r in ranges + [self.value_range])
        if spec.ways is None or not finite:
            return (0,) * len(self.args)
        return spec.ways(*ranges)

    def slack(self, pts, way=0):
        # The operator's value is a function of its arguments' values alone,
        # monotone in each along _ways.
        return reduce(np.minimum, (a.slack(pts, way * w)
                                   for a, w in zip(self.args, self._ways)))


def _check_width(pts, width: int, what: str):
    """Raise DomainError when the points have fewer than width coordinates."""
    if width > pts.shape[1]:
        raise DomainError(
            f"{what} in {width} coordinates beyond ambient dimension {pts.shape[1]}"
        )


def _edge_slack(dist, edge: float, N: int, extra: float = 0.0):
    """How far each point may move before a strict test "its distance is
    below edge" can change: |dist - edge| - 4 eps (dist + edge + extra),
    eps = (N + 12) u, u = 2^-53, and 0 where that is not positive.

    dist holds the computed values, at points p of C^N, of a distance D
    that is 1-Lipschitz in the point.  The caller derives, for every point
    q with D(q) <= 2^502 and edge and extra in the range below, that its
    computed D(q) is within eps (D(q) + edge + extra) of D(q), and that its
    test says "inside" where D(q) + eps (D(q) + edge + extra) < edge and
    "outside" where D(q) - eps (D(q) + edge + extra) >= edge.  A point q
    with |q - p| <= s has |D(q) - D(p)| <= s.  Write T = dist + edge +
    extra.  If dist < edge, then D(q) <= edge - 3 eps T to first order,
    and the inside condition, whose left side grows with D(q), holds with
    eps T to spare; if dist >= edge, then D(q) >= edge + 3 eps T and the
    outside condition holds with as much to spare.  That spare covers
    second-order terms and the rounding of s.  A point so near the edge
    that rounding may decide it gets 0.  The range: edge in [2^-480,
    2^500], extra in [0, 2^500] and dist at most 2^501, so that s <= 2^501
    and D(q) <= 2^502.  Elsewhere, and where dist is NaN, the slack is 0.
    """
    if not (_SLACK_MIN_EDGE <= edge <= _SLACK_MAX and 0 <= extra <= _SLACK_MAX):
        return np.zeros(np.shape(dist))
    with np.errstate(invalid="ignore"):
        s = np.abs(dist - edge) - 4 * (N + 12) * _U * (dist + edge + extra)
        ok = (dist <= 2 * _SLACK_MAX) & (s > 0)
    return np.where(ok, s, 0.0)


def _at_the_end(s, inside, way: int):
    """The slack s of an indicator, raised to +inf where it is asked for a
    way its value cannot go: where it is 0 (not inside) for way -1, where
    it is 1 (inside) for way +1.  inside must be ev's own test."""
    if not way:
        return s
    return np.where(inside == (way > 0), np.inf, s)


@dataclass(frozen=True)
class BallIndicator(FieldNode):
    """Characteristic function of the open ball |p - center| < radius."""

    center: tuple  # complex per coordinate
    radius: float
    value_range = (0.0, 1.0)
    piecewise_constant = True

    @property
    def reads(self):
        return frozenset(range(len(self.center)))

    def _d2(self, pts):
        _check_width(pts, len(self.center), "ball")
        c = np.asarray(self.center, dtype=complex)
        # A huge distance squares to inf, which is outside the ball.  The
        # squares are added one coordinate at a time, in order.
        with np.errstate(over="ignore"):
            d2 = np.abs(pts[:, 0] - c[0]) ** 2
            for j in range(1, c.size):
                d2 += np.abs(pts[:, j] - c[j]) ** 2
        return d2

    def ev(self, pts):
        return (self._d2(pts) < self.radius * self.radius).astype(float)

    def slack(self, pts, way=0):
        """_edge_slack of d = fl(sqrt(d2)) against r = |radius|, or +inf
        where ev's test d2 < fl(r r) puts the value at the end of its range
        in the way asked (outside for -1, inside for +1): an indicator
        never falls below 0 nor rises above 1.

        Notation: u = 2^-53, N = len(center), D = |p - c| exactly, and
        eps = (N + 12) u as in _edge_slack, whose conditions this derives.
        ev computes d2 = D^2 (1 + theta) with |theta| <= gamma_{N+7}: each
        term carries 7 relative errors of u (the complex difference, hypot
        within an ulp, the square), the sum N - 1 more and underflow one.
        It says "inside" iff d2 < fl(r r) = r^2 (1 + u), so surely inside
        where D < r (1 - (N + 8) u / 2) and surely outside where
        D >= r (1 + (N + 8) u / 2), to first order: both implied by the
        conditions, with eps (D + r) >= (N + 12) u r.  And d = D (1 + eta)
        with |eta| <= (N + 9) u / 2 < eps.  In the range, with r >= 2^-480,
        underflow's absolute error in d, below sqrt(N + 1) 2^-537, is far
        below eps r, and with D(q) <= 2^502 nothing the test computes at q
        overflows.  At a point with a non-finite coordinate d is inf or
        NaN, so the slack is 0.
        """
        d2 = self._d2(pts)
        s = _edge_slack(np.sqrt(d2), abs(float(self.radius)), len(self.center))
        return _at_the_end(s, d2 < self.radius * self.radius, way)


@dataclass(frozen=True)
class BoxIndicator(FieldNode):
    """Open box: per coordinate (re_lo, re_hi, im_lo, im_hi), strict."""

    bounds: tuple  # of 4-tuples
    value_range = (0.0, 1.0)
    piecewise_constant = True

    @property
    def reads(self):
        return frozenset(range(len(self.bounds)))

    def ev(self, pts):
        _check_width(pts, len(self.bounds), "box")
        inside = np.ones(pts.shape[0], dtype=bool)
        for i, (rlo, rhi, ilo, ihi) in enumerate(self.bounds):
            z = pts[:, i]
            inside &= (z.real > rlo) & (z.real < rhi)
            inside &= (z.imag > ilo) & (z.imag < ihi)
        return inside.astype(float)

    def slack(self, pts, way=0):
        """|min_k g_k| (1 - 4u) - 2^-1022, and 0 where that is below 0; or
        +inf where the value is at the end of its range in the way asked,
        as for the ball.

        g_k are the 4N gaps x - re_lo, re_hi - x, y - im_lo, im_hi - y of
        the strict tests ev makes, computed in floats; fl(a - b) has the
        sign of a - b exactly, so ev says "inside" iff every g_k > 0.  A
        move by s shifts every gap by at most s.  Inside, the least gap
        stays positive for s below it; outside, a test with g_k <= 0 keeps
        failing for s up to |g_k|, and the least g_k is the largest such.
        fl(g) is within u |g| of g when normal and exact when subnormal, so
        the factor (1 - 4u) and the 2^-1022 put s strictly below |g|.  The
        two-sided slack is 0 at points with a non-finite coordinate.  The
        least gap is > 0 exactly where ev says "inside": a NaN gap, which
        np.minimum passes on, is where one of ev's tests fails.
        """
        _check_width(pts, len(self.bounds), "box")
        gap = np.full(pts.shape[0], np.inf)
        with np.errstate(invalid="ignore"):
            for i, (rlo, rhi, ilo, ihi) in enumerate(self.bounds):
                z = pts[:, i]
                for g in (z.real - rlo, rhi - z.real, z.imag - ilo, ihi - z.imag):
                    gap = np.minimum(gap, g)
            s = np.abs(gap) * (1 - 4 * _U) - 2.0**-1022
            ok = np.isfinite(pts).all(axis=1) & (s > 0)
        return _at_the_end(np.where(ok, s, 0.0), gap > 0, way)


@dataclass(frozen=True)
class DistanceIndicator(FieldNode):
    """Open neighborhood {dist(p, S) < radius} of a set S.

    region.within(pts, radius) answers dist(pts, S) < radius as a bool
    array of shape (M,) for points of shape (M, N), and
    region.clearance(pts, radius, way) bounds per point how far it may
    move before that answer can change (way 0), or can turn to "inside"
    (way +1) or to "outside" (way -1); ``CompactSet`` is such a region,
    and derives its clearance from ``CompactSet.distance`` through
    _edge_slack.
    """

    region: object
    radius: float
    value_range = (0.0, 1.0)
    piecewise_constant = True

    def ev(self, pts):
        return self.region.within(pts, self.radius).astype(float)

    def slack(self, pts, way=0):
        return self.region.clearance(pts, self.radius, way)


@dataclass(frozen=True)
class BranchCompose(FieldNode):
    """Pushforward u(branch(t)) as a field on the parameter line."""

    branch: BranchMap
    inner: FieldNode

    @property
    def is_real(self):
        return self.inner.is_real

    @property
    def value_range(self):
        """(v, v) when the branch holds constant every coordinate the inner
        field reads, v its value at ``branch.eval(0)``; the inner field's
        range otherwise, and when that value raises DomainError or is NaN.

        A constant component has a length-1 coefficient vector c, and
        ``polyval`` gives c + t * 0 for it, which at every finite node t is
        c up to the sign of a zero part.  Every operator and indicator gives
        the same value for arguments that differ only in the sign of a
        zero, up to the sign of a zero result: log takes a nonpositive
        argument to -inf, division refuses a zero denominator of either
        sign, and the NaN tests do not see signs.  So every sample of every
        disc on the branch is v, and a disc whose node mean is at or below
        v is optimal.  When the mean of M copies of v rounds above v no
        disc stops there, and every trial ties with the constant disc.
        """
        comps, reads = self.branch.components, self.inner.reads
        if (self.inner.is_real and reads is not None
                and all(i < len(comps) and len(comps[i]) == 1 for i in reads)):
            try:
                v = float(self.inner.ev(self.branch.eval(np.zeros(1)))[0])
            except DomainError:
                v = np.nan
            if v == v:
                return (v, v)
        return self.inner.value_range

    def ev(self, pts):
        if pts.shape[1] != 1:
            raise DomainError("pushforward field lives on a 1-dimensional parameter")
        return self.inner.ev(self.branch.eval(pts[:, 0]))


@dataclass(frozen=True)
class ScalarField:
    """Real-valued field (possibly -inf) over ambient points."""

    expr: FieldNode

    def __post_init__(self):
        if not self.expr.is_real:
            raise ValueError("field expression must be real-valued at the top level")

    @cached_property
    def reads(self):
        """Zero-based indices of the coordinates the field reads, as a
        frozenset, or None when it may read every coordinate (a distance
        indicator or a pushforward, say)."""
        return self.expr.reads

    @cached_property
    def piecewise_constant(self) -> bool:
        """Whether every leaf is a constant or an indicator, so that
        ``slack`` can be positive; the descent screens its trials only
        then, and computes no slack for any other field."""
        return self.expr.piecewise_constant

    @cached_property
    def floor(self) -> float:
        """A float at or below every value of the field (-inf when the
        expression bounds nothing), so the mean of any samples, rounded,
        is at most a few ulps of their magnitude below it."""
        return self.expr.value_range[0]

    def check_dimension(self, dim: int) -> None:
        """Raise ValueError when the field reads a coordinate beyond z_dim."""
        if self.reads and max(self.reads) >= dim:
            raise ValueError(
                f"field reads z{max(self.reads) + 1}, but the points have "
                f"{dim} coordinate(s)"
            )

    def values(self, pts) -> np.ndarray:
        """Field values at points of shape (M, N); float array, -inf allowed."""
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim != 2:
            raise ValueError("points must have shape (M, N)")
        out = self.expr.ev(pts)
        return np.asarray(out, dtype=float)

    def slack(self, pts, way: int = 0) -> np.ndarray:
        """Per point of pts, shape (M, N), how far it may move (euclidean
        norm in C^N) before ``values`` can give other bits there (way 0),
        or a lower value (way -1), or a higher one (way +1): the least
        slack of the expression's nodes, each asked in the way its
        operators turn (``FieldNode.slack``), 0 unless every leaf is a
        constant or an indicator."""
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim != 2:
            raise ValueError("points must have shape (M, N)")
        return np.asarray(self.expr.slack(pts, way), dtype=float)


def pushforward_field(u: ScalarField, branch: BranchMap) -> ScalarField:
    """The field t -> u(branch(t)) on the branch parameter line."""
    return ScalarField(BranchCompose(branch, u.expr))


def eval_field(u: ScalarField, p) -> float:
    """u at a single ambient point."""
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    return float(u.values(p[None, :])[0])


def decreasing_approximation(u: ScalarField, k: float) -> ScalarField:
    """Truncation max(u, -k); decreases to u pointwise as k grows.  Raises
    ValueError unless k >= 0 (NaN included: max(u, NaN) is NaN everywhere)."""
    if not k >= 0:
        raise ValueError(f"truncation level k must be >= 0, got {k!r}")
    return ScalarField(Op("max", (u.expr, Const(-float(k)))))


# ---------------------------------------------------------------------------
# Expression text grammar.

_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/(),;]))"
)

_FUNCS = ("re", "im", "abs", "abs2", "log", "exp", "min", "max")


class _Parser:
    """Recursive descent for the field grammar.

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('-'|'+')* atom
    atom   := NUMBER | zK | fn '(' expr ')' | min/max '(' expr, expr, ... ')'
            | indicator '(' ball-or-box ')' | '(' expr ')'
    ball   := ball '(' c1_re, c1_im, ..., cN_re, cN_im ; radius ')'
    box    := box '(' re_lo, re_hi, im_lo, im_hi ; ... per coordinate ')'
    """

    def __init__(self, text: str):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"bad token at: {text[pos:pos + 12]!r}")
                break
            pos = m.end()
            if m.group("num"):
                self.toks.append(("num", float(m.group("num"))))
            elif m.group("ident"):
                self.toks.append(("ident", m.group("ident")))
            else:
                self.toks.append(("op", m.group("op")))
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, op: str):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r}, got {val!r}")

    def parse(self) -> FieldNode:
        node = self.expr()
        if self.peek() != (None, None):
            raise ValueError(f"trailing input at token {self.peek()[1]!r}")
        return node

    def items(self, item, sep: str = ","):
        """item (sep item)*, as a list."""
        out = [item()]
        while self.peek() == ("op", sep):
            self.next()
            out.append(item())
        return out

    def chain(self, ops, operand):
        """operand (op operand)* for op in ops, folded to the left."""
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            node = Op(self.next()[1], (node, operand()))
        return node

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*", "/"), self.unary)

    def unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            return Op("neg", (self.unary(),))
        if self.peek() == ("op", "+"):
            self.next()
            return self.unary()
        return self.atom()

    def number(self) -> float:
        sign = 1.0
        while self.peek() == ("op", "-") or self.peek() == ("op", "+"):
            if self.next()[1] == "-":
                sign = -sign
        kind, val = self.next()
        if kind != "num":
            raise ValueError(f"expected a number, got {val!r}")
        return sign * val

    def number_list(self, stop_ops=(";", ")")):
        vals = self.items(self.number)
        kind, val = self.peek()
        if kind != "op" or val not in stop_ops:
            raise ValueError(f"expected one of {stop_ops}, got {val!r}")
        return vals

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return Const(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind != "ident":
            raise ValueError(f"unexpected token {val!r}")
        name = val
        m = _re.fullmatch(r"z(\d+)", name)
        if m:
            idx = int(m.group(1))
            if idx < 1:
                raise ValueError("coordinates are numbered from z1")
            return Coord(idx - 1)
        if name in _FUNCS:
            self.expect("(")
            args = self.items(self.expr)
            self.expect(")")
            return Op(name, tuple(args))
        if name == "indicator":
            self.expect("(")
            node = self.set_descriptor()
            self.expect(")")
            return node
        raise ValueError(f"unknown function {name!r}")

    def set_descriptor(self):
        kind, val = self.next()
        if kind != "ident" or val not in ("ball", "box"):
            raise ValueError("indicator takes ball(...) or box(...)")
        self.expect("(")
        if val == "ball":
            nums = self.number_list(stop_ops=(";",))
            if len(nums) % 2 != 0:
                raise ValueError("ball center needs re,im pairs")
            self.expect(";")
            radius = self.number()
            self.expect(")")
            center = tuple(complex(re, im) for re, im in zip(nums[::2], nums[1::2]))
            return BallIndicator(center, radius)
        groups = self.items(self.number_list, ";")
        self.expect(")")
        if any(len(g) != 4 for g in groups):
            raise ValueError("each box coordinate needs re_lo, re_hi, im_lo, im_hi")
        return BoxIndicator(tuple(tuple(g) for g in groups))


def parse_field(text: str) -> ScalarField:
    """Parse the documented expression grammar into a ScalarField."""
    return ScalarField(_Parser(text).parse())


# ---------------------------------------------------------------------------
# Quadrature and functionals.

@dataclass(frozen=True)
class QuadratureSpec:
    """Equispaced circle quadrature: M nodes (power of two, >= 16)."""

    M: int = 512

    def __post_init__(self):
        if self.M < 16 or (self.M & (self.M - 1)) != 0:
            raise ValueError("quadrature M must be a power of two >= 16")


def boundary_means(samples):
    """Boundary averages of a stack of discs from their field samples.

    samples has shape (n, M): row i holds the field at the M boundary nodes
    of disc i, and a row that holds -inf averages to -inf.  Each row is
    reduced on its own, so a disc gets the same bits in a stack of one as in
    any stack.
    """
    with np.errstate(invalid="ignore"):
        means = np.add.reduce(samples, axis=1) / samples.shape[1]
    # -inf plus anything finite is -inf, so a row holding -inf has summed
    # to -inf already, or to NaN if +inf or NaN is in it too.
    nan = np.isnan(means)
    if nan.any():
        means[nan] = np.where(np.isneginf(samples[nan]).any(axis=1), -np.inf, np.nan)
    return means


def poisson_functional(u: ScalarField, f, q: QuadratureSpec) -> float:
    """Boundary average of u along the disc (harmonic extension at 0).

    Exact for pluriharmonic integrands once M exceeds the composed degree;
    returns -inf when any node value is -inf.  The value is
    ``boundary_means`` of the disc as a stack of one, which is how the
    envelope search scores its trials.
    """
    return float(boundary_means(u.values(f.boundary_values(q.M))[None])[0])


def arc_functional(u: ScalarField, f, q: QuadratureSpec, arc) -> float:
    """Arc-restricted boundary integral, normalized by the full circle.

    arc = (t0, t1) with 0 <= t0 < t1 <= 2*pi.  Nodes strictly inside get
    weight 1, nodes at the endpoints weight 1/2 (per endpoint; the node at
    angle 0 also represents 2*pi), so arcs partitioning the circle sum
    exactly to the Poisson functional.
    """
    t0, t1 = float(arc[0]), float(arc[1])
    if not (0.0 <= t0 < t1 <= TWO_PI + 1e-12):
        raise ValueError("arc must satisfy 0 <= t0 < t1 <= 2*pi")
    M = q.M
    t = TWO_PI * np.arange(M) / M
    eps = 1e-9
    w = np.where((t > t0 + eps) & (t < t1 - eps), 1.0, 0.0)
    w[np.abs(t - t0) <= eps] += 0.5
    w[np.abs(t - t1) <= eps] += 0.5
    w[np.abs(t + TWO_PI - t1) <= eps] += 0.5
    vals = u.values(f.boundary_values(M))
    active = w > 0
    if np.isneginf(vals[active]).any():
        return float("-inf")
    return float(np.sum(w[active] * vals[active]) / M)
