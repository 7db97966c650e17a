"""Scalar fields on ambient space and boundary-average functionals.

Fields are expression trees over the ambient coordinates, evaluated
vectorized over sample points.  Values live in R union {-inf}: log 0 is
-inf (nonpositive arguments fold into the same convention), -inf + finite
is -inf, min/max propagate it, and any combination that would produce NaN
raises DomainError instead.  Characteristic functions of balls/boxes use
strict inequalities, so they are indicators of open sets and boundary
points take the larger value once negated.

The Poisson functional of a disc is the plain average of the field over
equispaced boundary nodes (trapezoid rule on a periodic integrand, so
spectrally accurate); arc functionals restrict to a node subset with half
weights at arc endpoints and are normalized by the full circle.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .space import BranchMap

__all__ = [
    "FieldNode", "Const", "Coord", "Re", "Im", "Abs", "Abs2", "Log", "Exp",
    "Neg", "Add", "Sub", "Mul", "Div", "Min", "Max", "BallIndicator",
    "BoxIndicator", "DistanceIndicator", "BranchCompose", "ScalarField",
    "pushforward_field", "parse_field", "eval_field", "QuadratureSpec",
    "boundary_means", "poisson_functional", "arc_functional",
    "decreasing_approximation",
]

TWO_PI = 2.0 * np.pi


class FieldNode:
    is_real = True

    def ev(self, pts):  # pragma: no cover - abstract
        raise NotImplementedError


def _nan_guard(out, what: str):
    if np.isnan(out).any():
        raise DomainError(f"{what} produced NaN (undefined -inf combination?)")
    return out


def _require_real(children, who: str):
    for ch in children:
        if not ch.is_real:
            raise ValueError(f"{who} requires real-valued arguments")


@dataclass(frozen=True)
class Const(FieldNode):
    value: float

    def ev(self, pts):
        return np.full(pts.shape[0], float(self.value))


@dataclass(frozen=True)
class Coord(FieldNode):
    index: int  # zero-based
    is_real = False

    def ev(self, pts):
        if self.index >= pts.shape[1]:
            raise DomainError(
                f"coordinate z{self.index + 1} beyond ambient dimension {pts.shape[1]}"
            )
        return pts[:, self.index]


@dataclass(frozen=True)
class Re(FieldNode):
    a: FieldNode

    def ev(self, pts):
        return np.real(self.a.ev(pts)).astype(float, copy=False)


@dataclass(frozen=True)
class Im(FieldNode):
    a: FieldNode

    def ev(self, pts):
        return np.imag(self.a.ev(pts)).astype(float, copy=False)


@dataclass(frozen=True)
class Abs(FieldNode):
    a: FieldNode

    def ev(self, pts):
        return np.abs(self.a.ev(pts))


@dataclass(frozen=True)
class Abs2(FieldNode):
    a: FieldNode

    def ev(self, pts):
        v = self.a.ev(pts)
        return (v * np.conj(v)).real if np.iscomplexobj(v) else v * v


@dataclass(frozen=True)
class Log(FieldNode):
    a: FieldNode

    def __post_init__(self):
        _require_real((self.a,), "log")

    def ev(self, pts):
        v = self.a.ev(pts)
        out = np.full_like(v, -np.inf)
        pos = v > 0
        np.log(v, out=out, where=pos)
        return out


@dataclass(frozen=True)
class Exp(FieldNode):
    a: FieldNode

    def __post_init__(self):
        _require_real((self.a,), "exp")

    def ev(self, pts):
        with np.errstate(over="ignore"):
            return np.exp(self.a.ev(pts))


def _binary_is_real(a, b):
    return a.is_real and b.is_real


@dataclass(frozen=True)
class Neg(FieldNode):
    a: FieldNode

    @property
    def is_real(self):
        return self.a.is_real

    def ev(self, pts):
        return -self.a.ev(pts)


@dataclass(frozen=True)
class Add(FieldNode):
    a: FieldNode
    b: FieldNode

    @property
    def is_real(self):
        return _binary_is_real(self.a, self.b)

    def ev(self, pts):
        with np.errstate(invalid="ignore"):
            return _nan_guard(self.a.ev(pts) + self.b.ev(pts), "addition")


@dataclass(frozen=True)
class Sub(FieldNode):
    a: FieldNode
    b: FieldNode

    @property
    def is_real(self):
        return _binary_is_real(self.a, self.b)

    def ev(self, pts):
        with np.errstate(invalid="ignore"):
            return _nan_guard(self.a.ev(pts) - self.b.ev(pts), "subtraction")


@dataclass(frozen=True)
class Mul(FieldNode):
    a: FieldNode
    b: FieldNode

    @property
    def is_real(self):
        return _binary_is_real(self.a, self.b)

    def ev(self, pts):
        with np.errstate(invalid="ignore"):
            return _nan_guard(self.a.ev(pts) * self.b.ev(pts), "multiplication")


@dataclass(frozen=True)
class Div(FieldNode):
    a: FieldNode
    b: FieldNode

    @property
    def is_real(self):
        return _binary_is_real(self.a, self.b)

    def ev(self, pts):
        den = self.b.ev(pts)
        if np.any(den == 0):
            raise DomainError("division by zero inside field expression")
        with np.errstate(invalid="ignore"):
            return _nan_guard(self.a.ev(pts) / den, "division")


@dataclass(frozen=True)
class Min(FieldNode):
    args: tuple

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("min needs at least two arguments")
        _require_real(self.args, "min")

    def ev(self, pts):
        out = self.args[0].ev(pts)
        for a in self.args[1:]:
            out = np.minimum(out, a.ev(pts))
        return out


@dataclass(frozen=True)
class Max(FieldNode):
    args: tuple

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("max needs at least two arguments")
        _require_real(self.args, "max")

    def ev(self, pts):
        out = self.args[0].ev(pts)
        for a in self.args[1:]:
            out = np.maximum(out, a.ev(pts))
        return out


@dataclass(frozen=True)
class BallIndicator(FieldNode):
    """Characteristic function of the open ball |p - center| < radius."""

    center: tuple  # complex per coordinate
    radius: float

    def ev(self, pts):
        c = np.asarray(self.center, dtype=complex)
        d2 = np.sum(np.abs(pts[:, : c.size] - c) ** 2, axis=1)
        return (d2 < self.radius * self.radius).astype(float)


@dataclass(frozen=True)
class BoxIndicator(FieldNode):
    """Open box: per coordinate (re_lo, re_hi, im_lo, im_hi), strict."""

    bounds: tuple  # of 4-tuples

    def ev(self, pts):
        inside = np.ones(pts.shape[0], dtype=bool)
        for i, (rlo, rhi, ilo, ihi) in enumerate(self.bounds):
            z = pts[:, i]
            inside &= (z.real > rlo) & (z.real < rhi)
            inside &= (z.imag > ilo) & (z.imag < ihi)
        return inside.astype(float)


@dataclass(frozen=True)
class DistanceIndicator(FieldNode):
    """Open neighborhood {dist(p, S) < radius} of a set with a distance callable."""

    dist_fn: object  # callable pts (M, N) -> (M,) float
    radius: float

    def ev(self, pts):
        return (self.dist_fn(pts) < self.radius).astype(float)


@dataclass(frozen=True)
class BranchCompose(FieldNode):
    """Pushforward u(branch(t)) as a field on the parameter line."""

    branch: BranchMap
    inner: FieldNode

    @property
    def is_real(self):
        return self.inner.is_real

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

    def values(self, pts) -> np.ndarray:
        """Field values at points of shape (M, N); float array, -inf allowed."""
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim != 2:
            raise ValueError("points must have shape (M, N)")
        out = self.expr.ev(pts)
        return np.asarray(out, dtype=float)


def pushforward_field(u: ScalarField, branch: BranchMap) -> ScalarField:
    """The field t -> u(branch(t)) on the branch parameter line."""
    return ScalarField(BranchCompose(branch, u.expr))


def eval_field(u: ScalarField, p) -> float:
    """u at a single ambient point."""
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    return float(u.values(p[None, :])[0])


def decreasing_approximation(u: ScalarField, k: float) -> ScalarField:
    """Truncation max(u, -k); decreases to u pointwise as k grows."""
    if k < 0:
        raise ValueError("truncation level k must be >= 0")
    return ScalarField(Max((u.expr, Const(-float(k)))))


# ---------------------------------------------------------------------------
# Expression text grammar.

_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/(),;]))"
)

_FUNCS1 = {"re": Re, "im": Im, "abs": Abs, "abs2": Abs2, "log": Log, "exp": Exp}


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

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.next()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.next()[1]
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            return Neg(self.unary())
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
        vals = [self.number()]
        while self.peek() == ("op", ","):
            self.next()
            vals.append(self.number())
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
        if name in _FUNCS1:
            self.expect("(")
            node = _FUNCS1[name](self.expr())
            self.expect(")")
            return node
        if name in ("min", "max"):
            self.expect("(")
            args = [self.expr()]
            while self.peek() == ("op", ","):
                self.next()
                args.append(self.expr())
            self.expect(")")
            return (Min if name == "min" else Max)(tuple(args))
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
            center = tuple(complex(nums[2 * i], nums[2 * i + 1])
                           for i in range(len(nums) // 2))
            return BallIndicator(center, radius)
        groups = [self.number_list(stop_ops=(";", ")"))]
        while self.peek() == ("op", ";"):
            self.next()
            groups.append(self.number_list(stop_ops=(";", ")")))
        self.expect(")")
        bounds = []
        for g in groups:
            if len(g) != 4:
                raise ValueError("each box coordinate needs re_lo, re_hi, im_lo, im_hi")
            bounds.append(tuple(g))
        return BoxIndicator(tuple(bounds))


def parse_field(text: str) -> ScalarField:
    """Parse the documented expression grammar into a ScalarField."""
    return ScalarField(_Parser(text).parse())


# ---------------------------------------------------------------------------
# Quadrature and functionals.

@dataclass(frozen=True)
class QuadratureSpec:
    """Equispaced circle quadrature: M nodes (power of two, >= 16)."""

    M: int = 512
    clip: float | None = None

    def __post_init__(self):
        if self.M < 16 or (self.M & (self.M - 1)) != 0:
            raise ValueError("quadrature M must be a power of two >= 16")


def boundary_means(samples, clip: float | None = None):
    """Boundary averages of a stack of discs from their field samples.

    samples has shape (n, M): row i holds the field at the M boundary nodes
    of disc i.  Samples are raised to clip when one is set, and a row that
    holds -inf averages to -inf.  Each row is reduced on its own, so a disc
    gets the same bits in a stack of one as in any stack.  Returns (means,
    clipped samples).
    """
    if clip is not None:
        samples = np.maximum(samples, clip)
    with np.errstate(invalid="ignore"):
        means = np.add.reduce(samples, axis=1) / samples.shape[1]
    # -inf plus anything finite is -inf, so a row holding -inf has summed
    # to -inf already, or to NaN if +inf or NaN is in it too.
    nan = np.isnan(means)
    if nan.any():
        means[nan] = np.where(np.isneginf(samples[nan]).any(axis=1), -np.inf, np.nan)
    return means, samples


def poisson_functional(u: ScalarField, f, q: QuadratureSpec) -> float:
    """Boundary average of u along the disc (harmonic extension at 0).

    Exact for pluriharmonic integrands once M exceeds the composed degree;
    returns -inf when any node value is -inf and no clip is set.  The value
    is ``boundary_means`` of the disc as a stack of one, which is how the
    envelope search scores its trials.
    """
    means, _ = boundary_means(u.values(f.boundary_values(q.M))[None], q.clip)
    return float(means[0])


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
    if q.clip is not None:
        vals = np.maximum(vals, q.clip)
    active = w > 0
    if np.isneginf(vals[active]).any():
        return float("-inf")
    return float(np.sum(w[active] * vals[active]) / M)
