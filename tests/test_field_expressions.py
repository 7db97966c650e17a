"""Property: generated field expressions evaluate as the operator table says.

Expressions are drawn from the text grammar of ``parse_field`` and
evaluated at points in C^1 and C^2.  Each one either evaluates without
NaN or raises DomainError, and its values equal, bit for bit, those of the
reference below: one node class per operator, which is how the operators
were written before they became rows of ``functional._OPS``.  The suite
turns RuntimeWarning into an error, so an operator that warns fails too.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pshenv import hull
from pshenv.errors import DomainError
from pshenv.functional import (
    BallIndicator,
    BoxIndicator,
    Const,
    Coord,
    FieldNode,
    parse_field,
)

PROPERTY = settings(max_examples=500, deadline=None, database=None,
                    derandomize=True)


# ---------------------------------------------------------------------------
# Reference: one node class per operator.


def _nan_guard(out, what: str):
    if np.isnan(out).any():
        raise DomainError(f"{what} produced NaN (undefined -inf combination?)")
    return out


def _require_real(children, who: str):
    for ch in children:
        if not ch.is_real:
            raise ValueError(f"{who} requires real-valued arguments")


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


# ---------------------------------------------------------------------------
# Generated expressions: (text, reference node) pairs, real or complex.

# Real leaves: 0 makes log and division meet zeros; 700 and 1e300 bring exp
# and the arithmetic to overflow.
_LEAVES = st.sampled_from(
    [(repr(c), Const(c)) for c in (0.0, 1e300, 700.0, 0.5, 1.0, 2.0, 1e-3)]
    + [("indicator(ball(0, 0; 0.5))", BallIndicator((0j,), 0.5)),
       ("indicator(box(-1, 0, -1, 1))", BoxIndicator(((-1.0, 0.0, -1.0, 1.0),)))]
)
_COORDS = st.sampled_from([("z1", Coord(0)), ("z2", Coord(1))])

_OF_ANY = {"re": Re, "im": Im, "abs": Abs, "abs2": Abs2}
_OF_REAL = {"log": Log, "exp": Exp}
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_FOLDS = {"min": Min, "max": Max}


def _call(table, args):
    """Strategy for name(arg) over the names of a table."""
    return st.tuples(st.sampled_from(sorted(table)), args).map(
        lambda p: (f"{p[0]}({p[1][0]})", table[p[0]](p[1][1])))


def _neg(args):
    return args.map(lambda e: (f"-{e[0]}", Neg(e[1])))


def _binary(args):
    return st.tuples(st.sampled_from(sorted(_BINARY)), args, args).map(
        lambda p: (f"({p[1][0]} {p[0]} {p[2][0]})", _BINARY[p[0]](p[1][1], p[2][1])))


def _fold(args):
    return st.tuples(st.sampled_from(sorted(_FOLDS)),
                     st.lists(args, min_size=2, max_size=3)).map(
        lambda p: (f"{p[0]}({', '.join(t for t, _ in p[1])})",
                   _FOLDS[p[0]](tuple(n for _, n in p[1]))))


def _expressions(depth):
    """Real-valued expressions up to the given depth; inner nodes come first,
    so that the draws lean to full trees."""
    real, any_ = _LEAVES, st.one_of(_COORDS, _LEAVES)
    for _ in range(depth):
        real, any_ = (
            st.one_of(_binary(real), _call(_OF_ANY, any_), _call(_OF_REAL, real),
                      _fold(real), _neg(real), _LEAVES),
            st.one_of(_binary(any_), _neg(any_), _call(_OF_ANY, any_),
                      _call(_OF_REAL, real), _COORDS, _LEAVES),
        )
    return real


_COMPONENT = st.one_of(st.sampled_from([0.0, 1.0, -0.5]),
                       st.floats(-2.0, 2.0, allow_nan=False))


# Components that overflow squares and sums, and infinite ones.
_WIDE_COMPONENT = st.one_of(
    _COMPONENT, st.sampled_from([1e300, -1e300, 1e160, np.inf, -np.inf]))


@st.composite
def _points(draw, component=_COMPONENT):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 6))
    parts = draw(st.lists(component, min_size=2 * n * dim, max_size=2 * n * dim))
    # Set the parts, not 1j * im: that turns an infinite part into NaN.
    pts = np.array(parts[0::2], dtype=complex)
    pts.imag = parts[1::2]
    return pts.reshape(n, dim)


def _outcome(fn):
    try:
        return fn()
    except DomainError as exc:
        return exc


@PROPERTY
@given(_expressions(4), _points())
# Division tests its denominator before it evaluates the numerator, so the
# zero denominator, not the missing z2, is reported.
@example(("re(z2 / (z1 - z1))", Re(Div(Coord(1), Sub(Coord(0), Coord(0))))),
         np.array([[1j]]))
def test_generated_expressions_match_the_reference_or_raise_domain_error(expr, pts):
    text, ref = expr
    u = parse_field(text)
    got = _outcome(lambda: u.values(pts))
    # The reference warns where a product overflows to inf; its values and
    # errors are the same with the warnings off.
    with np.errstate(all="ignore"):
        want = _outcome(lambda: np.asarray(ref.ev(pts), dtype=float))
    if isinstance(want, DomainError):
        assert isinstance(got, DomainError) and str(got) == str(want), text
        return
    assert not isinstance(got, DomainError), (text, got)
    assert not np.isnan(got).any(), text
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), text


@PROPERTY
@given(_expressions(4), _points(_WIDE_COMPONENT))
def test_every_value_lies_in_the_value_range(expr, pts):
    # ScalarField.floor is the low end of the range: no value is below it,
    # wherever the expression evaluates at all.
    u = parse_field(expr[0])
    lo, hi = u.expr.value_range
    assert lo <= hi and lo == u.floor, expr[0]
    got = _outcome(lambda: u.values(pts))
    if not isinstance(got, DomainError):
        assert np.all((lo <= got) & (got <= hi)), (expr[0], got, lo, hi)


def test_floors_of_the_benchmark_fields():
    K = hull.CompactSet(balls=(([0.5], 0.25),))
    assert hull.membership_field(K, 0.1).floor == -1.0
    assert parse_field("-indicator(ball(0, 0; 0.25))").floor == -1.0
    assert parse_field("-indicator(ball(0, 0; 1))").floor == -1.0
    assert parse_field("1 - min(1, 1000000000000 * abs2(z1))").floor == 0.0
    assert parse_field("abs2(z1) + abs2(z2)").floor == 0.0
    for text in ("re(z1)", "max(re(z1), re(z2))", "log(0.001 + abs2(z1))"):
        assert parse_field(text).floor == -np.inf
