"""Property: a node's slack is a radius on which its value keeps its bits.

``FieldNode.slack`` gives, per point p, a radius s such that the node's
computed value at every point q with |q - p| <= s (euclidean norm in C^N)
is its value at p, bit for bit; the descent skips trials on that promise.
Each leaf kind with a slack (constants, ball, box and distance indicators)
and operator trees over them are checked at points on the slack sphere
and inside it, with the distance |q - p| computed exactly in rationals.
The points are drawn generic, near an edge of one leaf, with components up
to 1e150, or with an infinite or NaN component, where an indicator's slack
must be 0; in C^1 and C^2.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshenv.functional import (
    BallIndicator,
    BoxIndicator,
    Const,
    DistanceIndicator,
    Op,
    ScalarField,
    parse_field,
)
from pshenv.hull import CompactSet, membership_field

PROPERTY = settings(max_examples=400, deadline=None, database=None,
                    derandomize=True)

_C = st.floats(-2, 2, allow_subnormal=False)
# Relative offsets from an edge, in and out, down to a few ulps.
_NEAR = st.sampled_from([0.0, 1e-16, -1e-16, 3e-16, -3e-16, 1e-13, -1e-13,
                         1e-9, -1e-9]) | st.floats(-1e-6, 1e-6)


@st.composite
def _unit(draw, N):
    """A unit vector of C^N, roughly (the tests normalise exactly enough)."""
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * N, max_size=2 * N))
    v = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    n = np.linalg.norm(v)
    return v / n if n > 1e-3 else np.eye(N, dtype=complex)[0]


def _complex(draw, N, part=_C):
    return np.array([complex(draw(part), draw(part)) for _ in range(N)])


@st.composite
def _ball(draw, N):
    c = _complex(draw, N)
    r = draw(st.floats(1e-3, 2) | st.sampled_from([1e-140, 1e-300, 1e140]))
    w = draw(_unit(N))
    return BallIndicator(tuple(c), r), c + r * (1 + draw(_NEAR)) * w, w


@st.composite
def _box(draw, N):
    bounds = []
    for _ in range(N):
        re = sorted(draw(st.lists(_C, min_size=2, max_size=2)))
        im = sorted(draw(st.lists(_C, min_size=2, max_size=2)))
        bounds.append((re[0], re[1], im[0], im[1]))
    # A point with one part moved to one of its bounds, give or take.
    edge = _complex(draw, N)
    i, k = draw(st.integers(0, N - 1)), draw(st.integers(0, 3))
    at = bounds[i][k] + draw(_NEAR) * (1 + abs(bounds[i][k]))
    edge[i] = complex(at, edge[i].imag) if k < 2 else complex(edge[i].real, at)
    axis = np.zeros(N, dtype=complex)
    axis[i] = 1 if k < 2 else 1j
    return BoxIndicator(tuple(bounds)), edge, axis


@st.composite
def _distance(draw, N):
    balls = [(_complex(draw, N), draw(st.floats(0, 0.5)))
             for _ in range(draw(st.integers(1, 3)))]
    boxes = []
    if draw(st.booleans()):
        lo = _complex(draw, N)
        boxes.append((lo, lo + complex(draw(st.floats(0, 1)),
                                       draw(st.floats(0, 1)))))
    K = CompactSet(balls=tuple(balls), boxes=tuple(boxes))
    U = draw(st.floats(0.01, 0.5))
    c, r = balls[draw(st.integers(0, len(balls) - 1))]
    w = draw(_unit(N))
    edge = c + (r + U) * (1 + draw(_NEAR)) * w
    return DistanceIndicator(K, U), edge, w


@st.composite
def _const(draw, N):
    return Const(draw(st.floats(-3, 3))), _complex(draw, N), draw(_unit(N))


def _leaf(N):
    return _ball(N) | _box(N) | _distance(N) | _const(N)


@st.composite
def _tree(draw, N, depth=2):
    """(node, [(edge point, its normal)] of its leaves): a leaf, or neg,
    min, max, + or - of subtrees, * of two non-constant subtrees, or a
    subtree times a constant factor."""
    if depth == 0 or draw(st.booleans()):
        node, edge, normal = draw(_leaf(N))
        return node, [(edge, normal)]
    op = draw(st.sampled_from(["neg", "min", "max", "+", "-", "*", "scale"]))
    sub = _tree(N, depth - 1)
    if op == "*":
        sub = sub.filter(lambda t: not isinstance(t[0], Const))
    a, ea = draw(sub)
    if op == "neg":
        return Op("neg", (a,)), ea
    if op == "scale":
        return Op("*", (Const(draw(st.sampled_from([-2.0, -0.5, 0.5, 3.0]))), a)), ea
    b, eb = draw(sub)
    return Op(op, (a, b)), ea + eb


@st.composite
def _case(draw):
    """(node, point p, edges) in C^1 or C^2: edges holds, per leaf, a
    point near its edge and the edge's normal there, the direction that
    crosses it soonest."""
    N = draw(st.sampled_from([1, 2]))
    node, edges = draw(_tree(N))
    kind = draw(st.sampled_from(["edge", "generic", "huge", "nonfinite"]))
    if kind == "edge":
        p = edges[draw(st.integers(0, len(edges) - 1))][0]
    elif kind == "huge":
        big = st.floats(-1e150, 1e150) | st.sampled_from([1e150, -1e150, 3e149])
        p = _complex(draw, N, big)
    else:
        p = _complex(draw, N, st.floats(-3, 3))
    if kind == "nonfinite":
        parts = p.view(float).copy()
        parts[draw(st.integers(0, 2 * N - 1))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan]))
        p = parts.view(complex)
    return node, p, edges


def _exactly_within(q, p, s) -> bool:
    """|q - p| <= s, in exact rational arithmetic."""
    d2 = sum((Fraction(a) - Fraction(b)) ** 2
             for a, b in zip(q.view(float), p.view(float)))
    return d2 <= Fraction(s) ** 2


def _toward(p, s, v):
    """A point at distance at most s from p along v, as near s as floats
    allow (s finite)."""
    t, cut = s, 2.0**-30
    while True:
        q = p + t * v
        if _exactly_within(q, p, s):
            return q
        t, cut = t * (1 - cut), min(0.5, 2 * cut)


def _leaves(node):
    if isinstance(node, Op):
        return [leaf for a in node.args for leaf in _leaves(a)]
    return [node]


def _bits(node, p):
    return node.ev(p[None, :]).tobytes()


def _direction(N, normals):
    return (_unit(N) | st.sampled_from(normals).map(lambda w: w.copy())
            | st.sampled_from(normals).map(lambda w: -w))


@PROPERTY
@given(_case(), st.data())
def test_values_keep_their_bits_within_the_slack(case, data):
    node, p, edges = case
    normals = [w for _, w in edges]
    N = p.size
    s = float(node.slack(p[None, :])[0])
    assert s >= 0
    assert s == float(ScalarField(node).slack(p[None, :])[0])
    if not np.isfinite(p).all():
        for leaf in _leaves(node):
            if not isinstance(leaf, Const):
                assert leaf.slack(p[None, :])[0] == 0.0
        return
    if s == 0:
        return
    want = _bits(node, p)
    reach = s if np.isfinite(s) else 1e6
    for _ in range(4):
        v = data.draw(_direction(N, normals))
        on_sphere = _toward(p, reach, v)
        inside = _toward(p, reach * data.draw(st.floats(0, 1)), v)
        assert _bits(node, on_sphere) == want
        assert _bits(node, inside) == want


@PROPERTY
@given(_case(), st.sampled_from([-1, 1]), st.data())
def test_values_go_only_the_other_way_within_the_directional_slack(case, way,
                                                                     data):
    # Within slack(p, -1) no point reads a lower value than p, within
    # slack(p, +1) no point a higher one, and each is at least slack(p, 0).
    # An infinite slack is tried at distances from far inside an edge's
    # rounding to far beyond every set, and, as it holds everywhere, at
    # each leaf's edge point and 1e-3 to either side of it.
    node, p, edges = case
    N = p.size
    s = float(node.slack(p[None, :], way)[0])
    assert s >= float(node.slack(p[None, :])[0])
    assert s == float(ScalarField(node).slack(p[None, :], way)[0])
    if s == 0 or not np.isfinite(p).all():
        return
    probes = []
    for _ in range(4):
        v = data.draw(_direction(N, [w for _, w in edges]))
        reach = s if np.isfinite(s) else data.draw(
            st.sampled_from([1e-9, 1e-3, 0.1, 0.5, 1.0, 3.0, 1e6]))
        probes += [_toward(p, reach * t, v)
                   for t in (1.0, data.draw(st.floats(0, 1)))]
    if not np.isfinite(s):
        probes += [e + d * w for e, w in edges for d in (0.0, 1e-3, -1e-3)]
    at_p = node.ev(p[None, :])[0]
    got = node.ev(np.array(probes))
    assert np.all(got >= at_p) if way < 0 else np.all(got <= at_p)


def test_a_negated_indicator_can_fall_only_from_outside():
    # -indicator reads -1 inside the ball, its least value, so an inside
    # point's fall slack is +inf and an outside point's is its two-sided
    # slack; the rise slack is the other way round.  A factor -2 turns the
    # way as neg does.
    pts = np.array([[0.25 + 0j], [0.9 + 0.1j]])
    ball = BallIndicator((0j,), 0.5)
    for u in (parse_field("-indicator(ball(0, 0; 0.5))"),
              ScalarField(Op("*", (Const(-2.0), ball)))):
        both = u.slack(pts)
        assert np.all(np.isfinite(both)) and np.all(both > 0)
        assert u.slack(pts, -1).tolist() == [np.inf, both[1]]
        assert u.slack(pts, 1).tolist() == [both[0], np.inf]


@pytest.mark.parametrize("text", [
    "-abs(indicator(ball(0, 0; 0.5)))",
    "log(1 + indicator(ball(0, 0; 0.5)))",
    "-indicator(ball(0, 0; 0.5)) / 2",
    # 1e308 + 1e308 overflows, and inf * 0 is NaN: the ranges are not finite.
    "(1e308 * indicator(ball(0, 0; 0.5)) + 1e308 * indicator(ball(0, 0; 0.7)))"
    " * -indicator(ball(0.3, 0; 0.5))",
])
def test_directional_slack_is_two_sided_where_no_way_passes(text):
    # abs, log and / pass no way on, nor does an operator whose range, or
    # an argument's, is not finite.
    pts = np.array([[0.25 + 0j], [0.6 + 0j], [0.9 + 0.1j]])
    u = parse_field(text)
    assert u.piecewise_constant and np.all(u.slack(pts) > 0)
    for way in (-1, 1):
        assert u.slack(pts, way).tolist() == u.slack(pts).tolist()


def test_slack_is_the_distance_to_the_edge_less_rounding():
    # Well inside the range, each indicator's slack is its exact gap to the
    # edge within a relative 1e-13.
    pts = np.array([[0.25 + 0j], [0.9 + 0.1j]])
    ball = parse_field("indicator(ball(0, 0; 0.5))")
    np.testing.assert_allclose(ball.slack(pts),
                               [0.25, abs(0.9 + 0.1j) - 0.5], rtol=1e-13)
    box = parse_field("indicator(box(-1, 1, -0.5, 0.5))")
    np.testing.assert_allclose(box.slack(pts), [0.5, 0.1], rtol=1e-13)
    K = CompactSet(balls=(([0j], 0.2),))
    hull = membership_field(K, 0.1)
    np.testing.assert_allclose(hull.slack(pts),
                               [0.05, abs(0.9 + 0.1j) - 0.3], rtol=1e-13)
    # Constants never change; a coordinate and every field with one does.
    assert parse_field("3").slack(pts).tolist() == [np.inf, np.inf]
    for text in ("re(z1)", "min(indicator(ball(0, 0; 0.5)), re(z1))"):
        u = parse_field(text)
        assert not u.piecewise_constant
        assert u.slack(pts).tolist() == [0.0, 0.0]
    assert ball.piecewise_constant and box.piecewise_constant
    assert hull.piecewise_constant


def _edge_cases(kind):
    """(node, p, v) for the ball or the distance indicator, in C^1 and C^2:
    p a few ulps inside or outside the edge along the unit normal w, and v
    the normal's direction toward the edge (w from inside, -w from
    outside)."""
    rng = np.random.default_rng(7)
    for N in (1, 2):
        for _ in range(6):
            c = rng.uniform(-2, 2, N) + 1j * rng.uniform(-2, 2, N)
            w = rng.normal(size=N) + 1j * rng.normal(size=N)
            w /= np.linalg.norm(w)
            r = rng.uniform(0.05, 1.5)
            if kind == "ball":
                node, edge = BallIndicator(tuple(c), r), r
            else:
                U = rng.uniform(0.05, 0.5)
                node = DistanceIndicator(CompactSet(balls=((c, r),)), U)
                edge = r + U
            for k in range(-12, 13):
                p = c + edge * (1 + k * 2.0**-52) * w
                yield node, p, w if k < 0 else -w


@pytest.mark.parametrize("kind", ["ball", "distance"])
def test_slack_keeps_the_bits_a_few_ulps_from_the_edge(kind):
    # Moving p toward the edge by its slack must not cross it.  The
    # computed gap |d - r| (or |g - U|) alone, without the rounding margin,
    # reaches the edge from some of these points and changes the value.
    for node, p, v in _edge_cases(kind):
        s = float(node.slack(p[None, :])[0])
        if s > 0:
            assert _bits(node, _toward(p, s, v)) == _bits(node, p), (p, s)
