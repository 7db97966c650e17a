import numpy as np
import pytest

from pshenv.disc import AnalyticDisc, constant_disc
from pshenv.errors import DomainError
from pshenv.functional import (
    BallIndicator,
    BoxIndicator,
    BranchCompose,
    Const,
    Coord,
    DistanceIndicator,
    Op,
    QuadratureSpec,
    ScalarField,
    arc_functional,
    boundary_means,
    decreasing_approximation,
    eval_field,
    parse_field,
    poisson_functional,
    pushforward_field,
)
from pshenv.hull import CompactSet
from pshenv.space import BranchMap

# A one-point set in C^1, for the distance indicator.
_ORIGIN = CompactSet(balls=(([0j], 0.0),))


def test_parse_and_eval_basics():
    assert eval_field(parse_field("re(z1)"), [2 + 3j]) == 2.0
    assert eval_field(parse_field("im(z1)"), [2 + 3j]) == 3.0
    assert eval_field(parse_field("log(abs(z1))"), [0j]) == float("-inf")
    assert eval_field(parse_field("min(0, abs2(z1) - 1)"), [0.5 + 0j]) == -0.75
    assert eval_field(parse_field("max(re(z1), re(z2))"), [1 + 0j, 4 + 0j]) == 4.0
    assert eval_field(parse_field("exp(re(z1)) / 2"), [0j]) == 0.5


def test_parse_rejects_unknown_function():
    with pytest.raises(ValueError):
        parse_field("step(z1)")
    with pytest.raises(ValueError):
        parse_field("re(z1) +")
    with pytest.raises(ValueError):
        parse_field("re(w)")


def test_indicator_ball_is_open():
    u = parse_field("indicator(ball(0, 0; 1))")
    assert eval_field(u, [0j]) == 1.0
    assert eval_field(u, [0.999 + 0j]) == 1.0
    # boundary of the ball is outside an open set
    assert eval_field(u, [1.0 + 0j]) == 0.0
    assert eval_field(u, [1.2 + 0j]) == 0.0


def test_indicator_box():
    u = parse_field("indicator(box(-1, 1, -2, 2))")
    assert eval_field(u, [0.5 + 1.5j]) == 1.0
    assert eval_field(u, [0.5 - 2.5j]) == 0.0
    assert eval_field(u, [1.0 + 0j]) == 0.0  # open: the face is outside


def test_decreasing_approximation():
    u = parse_field("log(abs(z1))")
    u3 = decreasing_approximation(u, 3)
    assert eval_field(u3, [0j]) == -3.0

    bounded = parse_field("max(re(z1), -1)")
    u5 = decreasing_approximation(bounded, 5)
    pts = np.exp(1j * np.linspace(0, 6, 17))[:, None] * 1.7
    assert np.array_equal(u5.values(pts), bounded.values(pts))

    # truncations decrease pointwise in k
    u2 = decreasing_approximation(u, 2)
    u5 = decreasing_approximation(u, 5)
    assert (u2.values(pts) >= u5.values(pts)).all()

    for bad in (-1, np.nan):
        with pytest.raises(ValueError):
            decreasing_approximation(u, bad)


def test_quadrature_spec_validation():
    assert QuadratureSpec().M == 512
    with pytest.raises(ValueError):
        QuadratureSpec(M=100)
    with pytest.raises(ValueError):
        QuadratureSpec(M=8)


def test_poisson_constant_disc():
    u = parse_field("abs2(z1) + re(z2)")
    x = np.array([0.3 + 0.4j, -1.0 + 0j])
    for M in (16, 64, 512):
        v = poisson_functional(u, constant_disc(x), QuadratureSpec(M=M))
        assert v == pytest.approx(0.25 - 1.0, abs=1e-15)


def test_poisson_pluriharmonic_is_center_value():
    # mean of Re over the boundary = Re at the center for any polynomial disc
    u = parse_field("re(z1)")
    rng = np.random.default_rng(3)
    q = QuadratureSpec(M=64)
    for _ in range(10):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = AnalyticDisc(np.array([[a], [b]]))
        assert poisson_functional(u, f, q) == pytest.approx(a.real, abs=1e-14)


def test_poisson_squared_modulus():
    u = parse_field("abs2(z1)")
    f = AnalyticDisc(np.array([[0j], [1 + 0j]]))
    assert poisson_functional(u, f, QuadratureSpec(M=32)) == pytest.approx(1.0)


def test_poisson_minus_inf_and_clip():
    u = parse_field("log(abs(z1 - 1))")
    f = AnalyticDisc(np.array([[0j], [1 + 0j]]))  # boundary hits the zero
    assert poisson_functional(u, f, QuadratureSpec(M=64)) == float("-inf")
    truncated = poisson_functional(decreasing_approximation(u, 40), f,
                                   QuadratureSpec(M=64))
    assert np.isfinite(truncated)


def test_boundary_means_rows_and_minus_infinity():
    inf = np.inf
    samples = np.array([
        [1.0, 2.0, 3.0, 6.0],
        [1.0, -inf, 3.0, 6.0],
        [inf, -inf, 3.0, 6.0],  # sums to NaN; a -inf sample decides the row
        [inf, 2.0, 3.0, 6.0],
    ])
    stacked = boundary_means(samples)
    assert stacked.tolist() == [3.0, -inf, -inf, inf]
    for i in range(4):
        assert boundary_means(samples[i : i + 1])[0] == stacked[i]


def test_arc_full_circle_matches_poisson():
    u = parse_field("max(re(z1), abs2(z1) - 1)")
    f = AnalyticDisc(np.array([[0.2 + 0j], [0.5 + 0.1j], [0.3 + 0j]]))
    q = QuadratureSpec(M=128)
    full = arc_functional(u, f, q, (0.0, 2 * np.pi))
    assert full == pytest.approx(poisson_functional(u, f, q), abs=1e-15)


def test_arc_half_circle_values():
    q = QuadratureSpec(M=1024)
    one = parse_field("1")
    f = AnalyticDisc(np.array([[0j], [1 + 0j]]))
    assert arc_functional(one, f, q, (0.0, np.pi)) == pytest.approx(0.5, abs=1e-15)
    u = parse_field("re(z1)")
    assert arc_functional(u, f, q, (0.0, np.pi)) == pytest.approx(0.0, abs=1e-12)


def test_arc_partition_sums_to_poisson():
    u = parse_field("abs2(z1) + im(z1)")
    f = AnalyticDisc(np.array([[0.1 + 0j], [0.7 + 0j], [0.0j], [0.2 - 0.1j]]))
    q = QuadratureSpec(M=256)
    cuts = np.linspace(0.0, 2 * np.pi, 9)
    total = sum(
        arc_functional(u, f, q, (cuts[i], cuts[i + 1])) for i in range(8)
    )
    assert total == pytest.approx(poisson_functional(u, f, q), abs=1e-13)


def test_arc_validation():
    u = parse_field("0")
    f = constant_disc(np.array([0j]))
    q = QuadratureSpec(M=16)
    with pytest.raises(ValueError):
        arc_functional(u, f, q, (-0.1, 1.0))
    with pytest.raises(ValueError):
        arc_functional(u, f, q, (2.0, 1.0))


def test_pushforward_matches_composition():
    cusp = BranchMap(
        "cusp", (np.array([0, 0, 0, 1], complex), np.array([0, 0, 1], complex))
    )
    u = parse_field("re(z1) + abs2(z2)")
    ut = pushforward_field(u, cusp)
    rng = np.random.default_rng(1)
    ts = rng.normal(size=8) + 1j * rng.normal(size=8)
    got = ut.values(ts[:, None])
    want = u.values(cusp.eval(ts))
    assert np.array_equal(got, want)


def test_nan_guard_raises_domain_error():
    # -inf plus +inf has no sensible value; the evaluator refuses
    u = parse_field("log(abs(z1)) - log(abs(z1))")
    with pytest.raises(DomainError):
        eval_field(u, [0j])


def test_division_field():
    u = parse_field("re(z1) / (1 + abs2(z1))")
    assert eval_field(u, [1 + 0j]) == 0.5


@pytest.mark.parametrize("node, reads", [
    (Const(1.5), frozenset()),
    (Coord(2), frozenset({2})),
    (BallIndicator((0j, 1j, 0j), 0.5), frozenset({0, 1, 2})),
    (BoxIndicator(((0, 1, 0, 1), (0, 1, 0, 1))), frozenset({0, 1})),
    (parse_field("re(z1) + max(abs2(z3), 1)").expr, frozenset({0, 2})),
    (parse_field("-log(2 + 0 * exp(1))").expr, frozenset()),
    (DistanceIndicator(_ORIGIN, 0.1), None),
    (Op("+", (parse_field("re(z1)").expr,
              DistanceIndicator(_ORIGIN, 0.1))), None),
    (BranchCompose(BranchMap("b", ([0.0, 1.0], [0.0])),
                   parse_field("re(z1)").expr), None),
    (decreasing_approximation(parse_field("re(z2)"), 3.0).expr,
     frozenset({1})),
])
def test_read_sets_of_each_node_kind(node, reads):
    # None means every coordinate: the node kinds that do not say, which
    # no dimension refuses.
    assert node.reads == reads
    if node.is_real:
        assert ScalarField(node).reads == reads
    if reads is None:
        ScalarField(node).check_dimension(1)


@pytest.mark.parametrize("text, dim", [("re(z2)", 1), ("abs2(z1) + re(z3)", 2),
                                       ("-indicator(ball(0, 0, 0, 0; 1))", 1)])
def test_check_dimension_names_the_coordinate(text, dim):
    u = parse_field(text)
    with pytest.raises(ValueError, match=f"reads z{max(u.reads) + 1}, but "
                                         f"the points have {dim}"):
        u.check_dimension(dim)
    u.check_dimension(max(u.reads) + 1)


@pytest.mark.parametrize("text", ["-indicator(ball(0, 0, 0, 0; 1))",
                                  "indicator(box(0, 1, 0, 1; 0, 1, 0, 1))"])
def test_indicator_wider_than_the_points_raises(text):
    # A two-coordinate set on one-coordinate points: the ball's centre used
    # to broadcast against the one column (-1.0 without a word) and the box
    # raised IndexError.
    u = parse_field(text)
    with pytest.raises(DomainError, match="2 coordinates beyond ambient "
                                          "dimension 1"):
        eval_field(u, [0.5 + 0.25j])
    assert eval_field(u, [0.5 + 0.25j, 0.5 + 0.25j]) in (-1.0, 1.0)
    assert eval_field(u, [0.5 + 0.25j, 0.5 + 0.25j, 7.0]) in (-1.0, 1.0)


_ANY = (-np.inf, np.inf)
_DIST = DistanceIndicator(_ORIGIN, 0.1)


@pytest.mark.parametrize("node, span", [
    (Const(1.5), (1.5, 1.5)),
    (Coord(0), _ANY),
    (BallIndicator((0j,), 0.5), (0.0, 1.0)),
    (BoxIndicator(((0, 1, 0, 1),)), (0.0, 1.0)),
    (_DIST, (0.0, 1.0)),
    (Op("neg", (_DIST,)), (-1.0, 0.0)),
    (parse_field("re(z1)").expr, _ANY),
    (parse_field("im(z1)").expr, _ANY),
    (parse_field("abs(z1 - 1)").expr, (0.0, np.inf)),
    (parse_field("abs2(z1)").expr, (0.0, np.inf)),
    (parse_field("exp(-2)").expr, (0.0, np.inf)),
    (parse_field("log(2)").expr, _ANY),
    (parse_field("1 / 2").expr, _ANY),
    (parse_field("1 - min(1, 1000000000000 * abs2(z1))").expr, (0.0, 1.0)),
    (parse_field("2 * indicator(ball(0, 0; 1)) - 3").expr, (-3.0, -1.0)),
    (parse_field("-2 * indicator(ball(0, 0; 1))").expr, (-2.0, 0.0)),
    (parse_field("max(-indicator(ball(0, 0; 1)), -0.5, -abs2(z1))").expr,
     (-0.5, 0.0)),
    (parse_field("min(indicator(ball(0, 0; 1)), 3)").expr, (0.0, 1.0)),
    (parse_field("max(indicator(ball(0, 0; 1)), -1)").expr, (0.0, 1.0)),
    # 0 * inf and inf - inf have no value, so those combinations bound
    # nothing.
    (parse_field("0 * exp(re(z1))").expr, _ANY),
    (parse_field("abs2(z1) - abs2(z2)").expr, _ANY),
    (parse_field("1e999 + log(2)").expr, _ANY),
    (BranchCompose(BranchMap("b", ([0.0, 1.0], [0.0])),
                   parse_field("-indicator(ball(0, 0; 1))").expr), (-1.0, 0.0)),
    (decreasing_approximation(parse_field("re(z2)"), 3.0).expr, (-3.0, np.inf)),
])
def test_value_ranges_of_each_node_kind(node, span):
    assert node.value_range == span
    if node.is_real:
        assert ScalarField(node).floor == span[0]


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_ball_indicator_keeps_the_summed_squares_bits(width):
    # The ball adds |p_j - c_j|^2 one coordinate at a time: its values are
    # those of the summed expression at every point, including +-inf, NaN
    # and components whose squares overflow near 1e154, and at radii equal
    # to the points' own distances.
    rng = np.random.default_rng(31 + width)
    special = [np.inf, -np.inf, np.nan, 1e154, -1.3e154, 1.5e154, 0.0, -0.0]
    re = np.concatenate([rng.normal(size=(200, width)),
                         rng.choice(special, (200, width))])
    im = np.concatenate([rng.choice(special, (200, width)),
                         rng.normal(size=(200, width))])
    pts = np.empty((400, width), dtype=complex)
    pts.real, pts.imag = re, im
    pts[::7] = rng.normal(size=(len(pts[::7]), width)) * 0.3 + 0.1j
    c = (0.1 - 0.2j, -0.3 + 0.05j, 0.7j, -1.1)[:width]
    with np.errstate(over="ignore", invalid="ignore"):
        summed = np.sum(np.abs(pts - np.array(c)) ** 2, axis=1)
    finite = np.sqrt(summed[np.isfinite(summed) & (summed > 0)])
    for r in np.concatenate([[1e-3, 0.5, 2.0, 1e154], finite[:20]]):
        ball = BallIndicator(c, float(r))
        with np.errstate(over="ignore"):
            want = (summed < float(r) * float(r)).astype(float)
        assert np.array_equal(ball.ev(pts), want)
