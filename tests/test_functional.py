import numpy as np
import pytest

from pshenv.disc import AnalyticDisc, constant_disc
from pshenv.errors import DomainError
from pshenv.functional import (
    QuadratureSpec,
    arc_functional,
    boundary_means,
    decreasing_approximation,
    eval_field,
    parse_field,
    poisson_functional,
    pushforward_field,
)
from pshenv.space import BranchMap


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

    with pytest.raises(ValueError):
        decreasing_approximation(u, -1)


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
    clipped = poisson_functional(u, f, QuadratureSpec(M=64, clip=-40.0))
    assert np.isfinite(clipped)


def test_boundary_means_rows_and_minus_infinity():
    inf = np.inf
    samples = np.array([
        [1.0, 2.0, 3.0, 6.0],
        [1.0, -inf, 3.0, 6.0],
        [inf, -inf, 3.0, 6.0],  # sums to NaN; a -inf sample decides the row
        [inf, 2.0, 3.0, 6.0],
    ])
    means, clipped = boundary_means(samples)
    assert means.tolist() == [3.0, -inf, -inf, inf]
    assert clipped is samples
    means, clipped = boundary_means(samples, clip=0.0)
    assert means.tolist() == [3.0, 2.5, inf, inf]
    assert clipped[1, 1] == 0.0
    stacked, _ = boundary_means(samples)
    for i in range(4):
        assert boundary_means(samples[i : i + 1])[0][0] == stacked[i]


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
