import math

import numpy as np
import pytest

from pshenv.errors import NotApplicable, PointNotOnSpace
from pshenv.space import (
    BranchMap,
    DomainConstraint,
    contains,
    curve_space,
    euclidean_space,
    is_regular,
    lift_point,
    polydisc,
)


def two_axes_space():
    # zeros of z*w in C^2, as two linear branches through the origin
    z_axis = BranchMap("zaxis", (np.array([0, 1], complex), np.array([0], complex)))
    w_axis = BranchMap("waxis", (np.array([0], complex), np.array([0, 1], complex)))
    return curve_space((w_axis, z_axis))


def cusp_space():
    # t -> (t^3, t^2)
    cusp = BranchMap(
        "cusp", (np.array([0, 0, 0, 1], complex), np.array([0, 0, 1], complex))
    )
    return curve_space((cusp,))


def test_contains_euclidean():
    X = euclidean_space(2)
    assert contains(X, np.array([1.0, 2.0]))


def test_contains_two_axes():
    X = two_axes_space()
    assert not contains(X, np.array([1.0, 1.0]))
    assert contains(X, np.array([1.0, 0.0]))
    assert contains(X, np.array([0.0, 1.0 + 2.0j]))
    assert contains(X, np.array([0.0, 0.0]))


def test_contains_cusp():
    X = cusp_space()
    assert contains(X, np.array([1.0, 1.0]))  # t = 1
    assert contains(X, np.array([-1.0, 1.0]))  # t = -1
    assert not contains(X, np.array([1.0, -1.0]))


def test_lift_point_two_axes():
    X = two_axes_space()
    lifts = lift_point(X, np.array([3.0, 0.0]))
    assert lifts == [("zaxis", pytest.approx(3.0))]
    lifts0 = lift_point(X, np.array([0.0, 0.0]))
    assert sorted(lb for lb, _ in lifts0) == ["waxis", "zaxis"]
    for _, t in lifts0:
        assert t == 0


def test_lift_point_cusp():
    X = cusp_space()
    lifts = lift_point(X, np.array([-1.0, 1.0]))
    assert len(lifts) == 1
    label, t = lifts[0]
    assert label == "cusp"
    assert t == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("e", range(2, 8))
def test_cusp_points_near_the_cusp_have_one_lift(e):
    # The sibling parameters t*exp(+-2 pi i/3) solve z = t^3 exactly and
    # miss w = t^2 by about 1.7 t^2, far beyond rounding but within the
    # absolute lift tolerance once t <= 1e-5.
    X = cusp_space()
    t = 10.0 ** -e
    p = X.branch("cusp").eval(t)
    assert lift_point(X, p) == [("cusp", pytest.approx(t, rel=1e-12))]
    assert is_regular(X, p)


def test_points_off_the_curve_within_tol_keep_their_best_lift():
    # Off the cusp by 1e-12, far beyond rounding but within the lift
    # tolerance: the point is on the curve, and its lift is the parameter
    # that misses it least, also next to the cusp.
    X = cusp_space()
    branch = X.branch("cusp")
    for t in (0.5, 1e-5):
        p = branch.eval(t) + np.array([0.0, 1e-12])
        assert contains(X, p)
        assert lift_point(X, p) == [("cusp", pytest.approx(t, rel=1e-9))]


def test_lift_point_errors():
    with pytest.raises(NotApplicable):
        lift_point(euclidean_space(2), np.array([0.0, 0.0]))
    with pytest.raises(PointNotOnSpace):
        lift_point(two_axes_space(), np.array([1.0, 1.0]))


def test_lift_point_roundtrip():
    # lifting a branch value recovers the parameter to float precision
    X = cusp_space()
    branch = X.branch("cusp")
    rng = np.random.default_rng(0)
    for _ in range(25):
        t = rng.normal() + 1j * rng.normal()
        p = branch.eval(t)
        lifts = lift_point(X, p)
        assert any(abs(s - t) < 1e-10 * max(1.0, abs(t)) for _, s in lifts)


def test_lift_point_dyadic_exact():
    # dyadic parameters evaluate exactly, and the polish hands them back
    X = cusp_space()
    branch = X.branch("cusp")
    for t in (0.5, -0.75, 0.0625, -1.0):
        ((_, s),) = lift_point(X, branch.eval(t))
        assert s == t


def nodal_cubic_space():
    # t -> (t^2 - 1, t^3 - t): one branch crossing itself at the origin
    return curve_space((BranchMap("node", ([-1, 0, 1], [0, -1, 0, 1])),))


def tangency_space():
    # the parabola (t, t^2) and its tangent line (t, 6t - 9) at (3, 9)
    parabola = BranchMap("parabola", ([0, 1], [0, 0, 1]))
    tangent = BranchMap("tangent", ([0, 1], [-9, 6]))
    return curve_space((parabola, tangent))


@pytest.mark.parametrize(
    "space, p",
    [
        (two_axes_space(), [0.0, 0.0]),
        (cusp_space(), [0.0, 0.0]),
        (nodal_cubic_space(), [0.0, 0.0]),
        (tangency_space(), [3.0, 9.0]),
    ],
    ids=["two-axes-origin", "cusp-origin", "nodal-cubic-node", "tangency"],
)
def test_is_regular_rejects_singular_points(space, p):
    assert not is_regular(space, np.array(p, complex))


def test_is_regular_accepts_smooth_points():
    # 1e-8 up the w-axis is off the z-axis by more than the lift tolerance
    assert is_regular(two_axes_space(), np.array([0.0, 1e-8]))
    assert is_regular(cusp_space(), np.array([1.0, 1.0]))  # t = 1
    with pytest.raises(NotApplicable):
        is_regular(euclidean_space(1), np.array([0.0]))


def germ_space(p, q):
    """w^p = z^q as its g = gcd(p, q) germs z = t^(p/g), w = e^(2 pi i j/p) t^(q/g)."""
    g = math.gcd(p, q)
    a, b = p // g, q // g
    z = np.eye(a + 1, dtype=complex)[a]  # t^a
    w = np.eye(b + 1, dtype=complex)[b]  # t^b
    return curve_space(
        BranchMap(f"germ{j}", (z, np.exp(2j * np.pi * j / p) * w)) for j in range(g)
    )


@pytest.mark.parametrize("q", range(1, 6))
@pytest.mark.parametrize("p", range(1, 6))
def test_germ_count_and_regularity_of_w_p_equals_z_q(p, q):
    X = germ_space(p, q)
    origin = np.zeros(2, complex)
    assert len(lift_point(X, origin)) == math.gcd(p, q)
    assert is_regular(X, origin) == (p == 1 or q == 1)
    off = X.branches[0].eval(0.6 + 0.3j)
    assert len(lift_point(X, off)) == 1
    assert is_regular(X, off)


def test_branch_map_rejects_constant():
    with pytest.raises(ValueError):
        BranchMap("flat", (np.array([1.0], complex), np.array([2.0], complex)))


def test_branch_map_eval_shape():
    b = BranchMap("cusp", (np.array([0, 0, 0, 1], complex), np.array([0, 0, 1], complex)))
    assert b.ambient_dim == 2
    assert b.degree == 3
    p = b.eval(0.5)
    assert p.shape == (2,)
    assert p[0] == 0.125 and p[1] == 0.25
    ts = np.array([0.5, 2.0])
    vals = b.eval(ts)
    assert vals.shape == (2, 2)
    assert np.allclose(vals[1], [8.0, 4.0])


def test_domain_constraint():
    win = DomainConstraint(center=np.array([0j]), radii=np.array([1.0]))
    assert win.satisfied(np.array([[0.5 + 0.5j]])).all()
    assert not win.satisfied(np.array([[1.5 + 0j]])).any()
    # slack loosens the wall
    assert win.satisfied(np.array([[1.0 + 1e-12j]]), slack=1e-9).all()


def test_windowed_space():
    X = euclidean_space(1, radii=2.0)
    assert X.domain_constraint is not None
    assert contains(X, np.array([1.0 + 0j]))
    assert not contains(X, np.array([3.0 + 0j]))


def test_polydisc_window():
    # One radius serves every coordinate, the center defaults to the origin,
    # and any other radius count is refused by name.
    win = polydisc(2, 0.5)
    assert np.array_equal(win.radii, [0.5, 0.5])
    assert np.array_equal(win.center, [0j, 0j])
    win = polydisc(2, [1.0, 2.0], [1j, 0])
    assert np.array_equal(win.radii, [1.0, 2.0])
    assert np.array_equal(win.center, [1j, 0j])
    with pytest.raises(ValueError, match="radius"):
        polydisc(2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="radius"):
        euclidean_space(3, radii=[1.0, 2.0])


def test_branch_lookup():
    X = two_axes_space()
    assert X.branch("zaxis").label == "zaxis"
    with pytest.raises(KeyError):
        X.branch("nope")
