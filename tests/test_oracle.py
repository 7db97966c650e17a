import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshenv.errors import NotConverged
from pshenv.functional import parse_field
from pshenv.oracle import (
    GridDomain,
    field_on_grid,
    grid_domain,
    interp_bilinear,
    radial_envelope,
    subharmonic_minorant,
)

# NaN arithmetic in the relaxation (inf - inf, 0 * inf) fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def closed_form_dip(r):
    # largest subharmonic minorant of -1_{|z|<1/4} on the unit disc
    return np.maximum(-1.0, np.log(np.maximum(r, 1e-300)) / np.log(4.0))


def test_grid_domain_validation():
    with pytest.raises(ValueError):
        grid_domain(17)
    with pytest.raises(ValueError):
        grid_domain(33, mask="hexagon")
    with pytest.raises(ValueError):
        grid_domain(33, mask="annulus", inner=0.0)
    for mask in ("rect", "disc"):
        with pytest.raises(ValueError, match="inner"):
            grid_domain(33, mask=mask, inner=0.3)
    dom = grid_domain(33, mask="disc")
    assert dom.mask.sum() < 33 * 33
    assert dom.interior().sum() < dom.mask.sum()


def test_field_on_grid_masks_inactive_nodes():
    dom = grid_domain(33, mask="disc")
    g = field_on_grid(parse_field("re(z1)"), dom)
    assert np.isnan(g[0, 0])  # the rect corner is off the disc
    center = 16
    assert g[center, center] == 0.0


def test_harmonic_obstacle_is_fixpoint():
    dom = grid_domain(65)
    u = field_on_grid(parse_field("re(z1)"), dom)
    v = subharmonic_minorant(u, dom)
    assert np.nanmax(np.abs(v - u)) < 1e-12


def test_subharmonic_obstacle_unchanged():
    dom = grid_domain(65, mask="disc")
    u = field_on_grid(parse_field("abs2(z1)"), dom)
    v = subharmonic_minorant(u, dom)
    m = dom.mask
    assert np.max(np.abs(v[m] - u[m])) < 1e-12


def test_indicator_obstacle_matches_closed_form():
    dom = grid_domain(129, mask="disc")
    u = field_on_grid(parse_field("-indicator(ball(0, 0; 0.25))"), dom)
    v = subharmonic_minorant(u, dom)
    for r in np.linspace(0.3, 0.9, 13):
        got = interp_bilinear(dom, v, complex(r, 0.0))
        assert abs(got - closed_form_dip(r)) < 0.04
    spot = interp_bilinear(dom, v, 0.5 + 0.0j)
    assert abs(spot - (-0.5)) < 0.05


def test_minorant_constraints_and_maximality():
    tol = 1e-10
    dom = grid_domain(65, mask="disc")
    u = field_on_grid(parse_field("-indicator(ball(0, 0; 0.25))"), dom)
    v = subharmonic_minorant(u, dom, tol=tol)
    iy, ix = np.nonzero(dom.interior())
    avg = 0.25 * (v[iy - 1, ix] + v[iy + 1, ix] + v[iy, ix - 1] + v[iy, ix + 1])
    assert np.all(v[iy, ix] <= u[iy, ix] + 1e-12)
    assert np.all(v[iy, ix] <= avg + 10 * tol)
    # raising any node by 2 tol breaks obstacle or submean
    rng = np.random.default_rng(4)
    for idx in rng.integers(0, iy.size, size=100):
        bumped = v[iy[idx], ix[idx]] + 2 * tol
        assert bumped > u[iy[idx], ix[idx]] or bumped > avg[idx]


@pytest.mark.parametrize("n", [65, 129])
def test_default_tol_lands_near_the_fixed_point(n):
    # tol bounds the last Gauss-Seidel step, not the distance to the
    # discrete fixed point; the solve must still land within 10 tol of it.
    tol = 1e-10
    dom = grid_domain(n, mask="disc")
    u = field_on_grid(parse_field("-indicator(ball(0, 0; 0.25))"), dom)
    v = subharmonic_minorant(u, dom, tol=tol)
    fixed = subharmonic_minorant(u, dom, tol=1e-13)
    m = dom.mask
    assert np.max(np.abs(v[m] - fixed[m])) <= 10 * tol


_coef = st.integers(-8, 8).map(lambda k: k / 4)
_centre = st.integers(-4, 4).map(lambda k: k / 8)
_term = st.one_of(
    _coef.map(lambda c: f"{c} * re(z1)"),
    _coef.map(lambda c: f"{c} * abs2(z1)"),
    st.builds(lambda c, x, y, r: f"{c} * indicator(ball({x}, {y}; {r}))",
              _coef, _centre, _centre, st.sampled_from([0.15, 0.25, 0.4])),
)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(terms=st.lists(_term, min_size=1, max_size=4),
       mask=st.sampled_from(["rect", "disc", "annulus"]),
       n=st.sampled_from([33, 49, 65]))
def test_minorant_post_conditions_on_generated_obstacles(terms, mask, n):
    tol = 1e-10
    dom = grid_domain(n, mask=mask, inner=0.3 if mask == "annulus" else 0.0)
    u = field_on_grid(parse_field(" + ".join(terms)), dom)
    v = subharmonic_minorant(u, dom, tol=tol)  # NotConverged fails the test
    m = dom.mask
    assert np.all(v[m] <= u[m])
    iy, ix = np.nonzero(dom.interior())
    avg = 0.25 * (v[iy - 1, ix] + v[iy + 1, ix] + v[iy, ix - 1] + v[iy, ix + 1])
    assert np.all(v[iy, ix] <= avg + 10 * tol)
    # raising any node by 2 tol breaks obstacle or submean
    bumped = v[iy, ix] + 2 * tol
    assert np.all((bumped > u[iy, ix]) | (bumped > avg))


def test_minorant_not_converged_attaches_iterate():
    dom = grid_domain(65, mask="disc")
    u = field_on_grid(parse_field("-indicator(ball(0, 0; 0.25))"), dom)
    with pytest.raises(NotConverged) as info:
        subharmonic_minorant(u, dom, tol=1e-10, max_iters=3)
    assert info.value.iterate is not None
    assert info.value.iterate.shape == u.shape


def reference_minorant(u_grid, domain, tol=1e-10, max_iters=10 ** 6):
    # The same red/black projected SOR on 2-D fancy indices rebuilt every
    # sweep: the flat-index routine must reproduce its iterates bit for bit.
    omega = 2.0 / (1.0 + np.sin(np.pi / (domain.n - 1)))
    interior = domain.interior()
    iy, ix = np.nonzero(interior)
    red = ((iy + ix) % 2 == 0)
    groups = [(iy[red], ix[red]), (iy[~red], ix[~red])]
    v = np.array(u_grid, dtype=float)
    v[~domain.mask] = np.nan
    for it in range(1, max_iters + 1):
        delta = 0.0
        for gy, gx in groups:
            old = v[gy, gx]
            avg = 0.25 * (v[gy - 1, gx] + v[gy + 1, gx]
                          + v[gy, gx - 1] + v[gy, gx + 1])
            gs = np.minimum(u_grid[gy, gx], avg)
            step = np.max(np.abs(gs - old)) if gy.size else 0.0
            delta = max(delta, float(step))
            sor = np.minimum(u_grid[gy, gx], old + omega * (avg - old))
            v[gy, gx] = np.where(np.isnan(sor), gs, sor)
        if delta < tol:
            return v
    raise NotConverged("reference did not converge", iterate=v)


REFERENCE_OBSTACLES = (
    "-indicator(ball(0, 0; 0.25))",
    "re(z1)",
    "abs2(z1)",
    "min(4 * (abs(z1) - 0.3), 1)",
)


@pytest.mark.parametrize("expr", REFERENCE_OBSTACLES)
@pytest.mark.parametrize("mask", ["rect", "disc", "annulus"])
def test_relaxation_matches_reference_bit_for_bit(mask, expr):
    dom = grid_domain(33, mask=mask, inner=0.2 if mask == "annulus" else 0.0)
    u = field_on_grid(parse_field(expr), dom)
    got = subharmonic_minorant(u, dom)
    assert np.array_equal(got, reference_minorant(u, dom), equal_nan=True)


@pytest.mark.parametrize("max_iters", [3, 50])
def test_not_converged_iterate_matches_reference(max_iters):
    dom = grid_domain(65, mask="disc")
    u = field_on_grid(parse_field("-indicator(ball(0, 0; 0.25))"), dom)
    with pytest.raises(NotConverged) as got:
        subharmonic_minorant(u, dom, max_iters=max_iters)
    with pytest.raises(NotConverged) as want:
        reference_minorant(u, dom, max_iters=max_iters)
    assert np.array_equal(got.value.iterate, want.value.iterate, equal_nan=True)


def test_minus_infinity_obstacle_keeps_the_stop_test_honest():
    # log|z|^2 is -inf at the centre node.  A node that stays -inf must
    # count as a zero step, not hide the rest of its colour behind a NaN
    # (and inf - inf must not warn: pytestmark makes that an error).
    dom = grid_domain(65, mask="disc")
    u = field_on_grid(parse_field("log(abs2(z1))"), dom)
    assert np.isneginf(u).sum() == 1
    v = subharmonic_minorant(u, dom)
    iy, ix = np.nonzero(dom.interior())
    avg = 0.25 * (v[iy - 1, ix] + v[iy + 1, ix] + v[iy, ix - 1] + v[iy, ix + 1])
    assert np.all(v[iy, ix] <= avg)
    assert np.all(v[iy, ix] <= u[iy, ix])


@pytest.mark.parametrize("setting, kwargs", [
    ("tol", {"tol": float("nan")}),
    ("tol", {"tol": float("inf")}),
    ("tol", {"tol": -1.0}),
    ("tol", {"tol": 0.0}),
    ("max_iters", {"max_iters": 0}),
    ("max_iters", {"max_iters": -5}),
])
def test_bad_relaxation_settings_are_rejected(setting, kwargs):
    dom = grid_domain(33, mask="disc")
    u = field_on_grid(parse_field("abs2(z1)"), dom)
    with pytest.raises(ValueError, match=setting):
        subharmonic_minorant(u, dom, **kwargs)


def two_blocks(shift):
    # a 10x10 block in the top-left corner and a second one below it,
    # moved right by `shift` columns
    mask = np.zeros((33, 33), dtype=bool)
    mask[0:10, 0:10] = True
    mask[10:20, shift:shift + 10] = True
    x = np.linspace(-1.0, 1.0, 33)
    return x, mask


def test_blocks_touching_at_a_corner_are_not_connected():
    x, mask = two_blocks(10)
    with pytest.raises(ValueError, match="4-connected"):
        GridDomain(x, x, x[1] - x[0], mask)


def test_blocks_sharing_an_edge_are_connected():
    x, mask = two_blocks(5)
    dom = GridDomain(x, x, x[1] - x[0], mask)
    assert dom.mask.sum() == 200


def bfs_connected(mask):
    total = int(mask.sum())
    if total == 0:
        return False
    seen = np.zeros_like(mask)
    stack = [tuple(np.argwhere(mask)[0])]
    seen[stack[0]] = True
    n = mask.shape[0]
    while stack:
        i, j = stack.pop()
        for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if 0 <= a < n and 0 <= b < n and mask[a, b] and not seen[a, b]:
                seen[a, b] = True
                stack.append((a, b))
    return int(seen.sum()) == total


def test_connectivity_check_agrees_with_breadth_first_search():
    rng = np.random.default_rng(12)
    x = np.linspace(-1.0, 1.0, 33)
    answers = set()
    for density in (0.0, 0.55, 0.6, 0.65, 0.7, 0.95, 1.0):
        for _ in range(6):
            mask = rng.random((33, 33)) < density
            want = bfs_connected(mask)
            answers.add(want)
            if want:
                GridDomain(x, x, x[1] - x[0], mask)
            else:
                with pytest.raises(ValueError, match="4-connected"):
                    GridDomain(x, x, x[1] - x[0], mask)
    assert answers == {True, False}


def test_interp_bilinear_errors():
    dom = grid_domain(33, mask="disc")
    g = field_on_grid(parse_field("0"), dom)
    with pytest.raises(ValueError):
        interp_bilinear(dom, g, 2.0 + 0j)  # off the rectangle
    with pytest.raises(ValueError):
        interp_bilinear(dom, g, 0.95 + 0.3j)  # touches masked nodes


def test_interp_bilinear_takes_the_last_row_and_column():
    # The last row and column are nodes: points on them read their node
    # values, while a point past the edge is still refused.
    dom = grid_domain(33)
    g = field_on_grid(parse_field("re(z1) + 2 * im(z1)"), dom)
    assert interp_bilinear(dom, g, 1 + 0j) == g[16, 32]
    assert interp_bilinear(dom, g, 0.5 + 1j) == g[32, 24]
    assert interp_bilinear(dom, g, 1 + 1j) == g[32, 32]
    with pytest.raises(ValueError, match="outside"):
        interp_bilinear(dom, g, 1 + 1e-9 + 0j)
    # Inactive nodes are looked for on the cell the interpolation uses,
    # which on the last row and column is the last cell.
    g[31, 31] = np.nan
    with pytest.raises(ValueError, match="inactive"):
        interp_bilinear(dom, g, 1 + 1j)


def test_radial_envelope_identity():
    t = np.linspace(-3.0, 1.0, 41)
    env = radial_envelope(t, t)
    assert np.max(np.abs(env.value(t) - t)) < 1e-12
    assert env.value(-10.0) == -3.0  # flat left extension
    assert env.value(3.0) == pytest.approx(3.0, abs=1e-12)  # last-slope right


def test_radial_envelope_liouville_limit():
    # min(e^{2t} - 1, 0): on a wide log-radius range the minorant hugs -1
    t = np.linspace(-200.0, 200.0, 4001)
    env = radial_envelope(t, np.minimum(np.exp(2 * t) - 1.0, 0.0))
    assert env.value(0.0) < -0.97
    assert env.value(-50.0) < -0.99

    # independent check: pointwise sup of nonneg-slope lines under the samples
    def line_support(tstar, slopes):
        y = np.minimum(np.exp(2 * t) - 1.0, 0.0)
        return max(np.min(y - s * (t - tstar)) for s in slopes)

    slopes = np.linspace(0.0, 0.1, 2001)
    for tstar in (-50.0, -5.0, 0.0, 20.0):
        assert env.value(tstar) == pytest.approx(
            line_support(tstar, slopes), abs=1e-3
        )


def test_radial_envelope_parabola_flattens_left():
    t = np.linspace(-2.0, 2.0, 81)
    env = radial_envelope(t, t * t)
    assert env.value(-1.0) == 0.0
    assert env.value(0.0) == 0.0
    assert env.value(1.0) == pytest.approx(1.0, abs=0.01)
    assert env.value(2.0) == pytest.approx(4.0, abs=1e-12)


def test_radial_envelope_shape_invariants():
    rng = np.random.default_rng(9)
    t = np.sort(rng.uniform(-2, 2, size=60))
    t = np.unique(t)
    y = np.sin(3 * t) + 0.5 * t
    env = radial_envelope(t, y)
    slopes = np.diff(env.knots_y) / np.diff(env.knots_t)
    assert np.all(np.diff(slopes) >= -1e-12)  # convex
    assert np.all(slopes >= -1e-12)  # nondecreasing
    assert np.all(env.value(t) <= y + 1e-12)  # minorant


def test_radial_envelope_validation():
    with pytest.raises(ValueError):
        radial_envelope([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        radial_envelope([0.0, 1.0], [np.inf, 0.0])


def test_cross_oracle_agreement_on_annulus():
    # radial nondecreasing obstacle: the grid fixpoint and the log-radius
    # hull compute the same minorant up to grid resolution
    dom = grid_domain(129, mask="annulus", inner=0.2)
    u = field_on_grid(parse_field("min(4 * (abs(z1) - 0.3), 1)"), dom)
    v = subharmonic_minorant(u, dom)
    t = np.linspace(np.log(0.2), 0.0, 400)
    env = radial_envelope(t, np.minimum(4 * (np.exp(t) - 0.3), 1.0))
    for r in np.linspace(0.25, 0.95, 15):
        grid_val = interp_bilinear(dom, v, complex(r, 0.0))
        assert abs(grid_val - env.value(np.log(r))) < 0.03


def _bilinear_formula(domain, grid, z):
    # The interpolation formula with every node weighted, zero weights too.
    fx = (z.real - domain.x[0]) / domain.h
    fy = (z.imag - domain.y[0]) / domain.h
    jx, jy = int(np.floor(fx)), int(np.floor(fy))
    ax, ay = fx - jx, fy - jy
    p = grid[jy : jy + 2, jx : jx + 2]
    return float((1 - ay) * ((1 - ax) * p[0, 0] + ax * p[0, 1])
                 + ay * ((1 - ax) * p[1, 0] + ax * p[1, 1]))


def test_interp_bilinear_leaves_out_zero_weight_nodes():
    # The minorant of log(abs2(z1)) is -inf on the whole interior of the
    # 33-disc.  At 0.5 (a node) or on a grid line the -inf neighbours of
    # weight 0 are left out instead of giving 0 * -inf = NaN.
    dom = grid_domain(33, mask="disc")
    v = subharmonic_minorant(field_on_grid(parse_field("log(abs2(z1))"), dom),
                             dom)
    for z in (0.5 + 0j, 0.5 + 0.01j, 0.51 + 0j, 0.51 + 0.01j):
        assert interp_bilinear(dom, v, z) == -np.inf
    # A finite node next to a -inf one: on the node, its own value.
    g = field_on_grid(parse_field("re(z1) + 2 * im(z1)"), dom)
    g[16, 25] = -np.inf
    assert interp_bilinear(dom, g, 0.5 + 0j) == g[16, 24]
    assert interp_bilinear(dom, g, 0.53 + 0j) == -np.inf
    # Finite grids: the same bits as the formula, on grid lines too.
    g = field_on_grid(parse_field("re(z1) * im(z1) - abs2(z1)"), dom)
    for z in (0.5 + 0j, 0.5 + 0.13j, 0.13 + 0.25j, -0.3 - 0.41j, 0j):
        assert interp_bilinear(dom, g, z) == _bilinear_formula(dom, g, z)
