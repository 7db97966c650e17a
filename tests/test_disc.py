import numpy as np
import pytest

from pshenv.disc import (
    AnalyticDisc,
    BoundaryFamily,
    LaurentFamily,
    boundary_from_coeffs,
    choose_phase,
    compose_rh,
    constant_disc,
    disc_from_json,
    disc_to_json,
    fit_laurent,
    stacked_boundaries,
)
from pshenv.errors import DegreeOverflow, IllConditioned
from pshenv.functional import QuadratureSpec, arc_functional, parse_field
from pshenv.space import BranchMap, curve_space


def cusp_branch():
    return BranchMap(
        "cusp", (np.array([0, 0, 0, 1], complex), np.array([0, 0, 1], complex))
    )


def family_angles(B):
    return 2 * np.pi * np.arange(B) / B


def test_eval_constant_disc():
    x = np.array([1.5 - 2j, 0.25 + 0j])
    f = constant_disc(x)
    for zeta in (0j, 0.3 + 0.4j, 1.0 + 0j):
        assert np.array_equal(f.eval(np.asarray(zeta)), x)
    assert f.degree == 0


def test_eval_identity_disc():
    f = AnalyticDisc(np.array([[0j], [1 + 0j]]))
    assert f.eval(np.asarray(1j))[0] == 1j
    assert f.eval(np.asarray(0.5 + 0j))[0] == 0.5


def test_eval_branch_disc():
    f = AnalyticDisc(np.array([[0j], [1 + 0j]]), cusp_branch())
    p = f.ambient(np.asarray(0.5 + 0j))
    assert p[0] == 0.125 and p[1] == 0.25
    assert f.ambient_dim == 2 and f.width == 1
    assert np.array_equal(f.center(), np.array([0j, 0j]))


def test_disc_validation():
    with pytest.raises(ValueError):
        AnalyticDisc(np.array([[np.inf + 0j]]))
    with pytest.raises(ValueError):
        AnalyticDisc(np.zeros((2, 3), complex), cusp_branch())
    # trailing zero rows are trimmed
    f = AnalyticDisc(np.array([[1 + 0j], [2 + 0j], [0j]]))
    assert f.degree == 1


def test_boundary_values_match_eval():
    f = AnalyticDisc(np.array([[0.1 + 0j, 0j], [0.5 + 0.2j, 1 + 0j]]))
    M = 32
    nodes = np.exp(2j * np.pi * np.arange(M) / M)
    assert np.allclose(f.boundary_values(M), f.eval(nodes), atol=1e-15)


def test_stacked_boundaries_match_one_by_one():
    # Bit for bit, including the last ulp: the envelope search scores its
    # trials on these values, and poisson_functional recomputes the stored
    # values from boundary_from_coeffs'.
    rng = np.random.default_rng(4)
    for width in (1, 2):
        for degree in (1, 8, 33, 128):
            for M in (16, 128, 512):
                c = (rng.normal(size=(8, degree + 1, width))
                     + 1j * rng.normal(size=(8, degree + 1, width)))
                c *= 10.0 ** rng.uniform(-3, 6)
                out = np.empty((width, 8, M), dtype=complex).transpose(1, 2, 0)
                got = stacked_boundaries(c, M, out)
                for k in range(8):
                    assert np.array_equal(got[k], boundary_from_coeffs(c[k], M))


def test_boundary_family_center_check():
    f = AnalyticDisc(np.array([[0j], [1 + 0j]]))
    ang = family_angles(8)
    ring = f.eval(np.exp(1j * ang))[:, 0]
    good = tuple(constant_disc([ring[j]]) for j in range(8))
    BoundaryFamily(f, ang, good)
    bad = good[:7] + (constant_disc([ring[7] + 0.1]),)
    with pytest.raises(ValueError):
        BoundaryFamily(f, ang, bad)


def make_family(f, B, z_rows):
    """Children g_j(z) = f(e^{i t_j}) + sum_r z_rows[r](t_j) * z^{r+1}."""
    ang = family_angles(B)
    ring = f.eval(np.exp(1j * ang))
    kids = []
    for j in range(B):
        rows = [ring[j]]
        for fn in z_rows:
            rows.append(np.atleast_1d(np.asarray(fn(ang[j]), complex)))
        kids.append(AnalyticDisc(np.stack(rows)))
    return BoundaryFamily(f, ang, tuple(kids))


def test_fit_constant_vector():
    f = AnalyticDisc(np.array([[0.2 + 0j, 0j], [1 + 0j, 0.3 + 0j]]))
    w = np.array([0.4 - 0.1j, 0.7 + 0j])
    fam = make_family(f, 16, [lambda t: w])
    lam, resid = fit_laurent(fam, 0, 1, 0)
    assert resid < 1e-13
    assert np.allclose(lam.coeffs[0, 0], w, atol=1e-13)


def test_fit_antiholomorphic_needs_pole():
    # conj(zeta) on the circle equals 1/zeta, so m=1 with A_1 == 1 nails it
    f = AnalyticDisc(np.array([[0j], [1 + 0j]]))
    fam = make_family(f, 16, [lambda t: np.exp(-1j * t)])
    lam, resid = fit_laurent(fam, 1, 1, 0)
    assert resid < 1e-13
    assert abs(lam.coeffs[0, 0, 0] - 1.0) < 1e-13


def test_fit_pure_quadratic():
    f = AnalyticDisc(np.array([[0.1 + 0j], [0.8 + 0j]]))
    v = np.array([0.33 + 0.21j])
    fam = make_family(f, 16, [lambda t: [0.0], lambda t: v])
    lam, resid = fit_laurent(fam, 0, 2, 0)
    assert resid < 1e-13
    assert abs(lam.coeffs[0, 0, 0]) < 1e-13
    assert np.allclose(lam.coeffs[1, 0], v, atol=1e-13)


def test_fit_ill_conditioned():
    # 8 zeta-coefficients per term but only 4 distinct angles: rank-deficient
    f = AnalyticDisc(np.array([[0j], [1 + 0j]]))
    fam = make_family(f, 4, [lambda t: [0.1]])
    with pytest.raises(IllConditioned):
        fit_laurent(fam, 0, 1, 7)


def test_compose_zero_correction():
    f = AnalyticDisc(np.array([[0.3 + 0j], [0.5 - 0.2j], [0.1 + 0j]]))
    lam = LaurentFamily(0, np.zeros((1, 1, 1), complex))
    h = compose_rh(f, lam, 3, 1.0)
    assert np.array_equal(h.coeffs, f.coeffs)


def test_compose_linear_example():
    x = np.array([0.7 - 0.1j])
    w = np.array([0.2 + 0.5j])
    f = constant_disc(x)
    lam = LaurentFamily(0, w[None, None, :])
    h = compose_rh(f, lam, 1, 1.0)
    assert h.degree == 1
    assert h.coeffs[0, 0] == x[0]
    assert h.coeffs[1, 0] == w[0]


def test_compose_center_preserved_random():
    # the correction only touches rows k*j - m >= k - m >= 1
    rng = np.random.default_rng(12)
    for trial in range(1000):
        width = int(rng.integers(1, 3))
        deg_f = int(rng.integers(0, 5))
        fc = rng.normal(size=(deg_f + 1, width)) + 1j * rng.normal(
            size=(deg_f + 1, width)
        )
        f = AnalyticDisc(fc)
        m = int(rng.integers(0, 3))
        n_terms = int(rng.integers(1, 4))
        deg_a = int(rng.integers(0, 5))
        lc = rng.normal(size=(n_terms, deg_a + 1, width)) + 1j * rng.normal(
            size=(n_terms, deg_a + 1, width)
        )
        lam = LaurentFamily(m, lc)
        k = int(rng.integers(m + 1, 9))
        c = np.exp(2j * np.pi * rng.random())
        h = compose_rh(f, lam, k, c)
        assert np.array_equal(h.coeffs[0], f.coeffs[0])


def test_compose_validation():
    f = constant_disc(np.array([0j]))
    lam = LaurentFamily(2, np.zeros((1, 3, 1), complex))
    with pytest.raises(ValueError):
        compose_rh(f, lam, 2, 1.0)  # k must exceed the pole order
    with pytest.raises(ValueError):
        compose_rh(f, lam, 3, 2.0)  # phase must be unimodular
    big = LaurentFamily(0, np.ones((3, 5, 1), complex))
    with pytest.raises(DegreeOverflow):
        compose_rh(f, big, 30, 1.0, degree_cap=64)


def test_choose_phase_constant_field():
    f = constant_disc(np.array([0j]))
    lam = LaurentFamily(0, np.ones((1, 1, 1), complex))
    u = parse_field("2")
    q = QuadratureSpec(M=64)
    c, val = choose_phase(f, lam, 1, u, [(0.0, 2 * np.pi)], 16, q)
    assert c == np.exp(0j)  # ties keep the first phase
    assert val == pytest.approx(2.0, abs=1e-15)


def test_choose_phase_rotation_invariant_zero():
    # h(zeta) = c zeta, and the circle mean of Re(c e^{it}) vanishes per phase
    f = constant_disc(np.array([0j]))
    lam = LaurentFamily(0, np.ones((1, 1, 1), complex))
    u = parse_field("re(z1)")
    q = QuadratureSpec(M=256)
    c, val = choose_phase(f, lam, 1, u, [(0.0, 2 * np.pi)], 16, q)
    assert abs(c) == pytest.approx(1.0, abs=1e-12)
    assert abs(val) < 1e-14
    for idx in range(16):
        h = compose_rh(f, lam, 1, np.exp(2j * np.pi * idx / 16))
        assert abs(arc_functional(u, h, q, (0.0, 2 * np.pi))) < 1e-14


def test_choose_phase_min_below_grid_mean():
    rng = np.random.default_rng(7)
    f = AnalyticDisc((rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))) * 0.4)
    lam = LaurentFamily(
        0, (rng.normal(size=(2, 3, 1)) + 1j * rng.normal(size=(2, 3, 1))) * 0.3
    )
    u = parse_field("max(re(z1), abs2(z1) - 1)")
    q = QuadratureSpec(M=128)
    arcs = [(0.0, np.pi), (np.pi, 2 * np.pi)]
    n_phases = 16
    c, val = choose_phase(f, lam, 2, u, arcs, n_phases, q)
    vals = []
    for idx in range(n_phases):
        ci = np.exp(2j * np.pi * idx / n_phases)
        h = compose_rh(f, lam, 2, ci)
        vals.append(sum(arc_functional(u, h, q, arc) for arc in arcs))
    assert val <= np.mean(vals) + 1e-14
    assert val == pytest.approx(min(vals), abs=1e-15)


def test_boundary_proximity_of_composition():
    # h on the boundary lands near some member of the family (fit + z-grid gap)
    rng = np.random.default_rng(21)
    f = AnalyticDisc((rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))) * 0.4)
    B = 16
    w1 = lambda t: 0.15 * np.exp(1j * t) + 0.05 * np.exp(-1j * t)
    w2 = lambda t: 0.06 * np.exp(1j * t)
    fam = make_family(f, B, [w1, w2])
    lam, resid = fit_laurent(fam, 1, 2, 2)
    assert resid < 1e-12
    h = compose_rh(f, lam, 32, 1.0)
    L = 512
    zgrid = np.exp(2j * np.pi * np.arange(L) / L)
    for j, t in enumerate(family_angles(B)):
        g = fam.discs[j]
        hv = h.eval(np.exp(1j * t))[0]
        gv = g.eval(zgrid)[:, 0]
        lip = sum(r * np.abs(g.coeffs[r, 0]) for r in range(1, g.coeffs.shape[0]))
        assert np.min(np.abs(hv - gv)) <= resid + lip * np.pi / L + 1e-12


def test_interior_proximity_decreases_in_k():
    rng = np.random.default_rng(30)
    zeta = 0.5 * np.exp(2j * np.pi * np.arange(128) / 128)
    for _ in range(20):
        f = AnalyticDisc((rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))) * 0.5)
        lam = LaurentFamily(
            1, (rng.normal(size=(2, 3, 1)) + 1j * rng.normal(size=(2, 3, 1))) * 0.2
        )
        sups = []
        for k in (8, 16, 32, 64):
            h = compose_rh(f, lam, k, 1.0)
            sups.append(np.max(np.abs(h.eval(zeta) - f.eval(zeta))))
        assert sups[0] > sups[1] > sups[2] > sups[3]


def test_localization_off_the_active_arc():
    # children are the constant disc off J = [0, pi]; a C^1 bump drives them on J
    B = 32
    f = AnalyticDisc(np.array([[0.1 + 0j], [0.6 + 0j], [0.2 + 0.1j]]))

    def bump(t):
        return [0.3 * np.sin(t) ** 2 if 0 <= t <= np.pi else 0.0]

    fam = make_family(f, B, [bump])
    lam, resid = fit_laurent(fam, 6, 1, 12)
    assert 1e-8 < resid < 0.05  # genuinely inexact fit
    for k in (16, 32, 64):
        h = compose_rh(f, lam, k, 1.0)
        tt = np.linspace(1.15 * np.pi, 2 * np.pi - 0.15 * np.pi, 400)
        dev = np.max(np.abs(h.eval(np.exp(1j * tt)) - f.eval(np.exp(1j * tt))))
        assert dev <= 3.0 * resid


def test_disc_json_roundtrip():
    f = AnalyticDisc(np.array([[0.25 + 0j, -1j], [1 / 3 + 0j, 0.1 + 0.2j]]))
    g = disc_from_json(disc_to_json(f))
    assert g.branch is None
    assert np.array_equal(g.coeffs, f.coeffs)

    branch = cusp_branch()
    space = curve_space((branch,))
    fb = AnalyticDisc(np.array([[0.5 + 0j], [0.125 + 0j]]), branch)
    gb = disc_from_json(disc_to_json(fb), space)
    assert gb.branch is branch
    assert np.array_equal(gb.coeffs, fb.coeffs)
