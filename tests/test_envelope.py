import numpy as np
import pytest

from pshenv import envelope
from pshenv.disc import AnalyticDisc, boundary_from_coeffs, circle_powers
from pshenv.envelope import (
    _RHO_GRID,
    EnvelopeEstimate,
    SearchBudget,
    _descend,
    _descend_log,
    _dip_log,
    _disc_from_log,
    _exp_coeffs,
    _first_improvement,
    _Frame,
    _project,
    _rh_round,
    _score,
    _seed_anchor,
    _seed_params,
    _steps,
    check_submean,
    child_budget,
    envelope_at,
    envelope_grid,
    upper_regularize,
)
from pshenv.errors import (
    DomainError,
    EmptyShell,
    InterpolationOutOfRange,
    PointNotOnSpace,
    PointOutsideWindow,
)
from pshenv.functional import (
    QuadratureSpec,
    eval_field,
    parse_field,
    poisson_functional,
)
from pshenv.space import BranchMap, curve_space, euclidean_space

SMALL = SearchBudget(degree_schedule=(2,), restarts=2, descent_iters=5, seed=1)
Q64 = QuadratureSpec(M=64)


def two_axes_space():
    za = BranchMap("zaxis", ([0.0, 1.0], [0.0]))
    wa = BranchMap("waxis", ([0.0], [0.0, 1.0]))
    return curve_space((za, wa))


def lattice_estimate(values_fn):
    ticks = np.linspace(-0.5, 0.5, 5)
    pts, vals = [], []
    for a in ticks:
        for b in ticks:
            p = np.array([complex(a, b)])
            pts.append(p)
            vals.append(values_fn(p[0]))
    return EnvelopeEstimate(points=pts, values=vals, witnesses=[None] * len(pts),
                            diagnostics=[{}] * len(pts))


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(degree_schedule=())
    with pytest.raises(ValueError):
        SearchBudget(degree_schedule=(4, 2))
    with pytest.raises(ValueError):
        SearchBudget(k_schedule=(2, 2))
    with pytest.raises(ValueError):
        SearchBudget(n_phases=0)
    with pytest.raises(ValueError):
        SearchBudget(step_shrink=1.0)


def test_child_budget_shrinks():
    b = SearchBudget(degree_schedule=(4, 16), restarts=8, descent_iters=20,
                     rh_rounds=3, child_degree=3)
    c = child_budget(b)
    assert c.degree_schedule == (3,)
    assert c.restarts == 4
    assert c.rh_rounds == 0


def test_constant_disc_upper_bound():
    space = euclidean_space(1)
    for text, x in [("abs2(z1)", 0.7), ("re(z1)", -0.2), ("exp(re(z1))", 0.1)]:
        u = parse_field(text)
        v, wit, _ = envelope_at(u, space, [x], SMALL, Q64)
        assert v <= eval_field(u, [complex(x)]) + 1e-12
        assert wit.center()[0] == complex(x)


def test_psh_field_is_fixed_point():
    u = parse_field("abs2(z1)")
    v, _, _ = envelope_at(u, euclidean_space(1), [0.3], SMALL, Q64)
    assert abs(v - 0.09) < 1e-10


def test_pluriharmonic_value_is_exact():
    u = parse_field("re(z1 * z1)")
    x = 0.4 + 0.1j
    b = SearchBudget(degree_schedule=(4,), restarts=3, descent_iters=8, seed=2)
    v, wit, _ = envelope_at(u, euclidean_space(1), [x], b, Q64)
    assert abs(v - (x * x).real) < 1e-12
    assert wit.center()[0] == x


def test_value_matches_witness_functional():
    u = parse_field("max(re(z1), abs2(z1) - 1)")
    v, wit, _ = envelope_at(u, euclidean_space(1), [0.2], SMALL, Q64)
    assert v == pytest.approx(poisson_functional(u, wit, Q64), abs=1e-15)


def test_search_dips_below_indicator_obstacle():
    u = parse_field("-indicator(ball(0, 0; 0.25))")
    space = euclidean_space(1, radii=1.0)
    b = SearchBudget(degree_schedule=(8,), restarts=3, descent_iters=10, seed=5)
    v, _, _ = envelope_at(u, space, [0.5], b, QuadratureSpec(M=128))
    # exact value for this window is -1/2; a small budget lands nearby
    assert -1.0 - 1e-9 <= v < -0.35


def test_outside_window_raises():
    u = parse_field("0")
    space = euclidean_space(1, radii=0.5)
    with pytest.raises(PointOutsideWindow):
        envelope_at(u, space, [2.0], SMALL, Q64)


def test_wrong_point_shape_raises():
    with pytest.raises(ValueError):
        envelope_at(parse_field("0"), euclidean_space(2), [1.0], SMALL, Q64)


def test_point_off_curve_raises():
    with pytest.raises(PointNotOnSpace):
        envelope_at(parse_field("0"), two_axes_space(), [1.0, 1.0], SMALL, Q64)


def test_curve_diagnostics_track_branches():
    space = two_axes_space()
    u = parse_field("abs2(z1 - 1)")
    v, wit, diag = envelope_at(u, space, [0.0, 0.0], SMALL, Q64)
    assert sorted(diag["lifts"]) == ["waxis", "zaxis"]
    assert diag["branch"] == wit.branch.label
    v2, wit2, diag2 = envelope_at(u, space, [0.7, 0.0], SMALL, Q64)
    assert diag2["branch"] == "zaxis"
    assert wit2.center()[0] == 0.7 + 0j


def test_grid_of_one_matches_point_call():
    u = parse_field("-indicator(ball(0, 0; 0.25))")
    space = euclidean_space(1, radii=1.0)
    est = envelope_grid(u, space, [[0.4]], SMALL, Q64)
    v, wit, _ = envelope_at(u, space, [0.4], SMALL, Q64)
    assert est.values[0] == v
    assert np.array_equal(est.witnesses[0].coeffs, wit.coeffs)


def test_warm_sweep_never_hurts():
    u = parse_field("-indicator(ball(0, 0; 0.25))")
    space = euclidean_space(1, radii=1.0)
    xs = [[x] for x in np.linspace(0.3, 0.7, 5)]
    est = envelope_grid(u, space, xs, SMALL, Q64)
    for i, x in enumerate(xs):
        v, _, _ = envelope_at(u, space, x, SMALL, Q64, point_index=i)
        assert est.values[i] <= v + 1e-12


def test_rounds_start_at_field_value_and_decrease():
    u = parse_field("-indicator(ball(0, 0; 0.25))")
    space = euclidean_space(1, radii=1.0)
    v, _, diag = envelope_at(u, space, [0.5], SMALL, Q64)
    rounds = diag["rounds"]
    assert rounds[0] == pytest.approx(0.0, abs=1e-15)  # constant disc first
    assert all(b <= a + 1e-12 for a, b in zip(rounds, rounds[1:]))
    assert rounds[-1] == pytest.approx(v, abs=1e-15)


def test_check_submean_clean_on_constant_grid():
    est = lattice_estimate(lambda z: -2.0)
    trial = AnalyticDisc(np.array([[0.0 + 0j], [0.25 + 0j]]))
    assert check_submean(est, euclidean_space(1), [trial], Q64) == []


def test_check_submean_flags_planted_spike():
    est = lattice_estimate(lambda z: 1.0 if z == 0 else 0.0)
    trial = AnalyticDisc(np.array([[0.0 + 0j], [0.25 + 0j]]))
    reports = check_submean(est, euclidean_space(1), [trial], Q64)
    assert len(reports) == 1
    r = reports[0]
    assert r["disc_index"] == 0
    assert r["center_value"] == pytest.approx(1.0, abs=1e-12)
    assert r["excess"] > 0.5
    assert r["boundary_average"] < 0.5


def test_check_submean_requires_branch_on_curves():
    space = two_axes_space()
    ticks = np.linspace(-0.5, 0.5, 5)
    pts = [np.array([complex(t), 0j]) for t in ticks]
    est = EnvelopeEstimate(points=pts, values=[0.0] * len(pts),
                           witnesses=[None] * len(pts),
                           diagnostics=[{}] * len(pts))
    bare = AnalyticDisc(np.array([[0j, 0j]]))
    with pytest.raises(ValueError):
        check_submean(est, space, [bare], Q64)


def test_check_submean_rejects_offline_disc():
    # grid on the real axis, disc boundary wanders into the plane
    ticks = np.linspace(-1.0, 1.0, 9)
    pts = [np.array([complex(t)]) for t in ticks]
    est = EnvelopeEstimate(points=pts, values=[0.0] * 9,
                           witnesses=[None] * 9, diagnostics=[{}] * 9)
    trial = AnalyticDisc(np.array([[0.0 + 0j], [0.25 + 0j]]))
    with pytest.raises(InterpolationOutOfRange):
        check_submean(est, euclidean_space(1), [trial], Q64)


def test_upper_regularize_constant_grid():
    est = lattice_estimate(lambda z: 3.5)
    val, report = upper_regularize(est, euclidean_space(1), [0.0], [0.3, 0.6])
    assert val == 3.5
    assert set(report) == {0.3, 0.6}


def test_upper_regularize_excludes_the_point_itself():
    est = lattice_estimate(lambda z: 1.0 if z == 0 else 0.0)
    val, _ = upper_regularize(est, euclidean_space(1), [0.0], [0.3])
    assert val == 0.0


def test_upper_regularize_empty_shell():
    est = lattice_estimate(lambda z: 0.0)
    with pytest.raises(EmptyShell):
        upper_regularize(est, euclidean_space(1), [0.0], [1e-6])


def _first_improvement_one_by_one(frame, q, trials, best, btol):
    for i, trial in enumerate(trials):
        trial, val, vtol = _score(frame, q, trial)
        if val < best - max(vtol, btol):
            return i, trial, val, vtol
    return None


def _same_decision(frame, trials, best, btol):
    # _first_improvement against scoring the trials in order; returns the
    # shared result.
    got = _first_improvement(frame, Q64, trials, best, btol)
    want = _first_improvement_one_by_one(frame, Q64, trials, best, btol)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2:] == want[2:]
    return got


@pytest.mark.parametrize("text, space", [
    ("log(0.001 + abs2(z1))", euclidean_space(2)),
    ("re(z1) + abs2(z2)", euclidean_space(2)),
    ("-indicator(ball(0, 0; 0.25))", euclidean_space(1, [0j], [1.0])),
    ("max(re(z1), abs2(z1) - 1)", euclidean_space(1)),
    ("log(0.001 + abs2(z1))", euclidean_space(2, [0j, 0j], [0.6, 0.6])),
])
def test_stacked_trials_decide_as_one_by_one(text, space):
    # Every batch of a descent move, scored together, picks the same trial
    # with the same value as scoring the trials in order; the incumbents are
    # the random discs a search starts from.  Steps in z1 of the second
    # field tie to roundoff; in the windowed cases some trials leave the
    # window and are repaired.
    frame = _Frame(parse_field(text), space)
    rng = np.random.default_rng(7)
    wins = left = 0
    for _ in range(60):
        coeffs = (rng.normal(size=(5, frame.dim))
                  + 1j * rng.normal(size=(5, frame.dim))) * 0.3
        coeffs[0] = 0.4 * rng.random(frame.dim)
        _, best, btol = _score(frame, Q64, coeffs)
        row = int(rng.integers(1, 5))
        trials = np.repeat(coeffs[None], 8 * frame.dim, axis=0)
        for c in range(frame.dim):
            trials[8 * c:8 * (c + 1), row, c] += _steps(
                float(rng.choice([0.25, 0.05, 0.01])))
        fits = frame.fits(np.stack([boundary_from_coeffs(t, Q64.M)
                                    for t in trials]))
        left += int((~fits).sum())
        wins += _same_decision(frame, trials, best, btol) is not None
    assert wins > 0
    assert (left > 0) == (space.domain_constraint is not None)


def _window_edge_batch(rng):
    # Degree-3 discs in the unit disc window of C^1, all leaving it: the
    # first has no rho that fits (its center sits next to the wall, so even
    # rho = 0.03 leaves), the second's rho = 0.999 candidate lies outside
    # the unit circle by less than the window's 1e-12 slack, the rest are
    # random.
    trials = np.zeros((8, 4, 1), dtype=complex)
    trials[0, 0] = 0.99
    trials[0, 1] = 10.0
    trials[1, 1] = (1.0 + 5e-13) / 0.999
    trials[2:, 0] = 0.3 * rng.random((6, 1))
    trials[2:, 1:] = (rng.normal(size=(6, 3, 1))
                      + 1j * rng.normal(size=(6, 3, 1)))
    return trials


def test_stacked_repair_decides_as_one_by_one_at_the_wall():
    # Batches that leave the window entirely, shuffled, at bars on both
    # sides of the two special discs' values (-0.9801 for the constant disc
    # the first falls back to, about -1 for the second).
    frame = _Frame(parse_field("-abs2(z1)"), euclidean_space(1, [0j], [1.0]))
    rng = np.random.default_rng(11)
    edge = _window_edge_batch(rng)[1]
    wall = np.abs(boundary_from_coeffs(edge * 0.999 ** np.arange(4)[:, None],
                                       Q64.M)).max()
    assert 1.0 < wall <= 1.0 + 1e-12
    seen = set()
    for _ in range(20):
        trials = _window_edge_batch(rng)
        assert not frame.fits(np.stack([boundary_from_coeffs(t, Q64.M)
                                        for t in trials])).any()
        order = rng.permutation(8)
        for best in (0.0, -0.95, -0.99, -0.999, -2.0, -1e9):
            got = _same_decision(frame, trials[order], best, 1e-12)
            if got is not None:
                seen.add(int(order[got[0]]))
    assert {0, 1} <= seen
    fixed = _project(frame, Q64, _window_edge_batch(rng)[:2])
    assert np.array_equal(fixed[0], [[0.99], [0], [0], [0]])
    assert np.array_equal(fixed[1], edge * 0.999 ** np.arange(4)[:, None])


def test_stacked_trials_raise_only_where_one_by_one_does():
    # The second trial's boundary sits on the pole of the field.  Scored in
    # order, the first trial wins before the second is evaluated; with a
    # higher bar the second trial is reached and raises.
    frame = _Frame(parse_field("1 / re(z1 - 5)"), euclidean_space(1))
    trials = [np.array([[0.5 + 0j]]), np.array([[5.0 + 0j]])]
    win = _first_improvement(frame, Q64, trials, 0.0, 1e-12)
    assert win is not None and win[0] == 0 and win[1] is trials[0]
    with pytest.raises(DomainError):
        _first_improvement(frame, Q64, trials, -1.0, 1e-12)


def test_glue_round_children_sit_on_checked_points():
    # Large coefficients make the boundary matmul and AnalyticDisc.eval
    # differ by more than BoundaryFamily's 1e-8 centre tolerance; the round
    # must still build its family and fit it.
    u = parse_field("-indicator(ball(0, 0; 1))")
    frame = _Frame(u, euclidean_space(1))
    rng = np.random.default_rng(3)
    coeffs = (rng.normal(size=(129, 1)) + 1j * rng.normal(size=(129, 1))) * 1e7
    coeffs[0] = 2.0
    b = SearchBudget(degree_schedule=(128,), restarts=2, descent_iters=2,
                     rh_rounds=1, child_degree=2, boundary_points=4, seed=1)
    _, _, info = _rh_round(frame, Q64, b, coeffs, 0.0, 128, (1, 0), 0)
    assert "fit_residual" in info


def _project_one(frame, q, coeffs):
    # The single-disc projection the stacked _project replaced.
    if frame.fits(boundary_from_coeffs(coeffs, q.M)):
        return coeffs
    deg = coeffs.shape[0] - 1
    pow_ = _RHO_GRID[:, None] ** np.arange(deg + 1)[None, :]
    scaled = coeffs[None, :, :] * pow_[:, :, None]
    bnds = np.tensordot(scaled, circle_powers(q.M, deg), axes=([1], [0]))
    fit = np.flatnonzero(frame.fits(bnds.transpose(0, 2, 1)))
    if fit.size:
        return scaled[fit[0]]
    out = np.zeros_like(coeffs)
    out[0] = coeffs[0]
    return out


def _exp_coeffs_one(P):
    # The single log-shape recurrence the stacked _exp_coeffs replaced.
    E = np.zeros_like(P)
    E[0] = np.exp(P[0])
    for k in range(1, P.shape[0]):
        j = np.arange(1, k + 1)
        E[k] = np.sum(j[:, None] * P[1 : k + 1] * E[:k][::-1], axis=0) / k
    return E


def _disc_from_log_one(frame, center, P):
    c0, _ = _seed_anchor(frame)
    f = c0[None, :] + (center - c0)[None, :] * _exp_coeffs_one(P)
    f[0] = center
    return f


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(float), np.ascontiguousarray(b).view(float))


@pytest.mark.parametrize("space", [
    euclidean_space(1, [0j], [1.0]),
    euclidean_space(2, [0j, 0.1j], [1.0, 0.5]),
])
def test_stacked_forms_match_single_disc_forms_bit_for_bit(space):
    frame = _Frame(parse_field("0"), space)
    rng = np.random.default_rng(5)
    picked = set()
    for deg in (1, 2, 5, 8, 16, 17, 32, 64):
        for M in (64, 128):
            q = QuadratureSpec(M=M)
            n = int(rng.integers(1, 13))
            scale = rng.choice([0.05, 0.3, 1.0, 4.0], size=(n, 1, 1))
            stack = (rng.normal(size=(n, deg + 1, frame.dim))
                     + 1j * rng.normal(size=(n, deg + 1, frame.dim))) * scale
            win = space.domain_constraint
            stack[:, 0] = win.center + 0.9 * (
                rng.random((n, frame.dim)) - 0.5) * win.radii
            # One disc centred by the wall with large coefficients: no rho
            # of the grid fits it.
            stack[0, 0] = win.center + 0.99 * win.radii
            stack[0, 1:] *= 40.0
            bnds = np.stack([boundary_from_coeffs(c, M) for c in stack])
            out = ~frame.fits(bnds)
            got = _project(frame, q, stack[out])
            for g, c in zip(got, stack[out]):
                want = _project_one(frame, q, c)
                assert _same_bits(g, want)
                pow_ = _RHO_GRID[:, None] ** np.arange(deg + 1)
                scaled = c[None] * pow_[..., None]
                hit = [k for k in range(_RHO_GRID.size)
                       if np.array_equal(want, scaled[k])]
                picked.add(hit[0] if hit else -1)
            P = (rng.normal(size=(n, deg + 1, frame.dim))
                 + 1j * rng.normal(size=(n, deg + 1, frame.dim))) * scale
            E = _exp_coeffs(P)
            F = _disc_from_log(frame, stack[0, 0], P)
            for i in range(n):
                assert _same_bits(E[i], _exp_coeffs_one(P[i].copy()))
                assert _same_bits(F[i], _disc_from_log_one(
                    frame, stack[0, 0], P[i].copy()))
    # Several rho values of the grid and the constant-disc fallback occur.
    assert -1 in picked and len(picked) >= 4


def test_grid_caps_workers_at_the_point_count(monkeypatch):
    # The executor is replaced by a serial stand-in that records what it is
    # asked for, so no thread is started whatever threads says.
    asked = []

    class SerialExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(envelope, "ThreadPoolExecutor", SerialExecutor)
    u = parse_field("abs2(z1)")
    pts = [[0.1], [0.2], [0.3]]
    est = envelope_grid(u, euclidean_space(1), pts, SMALL, Q64, threads=64)
    assert asked == [3]
    ref = envelope_grid(u, euclidean_space(1), pts, SMALL, Q64, threads=1)
    assert est.values == ref.values


def _serial_descent(frame, q, b, state, cols, n_rows, iters, to_coeffs):
    # The one-trial-at-a-time sweeps both descents ran before their trials
    # were scored in batches.  A coefficient descent (to_coeffs None) moves
    # to the repaired winner, a log-shape descent keeps the trial's shape.
    as_disc = (lambda s: s) if to_coeffs is None else to_coeffs
    coeffs, best, btol = _score(frame, q, as_disc(state))
    if best == float("-inf") or iters <= 0 or not cols:
        return coeffs, best, btol
    step = b.step_init
    for _ in range(iters):
        improved = False
        for row in range(1, n_rows + 1):
            for col in cols:
                for delta in _steps(step):
                    trial = state.copy()
                    trial[row, col] += delta
                    cand, val, vtol = _score(frame, q, as_disc(trial))
                    if val < best - max(vtol, btol):
                        state = cand if to_coeffs is None else trial
                        coeffs, best, btol = cand, val, vtol
                        improved = True
                        break
        if not improved:
            step *= b.step_shrink
            if step < 1e-10:
                break
    return coeffs, best, btol


@pytest.mark.parametrize("text, space, center", [
    ("-indicator(ball(0, 0; 0.25))", euclidean_space(1, [0j], [1.0]), [0.5]),
    ("log(0.001 + abs2(z1)) + abs2(z2)",
     euclidean_space(2, [0j, 0j], [0.6, 0.6]), [0.3, -0.2j]),
])
def test_descents_match_serial_reference(text, space, center):
    # The shared move loop, with its stacked repair and scoring, ends where
    # the serial sweeps end, bit for bit, on windowed searches whose trials
    # often leave the window.
    frame = _Frame(parse_field(text), space)
    center = np.asarray(center, dtype=complex)
    b = SearchBudget(degree_schedule=(8,), descent_iters=4, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(3):
        coeffs = (rng.normal(size=(9, frame.dim))
                  + 1j * rng.normal(size=(9, frame.dim))) * 0.3
        coeffs[0] = center
        got = _descend(frame, Q64, b, coeffs, 8, b.descent_iters)
        want = _serial_descent(frame, Q64, b, _score(frame, Q64, coeffs)[0],
                               list(range(frame.dim)), 8, b.descent_iters, None)
        assert _same_bits(got[0], want[0]) and got[1:] == want[1:]
    for mu, lhi in _seed_params(frame, center)[::8]:
        P = _dip_log(frame, center, 8, mu, lhi)
        got = _descend_log(frame, Q64, b, P, center, 8, b.descent_iters)
        want = _serial_descent(
            frame, Q64, b, P, list(range(frame.dim)), 8, b.descent_iters,
            lambda t: _disc_from_log_one(frame, center, t))
        assert _same_bits(got[0], want[0]) and got[1:] == want[1:]
