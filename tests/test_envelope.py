from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

from pshenv import cli, envelope
from pshenv.disc import AnalyticDisc, boundary_from_coeffs, circle_powers
from pshenv.envelope import (
    _RHO_GRID,
    _STACK_SAMPLES,
    _STEP_INIT,
    _STEP_SHRINK,
    IMPROVE_TOL,
    EnvelopeEstimate,
    SearchBudget,
    _arc_cheb_seeds,
    _best_seed,
    _descend,
    _disc_from_log,
    _exp_coeffs,
    _first_improvement,
    _Frame,
    _SliceInterp,
    _project,
    _rh_round,
    _score,
    _score_stack,
    _steps,
    check_submean,
    child_budget,
    envelope_at,
    envelope_grid,
)
from pshenv.errors import (
    DomainError,
    InterpolationOutOfRange,
    NotApplicable,
    PointNotOnSpace,
    PointOutsideWindow,
)
from pshenv.functional import (
    Const,
    Op,
    QuadratureSpec,
    ScalarField,
    eval_field,
    parse_field,
    poisson_functional,
)
from pshenv.hull import CompactSet, membership_field
from pshenv.oracle import field_on_grid, grid_domain, interp_bilinear
from pshenv.space import BranchMap, curve_space, euclidean_space, polydisc

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


def test_top_degree_must_be_below_m():
    # On the M nodes z^M = 1, so x - x z^M is 0 at every node.  At M = 16
    # this search returned -1.0 at x = 0.75 for degrees (16,), where the
    # envelope is log(0.75) / log(4) = -0.2075.
    u = parse_field("-indicator(ball(0, 0; 0.25))")
    space = euclidean_space(1, radii=1.0)
    q = QuadratureSpec(M=16)
    for degrees in [(16,), (4, 32)]:
        b = SearchBudget(degree_schedule=degrees, restarts=2, descent_iters=8,
                         seed=1)
        with pytest.raises(ValueError, match="below"):
            envelope_at(u, space, [0.75], b, q)
        with pytest.raises(ValueError, match="below"):
            envelope_grid(u, space, [[0.75]], b, q)
    b = SearchBudget(degree_schedule=(15,), restarts=2, descent_iters=8, seed=1)
    assert envelope_at(u, space, [0.75], b, q)[0] > -1.0


def test_outside_window_raises():
    u = parse_field("0")
    space = euclidean_space(1, radii=0.5)
    with pytest.raises(PointOutsideWindow):
        envelope_at(u, space, [2.0], SMALL, Q64)


def test_wrong_point_shape_raises():
    with pytest.raises(ValueError):
        envelope_at(parse_field("0"), euclidean_space(2), [1.0], SMALL, Q64)


@pytest.mark.parametrize("text, space, coord", [
    ("re(z3)", euclidean_space(2), "z3, but the points have 2"),
    ("-indicator(box(0, 1, 0, 1; 0, 1, 0, 1; 0, 1, 0, 1))",
     euclidean_space(2), "z3, but the points have 2"),
    ("-indicator(ball(0, 0, 0, 0, 0, 0; 1))", euclidean_space(2, radii=1.0),
     "z3, but the points have 2"),
    ("re(z2)", euclidean_space(1), "z2, but the points have 1"),
    ("abs2(z3 - 1)", two_axes_space(), "z3, but the points have 2"),
])
def test_field_reading_a_missing_coordinate_raises(monkeypatch, text, space,
                                                   coord):
    # Refused by name before any evaluation, where it used to raise
    # IndexError, DomainError or numpy's broadcast error mid-search.
    def no_evaluation(*args):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(envelope, "_score_stack", no_evaluation)
    u = parse_field(text)
    with pytest.raises(ValueError, match=f"field reads {coord}"):
        envelope_at(u, space, np.zeros(space.ambient_dim), SMALL, Q64)


@pytest.mark.parametrize("text", ["re(z2)",
                                  "-indicator(box(0, 1, 0, 1; 0, 1, 0, 1))"])
def test_oracle_field_reading_z2_raises(text):
    with pytest.raises(ValueError, match="field reads z2, but the points have 1"):
        field_on_grid(parse_field(text), grid_domain(33))


# Real fields of z1 alone, from re, im, abs2, log(c + ...), max, + and
# constants; each log's argument is at least c > 0, so every value is
# finite.
_Z1_FIELDS = st.recursive(
    st.sampled_from(["re(z1)", "im(z1)", "abs2(z1)", "abs2(z1 - 0.5)"])
    | st.integers(-8, 8).map(lambda k: repr(k / 4)),
    lambda e: (st.tuples(e, e).map(lambda t: f"({t[0]} + {t[1]})")
               | st.tuples(e, e).map(lambda t: f"max({t[0]}, {t[1]})")
               | st.tuples(st.sampled_from(["0.001", "0.5", "2"]), e).map(
                   lambda t: f"log({t[0]} + abs2({t[1]}))")),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(g=_Z1_FIELDS,
       x=st.tuples(*[st.floats(-1, 1)] * 4),
       degree=st.integers(1, 23),
       m=st.sampled_from([32, 64, 512]),
       seed=st.integers(0, 3))
def test_unread_columns_never_move_a_search(g, x, degree, m, seed):
    # In C^2 without a window and below degree 24, a field of z1 alone is
    # searched along z1 only: it ends on the value and witness of the same
    # field made to read z2 by a zero term, which keeps every move, and
    # scores fewer trials.
    assume(degree < m)
    b = SearchBudget(degree_schedule=(degree,), restarts=1, descent_iters=3,
                     seed=seed)
    q = QuadratureSpec(M=m)
    space = euclidean_space(2)
    point = [complex(x[0], x[1]), complex(x[2], x[3])]
    v, w, d = envelope_at(parse_field(g), space, point, b, q)
    v2, w2, d2 = envelope_at(parse_field(f"{g} + 0 * re(z2)"), space, point,
                             b, q)
    assert v == v2 and np.array_equal(w.coeffs, w2.coeffs)
    assert d["stages"] == d2["stages"]
    assert d["trials"] < d2["trials"]


@pytest.mark.parametrize("g", ["re(z1)", "log(0.001 + abs2(z1))"])
def test_window_keeps_every_column(g):
    # A window repair rescales every column, so the descent moves z2 too:
    # the two fields score the same trials.
    b = SearchBudget(degree_schedule=(4,), restarts=1, descent_iters=3,
                     seed=2)
    space = euclidean_space(2, radii=1.0)
    v, w, d = envelope_at(parse_field(g), space, [0.3, 0.2j], b, Q64)
    v2, w2, d2 = envelope_at(parse_field(f"{g} + 0 * re(z2)"), space,
                             [0.3, 0.2j], b, Q64)
    assert v == v2 and np.array_equal(w.coeffs, w2.coeffs)
    assert d["trials"] == d2["trials"]


def test_trials_count_every_scored_disc_of_every_lift(monkeypatch):
    # At the crossing of the two axes both lifts are searched, and the
    # count covers the discs of both, not only the winner's.
    scored = []
    real = envelope._score_stack

    def counting(frame, q, trials):
        scored.append(len(trials))
        return real(frame, q, trials)

    monkeypatch.setattr(envelope, "_score_stack", counting)
    _, _, diag = envelope_at(parse_field("abs2(z1 - 1)"), two_axes_space(),
                             [0.0, 0.0], SMALL, Q64)
    assert len(diag["lifts"]) == 2
    assert diag["trials"] == sum(scored) > 0
    _, _, one = envelope_at(parse_field("abs2(z1 - 1)"), two_axes_space(),
                            [0.7, 0.0], SMALL, Q64)
    assert 0 < one["trials"] < diag["trials"]


@pytest.mark.parametrize("space", [euclidean_space(1),
                                   euclidean_space(1, radii=1.0)])
@pytest.mark.parametrize("x", [complex("nan"), complex(0.5, np.inf)])
def test_non_finite_point_raises(space, x):
    # Refused by name before the window test, with or without a window.
    with pytest.raises(ValueError, match="non-finite"):
        envelope_at(parse_field("abs2(z1)"), space, [x], SMALL, Q64)


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


def test_euclidean_point_is_its_own_single_lift():
    # C^N is its own normalization: one lift, labelled None, and a witness
    # that carries no branch.
    for x in ([0.3], [0.3, -0.1j]):
        u = parse_field("abs2(z1 - 1)")
        v, wit, diag = envelope_at(u, euclidean_space(len(x)), x, SMALL, Q64)
        assert diag["branch"] is None and diag["lifts"] == [None]
        assert wit.branch is None
        assert v == poisson_functional(u, wit, Q64)


def _radial_indicator_case():
    # The windowed C^1 radial grid of test_acceptance's DETERMINISM_CFG.
    u = parse_field("-indicator(ball(0, 0; 0.25))")
    space = euclidean_space(1, radii=1.0)
    pts = [[complex(r)] for r in np.linspace(0.1, 0.9, 5)]
    budget = SearchBudget(degree_schedule=(2, 4), restarts=3, descent_iters=8,
                          seed=12)
    return space, u, pts, budget, QuadratureSpec(M=128)


def _psh_c2_case():
    u = parse_field("log(0.001 + abs2(z1) + abs2(z2))")
    pts = [[0.1, 0.0], [0.2 + 0.1j, -0.1], [0.0, 0.3j], [-0.2, 0.2]]
    budget = SearchBudget(degree_schedule=(2, 4), restarts=2, descent_iters=4,
                          seed=3)
    return euclidean_space(2), u, pts, budget, Q64


def _counterexample_case():
    space, u, pts, budget, q, _ = cli.counterexample_scenario()
    return space, u, pts, budget, q


def _search_bits(v, w, d):
    # repr round-trips every float, so equal reprs are equal bits.
    return (repr(float(v)), w.coeffs.tobytes(), w.coeffs.shape,
            None if w.branch is None else w.branch.label,
            repr(d["stages"]), repr(d["rounds"]), repr(d["rh"]))


def _without_floor(u, space, x, b, q):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScalarField, "floor", property(lambda self: -np.inf))
        return envelope_at(u, space, x, b, q)


def _assert_floor_changes_nothing(u, space, x, b, q):
    v, w, d = envelope_at(u, space, x, b, q)
    v0, w0, d0 = _without_floor(u, space, x, b, q)
    assert _search_bits(v, w, d) == _search_bits(v0, w0, d0)
    assert d["trials"] <= d0["trials"]
    assert d["floor"] == u.floor and d0["floor"] == -np.inf
    return d, d0


# Fields with a finite floor: indicators and a continuous cap over a flat
# floor, combined by negation, min, max and constant factors and offsets.
def _floored_fields(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda e: (e.map(lambda a: f"-{a}")
                   | st.tuples(e, e).map(lambda t: f"min({t[0]}, {t[1]})")
                   | st.tuples(e, e).map(lambda t: f"max({t[0]}, {t[1]})")
                   | st.tuples(st.sampled_from(["0.5", "2"]), e).map(
                       lambda t: f"{t[0]} * {t[1]}")
                   | st.tuples(e, st.sampled_from(["0.25", "1"])).map(
                       lambda t: f"({t[0]} - {t[1]})")),
        max_leaves=5,
    )


_C1_LEAVES = ["indicator(ball(0, 0; 0.5))", "indicator(ball(0.3, -0.1; 0.3))",
              "indicator(box(-0.6, 0.2, -0.3, 0.4))",
              "max(-1, -2 * abs2(z1 - 0.5))"]
_C2_LEAVES = _C1_LEAVES + [
    "indicator(ball(0.2, 0, 0, 0.1; 0.5))",
    "indicator(box(-0.5, 0.5, -0.5, 0.5; -0.2, 0.4, -0.4, 0.4))",
    "max(-1, -2 * abs2(z1 - 0.5) - 2 * abs2(z2))"]
# Glue rounds after each stage, so the children's searches stop early too.
_GLUED = SearchBudget(degree_schedule=(2, 6), restarts=2, descent_iters=4,
                      rh_rounds=1, boundary_points=4, child_degree=2)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(g=_floored_fields(_C1_LEAVES),
       x=st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
       window=st.booleans(), seed=st.integers(0, 3))
# Searches that descend toward the floor: in the window they end above
# it, without one they reach it.
@example(g="max(-1, -2 * abs2(z1 - 0.5))", x=(0.3, 0.0), window=True, seed=0)
@example(g="max(-1, -2 * abs2(z1 - 0.5))", x=(0.0, 0.0), window=False, seed=0)
def test_floor_stop_changes_no_c1_search(g, x, window, seed):
    # The search stops at the floor only where no later trial could win:
    # value, witness, stages, rounds and glue rounds keep their bits, with
    # and without a window, and no more trials are scored.
    u = parse_field(g)
    assert u.floor > -np.inf
    space = euclidean_space(1, radii=1.0) if window else euclidean_space(1)
    _assert_floor_changes_nothing(u, space, [complex(*x)],
                                  replace(_GLUED, seed=seed), Q64)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(g=_floored_fields(_C2_LEAVES),
       x=st.tuples(*[st.floats(-0.6, 0.6)] * 4), seed=st.integers(0, 3))
def test_floor_stop_changes_no_c2_search(g, x, seed):
    u = parse_field(g)
    assert u.floor > -np.inf
    b = SearchBudget(degree_schedule=(2, 4), restarts=2, descent_iters=4,
                     seed=seed)
    _assert_floor_changes_nothing(
        u, euclidean_space(2), [complex(x[0], x[1]), complex(x[2], x[3])], b,
        Q64)


def test_floor_stop_changes_no_curve_search():
    # The counterexample's field 1 - min(1, 1e12 |z|^2) has floor 0, which
    # every point of the punctured z-axis reaches.
    space, u, pts, budget, q, _ = cli.counterexample_scenario()
    assert u.floor == 0.0
    saved = 0
    for x in pts:
        d, d0 = _assert_floor_changes_nothing(u, space, x, budget, q)
        saved += d0["trials"] - d["trials"]
    assert saved > 0


def _without_screen(u, space, x, b, q):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScalarField, "piecewise_constant",
                   property(lambda self: False))
        return envelope_at(u, space, x, b, q)


def _two_sided(u, space, x, b, q):
    # The screen with every node's slack asked for way 0: a trial is left
    # out only when no sample can change at all.
    real = ScalarField.slack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScalarField, "slack",
                   lambda self, pts, way=0: real(self, pts))
        return envelope_at(u, space, x, b, q)


def _search_or_error(search, u, space, x, b, q):
    # (search bits, diag), or, when the search raises DomainError, its
    # message and the bytes of the trial stack whose scoring raised it.
    raised = []
    real = envelope._score_stack

    def recording(frame, q, trials):
        try:
            return real(frame, q, trials)
        except DomainError:
            raised.append(np.asarray(trials).tobytes())
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_score_stack", recording)
        try:
            v, w, d = search(u, space, x, b, q)
        except DomainError as e:
            return ("raised", str(e), raised[-1] if raised else None), None
    return _search_bits(v, w, d), d


def _assert_screen_changes_nothing(u, space, x, b, q):
    # The search with steady trials left out against the search that scores
    # every trial: the same bits, no more trials scored; or the same
    # DomainError, raised by the same trial.
    got, d = _search_or_error(envelope_at, u, space, x, b, q)
    want, d0 = _search_or_error(_without_screen, u, space, x, b, q)
    assert got == want
    if d is not None:
        assert d["trials"] <= d0["trials"] and d0["steady"] == 0
    return d, d0


def _distance_leaf(dim):
    # -1 near two small balls, through the hull's own indicator.
    K = CompactSet.from_points([[0.5] + [0.0] * (dim - 1),
                                [-0.3j] + [0.2] * (dim - 1)], 0.1)
    return membership_field(K, 0.15).expr


def _screened_fields(dim):
    # Ball, box and distance leaves, and log(1 + indicator), under neg, min,
    # max, +, - and * of two subtrees, * and + with constants, abs and
    # division by a constant; log, abs and / ask their subtrees for the
    # two-sided slack.  Every leaf is a constant or an indicator.
    texts = _C1_LEAVES[:3] + (_C2_LEAVES[4:6] if dim == 2 else [])
    indicators = [parse_field(t).expr for t in texts]
    leaves = st.sampled_from(indicators + [_distance_leaf(dim)])
    consts = st.sampled_from([Const(0.5), Const(-2.0), Const(0.25)])
    log1p = st.sampled_from(indicators).map(
        lambda a: Op("log", (Op("+", (Const(1.0), a)),)))
    unary = {"neg": lambda a: Op("neg", (a,)), "abs": lambda a: Op("abs", (a,))}
    scaled = {"*": lambda a, c: Op("*", (c, a)), "+": lambda a, c: Op("+", (a, c)),
              "/": lambda a, c: Op("/", (a, c))}
    return st.recursive(
        leaves | log1p,
        lambda e: (st.tuples(st.sampled_from(sorted(unary)), e).map(
                       lambda t: unary[t[0]](t[1]))
                   | st.tuples(st.sampled_from(["min", "max", "+", "-", "*"]),
                               e, e).map(lambda t: Op(t[0], t[1:]))
                   | st.tuples(st.sampled_from(sorted(scaled)), e, consts).map(
                       lambda t: scaled[t[0]](*t[1:]))),
        max_leaves=4,
    ).map(ScalarField)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data(), dim=st.sampled_from([1, 2]), window=st.booleans(),
       seed=st.integers(0, 3))
def test_screen_changes_no_search(data, dim, window, seed):
    # Leaving out the trials that keep their incumbent's samples keeps
    # value, witness, stages, rounds and glue rounds bit for bit, in C^1
    # and C^2, with and without a window, and scores no more trials.
    u = data.draw(_screened_fields(dim))
    assert u.piecewise_constant
    x = [complex(*data.draw(st.tuples(st.floats(-0.6, 0.6),
                                      st.floats(-0.6, 0.6))))
         for _ in range(dim)]
    space = (euclidean_space(dim, radii=1.0) if window
             else euclidean_space(dim))
    _assert_screen_changes_nothing(u, space, x, replace(_GLUED, seed=seed), Q64)


def test_screen_leaves_out_trials_on_the_hull_and_liouville_fields():
    # A hull certificate search at the centre of a circle of balls, and the
    # unbounded indicator at |x| = 2: trials are left out, bit for bit.
    circle = CompactSet.from_points(
        [[np.exp(2j * np.pi * k / 16), 0.0] for k in range(16)], 0.05)
    hull_budget = SearchBudget(degree_schedule=(1, 2), restarts=2,
                               descent_iters=8, seed=1)
    d, d0 = _assert_screen_changes_nothing(
        membership_field(circle, 0.1), euclidean_space(2, radii=[1.5, 1.5]),
        [0j, 0j], hull_budget, QuadratureSpec(M=128))
    assert d["steady"] > 0 and d["trials"] < d0["trials"]
    liouville = SearchBudget(degree_schedule=(8, 16), restarts=1,
                             descent_iters=4, rh_rounds=1, boundary_points=4,
                             child_degree=4, seed=1)
    u, q = parse_field("-indicator(ball(0, 0; 1))"), QuadratureSpec(M=128)
    d, d0 = _assert_screen_changes_nothing(u, euclidean_space(1), [2.0],
                                           liouville, q)
    assert d["steady"] > 0 and d["trials"] < d0["trials"]
    # The nodes inside the ball can only leave it, which raises the mean:
    # asking for the fall slack leaves out more than the two-sided one.
    v, w, d = envelope_at(u, euclidean_space(1), [2.0], liouville, q)
    v2, w2, d2 = _two_sided(u, euclidean_space(1), [2.0], liouville, q)
    assert _search_bits(v, w, d) == _search_bits(v2, w2, d2)
    assert d["trials"] < d2["trials"] and d2["steady"] > 0


def test_screen_raises_where_scoring_every_trial_raises():
    # Outside both balls the field is -inf - (-inf): the search meets that
    # in its descent, and raises DomainError at the same trial with the
    # screen on and off.
    u = parse_field("log(indicator(ball(0, 0; 0.5)))"
                    " - log(indicator(ball(0.3, 0; 0.5)))")
    got, d = _search_or_error(envelope_at, u, euclidean_space(1), [0.15],
                              SMALL, Q64)
    assert got[0] == "raised" and got[2] is not None
    _assert_screen_changes_nothing(u, euclidean_space(1), [0.15], SMALL, Q64)


@pytest.mark.parametrize("text", ["min(-indicator(ball(0, 0; 0.5)), re(z1))",
                                  "abs2(z1)", "-indicator(ball(0, 0; 0.5))"])
def test_only_piecewise_constant_fields_compute_a_slack(monkeypatch, text):
    # A field with a coordinate leaf never asks for a slack, so the screen
    # costs continuous fields nothing; an indicator field does ask.
    asked = []
    real = ScalarField.slack

    def slack(self, pts, way=0):
        asked.append(len(pts))
        return real(self, pts, way)

    monkeypatch.setattr(ScalarField, "slack", slack)
    u = parse_field(text)
    _, _, d = envelope_at(u, euclidean_space(1), [0.7], SMALL, Q64)
    assert bool(asked) == u.piecewise_constant


def test_search_at_the_floor_scores_only_the_constant_disc():
    # Inside the ball the constant disc reads -1, the field's floor: no
    # candidate, seed or descent move is tried, in C^1 with or without a
    # window.
    u = parse_field("-indicator(ball(0, 0; 0.5))")
    for space in (euclidean_space(1), euclidean_space(1, radii=1.0)):
        v, w, d = envelope_at(u, space, [0.3], SMALL, Q64)
        assert (v, d["floor"], d["trials"]) == (-1.0, -1.0, 1)
        assert w.degree == 0
        assert [s["source"] for s in d["stages"]] == ["carried"]
    v, w, d = envelope_at(u, euclidean_space(1), [0.7], SMALL, Q64)
    assert v > d["floor"] == -1.0 and d["trials"] > 1
    assert envelope_at(parse_field("re(z1)"), euclidean_space(1), [0.1],
                       SMALL, Q64)[2]["floor"] == -np.inf


@pytest.mark.parametrize("case", [_radial_indicator_case, _psh_c2_case,
                                  _counterexample_case])
def test_grid_values_are_the_point_searches(case):
    # A grid's value, witness and diagnostics at point i are envelope_at's
    # with point_index=i, bit for bit, whatever the neighbouring points.
    space, u, pts, budget, q = case()
    est = envelope_grid(u, space, pts, budget, q)
    for i, x in enumerate(pts):
        v, wit, diag = envelope_at(u, space, x, budget, q, point_index=i)
        assert np.float64(est.values[i]).tobytes() == np.float64(v).tobytes()
        got = est.witnesses[i]
        assert got.coeffs.tobytes() == wit.coeffs.tobytes()
        assert getattr(got.branch, "label", None) == \
            getattr(wit.branch, "label", None)
        assert est.diagnostics[i] == diag


def test_grid_of_one_matches_point_call():
    u = parse_field("-indicator(ball(0, 0; 0.25))")
    space = euclidean_space(1, radii=1.0)
    est = envelope_grid(u, space, [[0.4]], SMALL, Q64)
    v, wit, _ = envelope_at(u, space, [0.4], SMALL, Q64)
    assert est.values[0] == v
    assert np.array_equal(est.witnesses[0].coeffs, wit.coeffs)


def test_warm_sweep_never_hurts():
    # The grid no longer warm-starts from its neighbours; its values are
    # the point searches, so none of them may sit above envelope_at's.
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


def test_check_submean_refuses_c2():
    # A C^2 grid is no slice of one parameter; reading the first coordinate
    # alone would interpolate it silently.
    pts = [np.array([complex(a), 0j]) for a in np.linspace(-0.5, 0.5, 5)]
    est = EnvelopeEstimate(points=pts, values=[0.0] * 5,
                           witnesses=[None] * 5, diagnostics=[{}] * 5)
    trial = AnalyticDisc(np.array([[0j, 0j], [0.25 + 0j, 0j]]))
    with pytest.raises(NotApplicable):
        check_submean(est, euclidean_space(2), [trial], Q64)


def test_check_submean_rejects_offline_disc():
    # grid on the real axis, disc boundary wanders into the plane
    ticks = np.linspace(-1.0, 1.0, 9)
    pts = [np.array([complex(t)]) for t in ticks]
    est = EnvelopeEstimate(points=pts, values=[0.0] * 9,
                           witnesses=[None] * 9, diagnostics=[{}] * 9)
    trial = AnalyticDisc(np.array([[0.0 + 0j], [0.25 + 0j]]))
    with pytest.raises(InterpolationOutOfRange):
        check_submean(est, euclidean_space(1), [trial], Q64)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
def test_check_submean_refuses_a_bad_tol(tol):
    # At tol = nan, vc > avg + nan is always false: the spike went unflagged.
    est = lattice_estimate(lambda z: 1.0 if z == 0 else 0.0)
    trial = AnalyticDisc(np.array([[0.0 + 0j], [0.25 + 0j]]))
    with pytest.raises(ValueError, match="tol"):
        check_submean(est, euclidean_space(1), [trial], Q64, tol=tol)


def test_check_submean_keeps_minus_infinity():
    # A node at -inf has weight 0 at the neighbouring node 0.25, so the
    # constant disc there reads 0; a circle through the cells at 0 reads -inf.
    est = lattice_estimate(lambda z: -np.inf if z == 0 else 0.0)
    const = AnalyticDisc(np.array([[0.25 + 0j]]))
    assert check_submean(est, euclidean_space(1), [const], Q64) == []
    circle = AnalyticDisc(np.array([[0.25 + 0j], [0.2 + 0j]]))
    reports = check_submean(est, euclidean_space(1), [circle], Q64)
    assert len(reports) == 1
    assert reports[0]["center_value"] == 0.0
    assert reports[0]["boundary_average"] == -np.inf


@pytest.mark.parametrize("seed", range(4))
def test_slice_interp_matches_interp_bilinear(seed):
    rng = np.random.default_rng(seed)
    dom = grid_domain(33)
    g = rng.normal(size=(33, 33))
    if seed:
        g[rng.random((33, 33)) < 0.1 * seed] = -np.inf
    terp = _SliceInterp(dom.points().ravel(), g.ravel())
    # Off-node points, points on grid lines, nodes, and the rectangle's
    # corners and edges.
    lo, hi = dom.x[0], dom.x[-1]
    free = rng.uniform(lo, hi, size=(40, 2))
    on_x = np.column_stack([rng.choice(dom.x, 40), rng.uniform(lo, hi, 40)])
    nodes = rng.choice(dom.x, size=(40, 2))
    corners = np.array([[lo, lo], [lo, hi], [hi, lo], [hi, hi]])
    edge = np.column_stack([rng.choice([lo, hi], 40), rng.uniform(lo, hi, 40)])
    z = np.concatenate([free, on_x, on_x[:, ::-1], nodes, corners,
                        edge, edge[:, ::-1]]) @ [1, 1j]
    want = [interp_bilinear(dom, g, zk) for zk in z]
    np.testing.assert_allclose(terp(z), want, rtol=0, atol=1e-12)


def test_slice_interp_refuses_what_is_not_a_tensor_grid():
    rng = np.random.default_rng(0)
    with pytest.raises(InterpolationOutOfRange, match="tensor grid"):
        _SliceInterp(rng.normal(size=25) + 1j * rng.normal(size=25), np.zeros(25))
    ticks = np.linspace(-0.5, 0.5, 5)
    nodes = (ticks[None, :] + 1j * ticks[:, None]).ravel()
    with pytest.raises(InterpolationOutOfRange, match="tensor grid"):
        _SliceInterp(nodes[1:], np.zeros(24))
    terp = _SliceInterp(nodes, np.zeros(25))
    with pytest.raises(InterpolationOutOfRange, match="rectangle"):
        terp(np.array([0.3 + 0.51j]))


@pytest.mark.parametrize("w_points", [[0.1 + 0.2j, 0.1 - 0.3j, 0.4j], []],
                         ids=["scattered", "lone_origin"])
def test_check_submean_reads_only_the_branches_its_discs_lie_on(w_points):
    # The origin lifts onto both axes.  Scattered w-axis points make the w
    # slice no tensor grid, and without them the origin is a lone point
    # there; a z-axis disc never reads that slice, a w-axis disc does.
    space = two_axes_space()
    ticks = np.linspace(-0.5, 0.5, 5)
    pts = [np.array([complex(a, b), 0j]) for a in ticks for b in ticks]
    pts += [np.array([0j, w]) for w in w_points]
    est = EnvelopeEstimate(points=pts, values=[0.0] * len(pts),
                           witnesses=[None] * len(pts),
                           diagnostics=[{}] * len(pts))
    trial = AnalyticDisc(np.array([[0j], [0.25 + 0j]]), space.branch("zaxis"))
    assert check_submean(est, space, [trial], Q64) == []
    wtrial = AnalyticDisc(np.array([[0j], [0.25 + 0j]]), space.branch("waxis"))
    with pytest.raises(InterpolationOutOfRange, match="tensor grid"):
        check_submean(est, space, [trial, wtrial], Q64)


def test_check_submean_refuses_a_line_of_nodes():
    # A line carries no nonconstant disc of degree below M/2, so a slice
    # needs 2 x 2 nodes even for the constant disc.
    pts = [np.array([t * (1 + 1j)]) for t in np.linspace(0.0, 1.0, 9)]
    est = EnvelopeEstimate(points=pts, values=[0.0] * 9,
                           witnesses=[None] * 9, diagnostics=[{}] * 9)
    const = AnalyticDisc(np.array([[0.5 + 0.5j]]))
    with pytest.raises(InterpolationOutOfRange, match="at least 2 x 2"):
        check_submean(est, euclidean_space(1), [const], Q64)


def test_check_submean_refuses_a_disc_of_degree_m():
    # On the 64 nodes 0.1 + 0.2 z^64 reads 0.3 everywhere: it would pass
    # for a constant disc.
    est = lattice_estimate(lambda z: 1.0 if z == 0 else 0.0)
    coeffs = np.zeros((65, 1), complex)
    coeffs[0, 0], coeffs[64, 0] = 0.1, 0.2
    with pytest.raises(ValueError, match="below the quadrature's M = 64"):
        check_submean(est, euclidean_space(1), [AnalyticDisc(coeffs)], Q64)


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


def _at_the_slack_edge(c0, g, M):
    # The largest scale s for which the rho = 0.999 candidate of the disc
    # c0 + s * g, computed as one product over the whole rho grid, stays
    # within the unit window's 1e-12 slack.
    deg = g.shape[0] - 1
    pow_ = _RHO_GRID[:, None] ** np.arange(deg + 1)

    def top(s):
        c = s * g
        c[0] = c0
        bnds = np.tensordot(c[None] * pow_[..., None], circle_powers(M, deg),
                            axes=([1], [0]))
        return np.abs(bnds[0]).max()

    lo, hi = 0.0, 1.0
    while top(hi) <= 1.0 + 1e-12:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if top(mid) <= 1.0 + 1e-12 else (lo, mid)
    c = lo * g
    c[0] = c0
    return c


def test_window_repair_keeps_the_witness_inside_on_its_own_bits():
    # Trials whose rho = 0.999 repair fits the window by less than the
    # rounding gap between the repair's candidate product and the repaired
    # disc's own boundary: the witness must fit on the values it reports,
    # and its value must be poisson_functional's.
    q = QuadratureSpec(M=128)
    space = euclidean_space(1, [0j], [1.0])
    u = parse_field("-abs2(z1)")
    frame = _Frame(u, space)
    rng = np.random.default_rng(17)
    for _ in range(400):
        g = rng.normal(size=(17, 1)) + 1j * rng.normal(size=(17, 1))
        trial = _at_the_slack_edge(0.5 * rng.random() - 0.25, g, q.M)
        assert not frame.fits(boundary_from_coeffs(trial, q.M))
        coeffs, values, _ = _score_stack(frame, q, [trial])
        witness = AnalyticDisc(coeffs[0])
        assert space.domain_constraint.satisfied(
            witness.boundary_values(q.M), slack=1e-12).all()
        assert values[0] == poisson_functional(u, witness, q)


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
    # The single-disc projection the stacked _project replaced: the grid
    # tried largest first, each scaled disc on its own boundary.
    if frame.fits(boundary_from_coeffs(coeffs, q.M)):
        return coeffs
    for pow_ in _RHO_GRID[:, None] ** np.arange(coeffs.shape[0]):
        scaled = coeffs * pow_[:, None]
        if frame.fits(boundary_from_coeffs(scaled, q.M)):
            return scaled
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
    c0 = np.asarray(frame.constraint.center, dtype=complex)
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


def _serial_descent(frame, q, state, cols, n_rows, iters):
    # The one-trial-at-a-time sweeps the descent ran before its trials were
    # scored in batches; a win, repaired or not, is the new disc.
    coeffs, best, btol = _score(frame, q, state)
    if best == float("-inf") or iters <= 0 or not cols:
        return coeffs, best, btol
    step = _STEP_INIT
    for _ in range(iters):
        improved = False
        for row in range(1, n_rows + 1):
            for col in cols:
                for delta in _steps(step):
                    trial = state.copy()
                    trial[row, col] += delta
                    cand, val, vtol = _score(frame, q, trial)
                    if val < best - max(vtol, btol):
                        state = coeffs = cand
                        best, btol = val, vtol
                        improved = True
                        break
        if not improved:
            step *= _STEP_SHRINK
            if step < 1e-10:
                break
    return coeffs, best, btol


def _descend_full_sweeps(frame, q, coeffs, stage_degree, iters):
    # The descent before a sweep could end at the last win of the sweep
    # before it: every sweep tries every move.
    coeffs, best, btol = _score(frame, q, coeffs)
    if best <= frame.floor or iters <= 0:
        return coeffs, best, btol
    dim, cols = frame.dim, frame.cols
    n_moves = min(stage_degree, coeffs.shape[0] - 1) * len(cols)
    step = _STEP_INIT
    for _ in range(iters):
        improved = False
        deltas = np.array(_steps(step))
        n_try = deltas.size
        span = max(dim, _STACK_SAMPLES // (n_try * q.M * dim))
        m = 0
        while m < n_moves:
            stop = min(m + span, n_moves)
            trials = np.repeat(coeffs[None], n_try * (stop - m), axis=0)
            for j, move in enumerate(range(m, stop)):
                row, col = divmod(move, len(cols))
                trials[j * n_try:(j + 1) * n_try, row + 1, cols[col]] += deltas
            win = _first_improvement(frame, q, trials, best, btol)
            if win is None:
                m = stop
                continue
            i, coeffs, best, btol = win
            if best <= frame.floor:
                return coeffs, best, btol
            improved = True
            m += i // n_try + 1
        if not improved:
            step *= _STEP_SHRINK
            if step < 1e-10:
                break
    return coeffs, best, btol


def _against_full_sweeps(u, space, x, b, q):
    v, w, d = envelope_at(u, space, x, b, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_descend", _descend_full_sweeps)
        v0, w0, d0 = envelope_at(u, space, x, b, q)
    assert _search_bits(v, w, d) == _search_bits(v0, w0, d0)
    assert d["trials"] <= d0["trials"]
    return d["trials"], d0["trials"]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(g=_Z1_FIELDS | _floored_fields(_C1_LEAVES),
       x=st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
       window=st.booleans(), seed=st.integers(0, 3))
def test_sweeps_skip_only_moves_that_lost_to_the_same_disc(g, x, window, seed):
    # A sweep at the step of the sweep before it ends after that sweep's
    # last win unless a move wins first: value, witness, stages, rounds and
    # glue rounds keep the bits of full sweeps, with and without a window,
    # and no more trials are scored.
    space = euclidean_space(1, radii=1.0) if window else euclidean_space(1)
    b = SearchBudget(degree_schedule=(2, 6), restarts=2, descent_iters=6,
                     seed=seed)
    _against_full_sweeps(parse_field(g), space, [complex(*x)], b, Q64)


def test_sweep_after_a_win_skips_the_moves_that_lost_to_it():
    # The random restarts descend toward the constant disc, the minimizer
    # of this subharmonic field: sweeps that win are followed by sweeps at
    # the same step, which now stop after the last winning move.
    b = SearchBudget(degree_schedule=(2, 6), restarts=2, descent_iters=6,
                     seed=1)
    trials, full = _against_full_sweeps(parse_field("abs2(z1 - 0.5)"),
                                        euclidean_space(1, radii=1.0),
                                        [0.3], b, Q64)
    assert trials < full


@pytest.mark.parametrize("text, space, center", [
    ("-indicator(ball(0, 0; 0.25))", euclidean_space(1, [0j], [1.0]), [0.5]),
    ("log(0.001 + abs2(z1)) + abs2(z2)",
     euclidean_space(2, [0j, 0j], [0.6, 0.6]), [0.3, -0.2j]),
    ("-indicator(ball(0, 0; 1))", euclidean_space(1), [2.0]),
    ("-indicator(ball(0, 0; 1))", euclidean_space(1, [0j], [4.0]), [2.0]),
    ("log(0.001 + abs2(z1))", euclidean_space(2), [0.3, -0.2j]),
])
def test_descents_match_serial_reference(text, space, center):
    # The descent, with its stacked repair and scoring, ends where the
    # serial sweeps end, bit for bit: on windowed searches whose trials
    # often leave the window, on the unbounded indicator, descended at
    # degree 16, and on a z1-only field in C^2 without a window, whose
    # descent moves z1 alone while the serial sweeps move both columns.
    # At M = 64 a stack holds 16 moves, so every C^1 sweep is one stack
    # and the windowed C^2 sweep two.
    frame = _Frame(parse_field(text), space)
    center = np.asarray(center, dtype=complex)
    degree = 8 if space.domain_constraint is not None else 16
    b = SearchBudget(degree_schedule=(degree,), descent_iters=4, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(3):
        coeffs = (rng.normal(size=(degree + 1, frame.dim))
                  + 1j * rng.normal(size=(degree + 1, frame.dim))) * 0.3
        coeffs[0] = center
        got = _descend(frame, Q64, coeffs, degree, b.descent_iters)
        want = _serial_descent(frame, Q64, _score(frame, Q64, coeffs)[0],
                               list(range(frame.dim)), degree,
                               b.descent_iters)
        assert _same_bits(got[0], want[0]) and got[1:] == want[1:]


def _overflow_ridge(row1):
    # A degree-8 disc, descended at degree 4, for a field that raises
    # DomainError (0 * inf) where re f passes log(max float) = 709.78 at a
    # node.  The fixed rows 5-8 peak at node 21 of 64, theta = 118.1 deg,
    # 0.94 below the overflow and at least 1.6 above every other node.
    # There a unit step lifts re f by cos(3 theta) = 0.995 on row 3 and by
    # at most 0.882 and 0.831 on rows 1 and 2, so with rows 1-4 at zero no
    # step wins and row 3's first trial raises.
    zeta = np.exp(2j * np.pi * 21 / 64)
    coeffs = np.zeros((9, 1), dtype=complex)
    coeffs[5:, 0] = 2.0 * zeta ** -np.arange(5, 9)
    coeffs[0] = np.log(np.finfo(float).max) - 0.94 - 8.0
    coeffs[1] = row1
    return coeffs


def test_descent_raises_only_where_the_serial_sweep_does():
    # Rows 1-4 form one stack at M = 64, and its row-3 trial raises.  With
    # row 1 at zero the serial sweep reaches that trial and so must the
    # descent.  With row 1 at -i conj(zeta), which moves node 21 by 0, the
    # first trial of row 1 wins and lowers node 21 by 0.471, so the row-3
    # trial made again from the new disc fits: neither raises, and both
    # end on the same bits.
    assert _STACK_SAMPLES // (8 * Q64.M) >= 4
    frame = _Frame(parse_field("abs2(z1 - 700) + 0 * exp(re(z1))"),
                   euclidean_space(1))
    for row1 in (0, -1j * np.exp(-2j * np.pi * 21 / 64)):
        start = _overflow_ridge(row1)
        trial = start.copy()
        trial[3] += _steps(_STEP_INIT)[0]
        with pytest.raises(DomainError):
            _score(frame, Q64, trial)
        if row1 == 0:
            with pytest.raises(DomainError):
                _serial_descent(frame, Q64, start, [0], 4, 1)
            with pytest.raises(DomainError):
                _descend(frame, Q64, start, 4, 1)
            continue
        got = _descend(frame, Q64, start, 4, 1)
        want = _serial_descent(frame, Q64, start, [0], 4, 1)
        assert _same_bits(got[0], want[0]) and got[1:] == want[1:]
        assert not np.array_equal(got[0][1], start[1])


def test_descent_scores_two_rows_per_stack_at_m_512(monkeypatch):
    # At M = 512 in C^1 a stack holds two moves, so a degree-4 sweep with
    # no win is decided in two stacks: a psh field on a constant disc,
    # where no step wins, over three sweeps.
    calls = []
    real = envelope._first_improvement

    def counting(frame, q, trials, best, btol):
        calls.append(len(trials))
        return real(frame, q, trials, best, btol)

    monkeypatch.setattr(envelope, "_first_improvement", counting)
    frame = _Frame(parse_field("abs2(z1)"), euclidean_space(1))
    start = np.zeros((5, 1), dtype=complex)
    start[0] = 0.3
    coeffs, value, _ = _descend(frame, QuadratureSpec(M=512), start, 4, 3)
    assert np.array_equal(coeffs, start) and value == pytest.approx(0.09)
    assert calls == [16, 16] * 3


def test_project_in_batches_matches_single_disc_repair():
    # 160 discs at M = 128 in C^1 span three repair batches of 64
    # (_STACK_SAMPLES / (dim * M)), the last one partial; each disc gets
    # the repair it gets alone, and bnds its own boundary.
    q = QuadratureSpec(M=128)
    frame = _Frame(parse_field("0"), euclidean_space(1, [0j], [1.0]))
    assert _STACK_SAMPLES // (frame.dim * q.M) == 64
    rng = np.random.default_rng(9)
    stack = (rng.normal(size=(160, 7, 1))
             + 1j * rng.normal(size=(160, 7, 1))) * rng.choice(
                 [0.3, 1.0, 4.0], size=(160, 1, 1))
    stack[:, 0] = 0.9 * (rng.random((160, 1)) - 0.5)
    stack[::9, 0] = 0.99
    stack[::9, 1:] *= 40.0
    assert not frame.fits(np.stack([boundary_from_coeffs(c, q.M)
                                    for c in stack])).any()
    bnds = np.empty((1, 160, q.M), dtype=complex).transpose(1, 2, 0)
    got = _project(frame, q, stack, bnds=bnds)
    assert got.shape == stack.shape
    for g, c, bnd in zip(got, stack, bnds):
        assert _same_bits(g, _project_one(frame, q, c))
        assert _same_bits(bnd, boundary_from_coeffs(g, q.M))


def _counting_boundaries(monkeypatch, M):
    # Counts the boundary columns (stack entries times width; one per disc
    # in C^1) that stacked_boundaries computes, and checks that no call
    # holds more than _STACK_SAMPLES samples.
    counted = []
    real = envelope.stacked_boundaries

    def counting(coeffs, m, out):
        n, _, width = np.shape(coeffs)
        assert m == M and n * width * m <= _STACK_SAMPLES
        counted.append(n * width)
        return real(coeffs, m, out)

    monkeypatch.setattr(envelope, "stacked_boundaries", counting)
    return counted


def test_repair_computes_one_boundary_per_rho_tried(monkeypatch):
    # A C^1 disc centred in the unit window with |f'(0)| = a fits at rho
    # exactly when rho * a <= 1, and |f| is the same at every node, so the
    # screen at node 0 rules out rho_0, ..., rho_(k-1) and a repair that
    # picks grid index k computes that one boundary.  The disc 0.99 + 10 z
    # is farthest out at node 0 for every rho: all fourteen are ruled out
    # and only the constant disc's boundary is computed.
    q = QuadratureSpec(M=128)
    frame = _Frame(parse_field("0"), euclidean_space(1, [0j], [1.0]))
    counted = _counting_boundaries(monkeypatch, q.M)
    pow_ = _RHO_GRID[:, None] ** np.arange(4)
    cases = [(0.0, 1.0005, 0), (0.0, 1.25, 6), (0.0, 5.0, 12), (0.99, 10.0, -1)]
    for c0, a, k in cases:
        disc = np.zeros((1, 4, 1), dtype=complex)
        disc[0, 0], disc[0, 1] = c0, a
        counted.clear()
        got = _project(frame, q, disc, worst=np.zeros((1, 1), dtype=int))[0]
        if k < 0:
            assert np.array_equal(got, [[c0], [0], [0], [0]])
        else:
            assert _same_bits(got, disc[0] * pow_[k][:, None])
        assert sum(counted) == 1


@pytest.mark.parametrize("dim, n", [(1, 150), (2, 80)])
def test_project_across_batches_matches_single_disc_repair(monkeypatch, dim, n):
    # More discs than one repair batch of _STACK_SAMPLES / (dim * M) holds,
    # some of which no rho fits: each disc gets the repair it gets alone,
    # bnds its own boundary, and no pass exceeds the sample budget.
    q = QuadratureSpec(M=128)
    space = euclidean_space(dim, [0j, 0.1j][:dim], [1.0, 0.5][:dim])
    frame = _Frame(parse_field("0"), space)
    counted = _counting_boundaries(monkeypatch, q.M)
    rng = np.random.default_rng(23)
    stack = (rng.normal(size=(n, 9, dim))
             + 1j * rng.normal(size=(n, 9, dim))) * rng.choice(
                 [0.1, 0.3, 1.0, 4.0], size=(n, 1, 1))
    win = space.domain_constraint
    stack[:, 0] = win.center + 0.9 * (rng.random((n, dim)) - 0.5) * win.radii
    stack[::11, 0] = win.center + 0.99 * win.radii
    stack[::11, 1:] *= 40.0
    out = ~frame.fits(np.stack([boundary_from_coeffs(c, q.M) for c in stack]))
    stack = stack[out]
    assert len(stack) > _STACK_SAMPLES // (dim * q.M)
    bnds = np.empty((dim, len(stack), q.M), dtype=complex).transpose(1, 2, 0)
    got = _project(frame, q, stack, bnds=bnds)
    assert counted
    picked = set()
    pow_ = _RHO_GRID[:, None] ** np.arange(9)
    for g, c, bnd in zip(got, stack, bnds):
        want = _project_one(frame, q, c)
        assert _same_bits(g, want)
        assert _same_bits(bnd, boundary_from_coeffs(g, q.M))
        hit = [k for k in range(_RHO_GRID.size)
               if np.array_equal(want, c * pow_[k][:, None])]
        picked.add(hit[0] if hit else -1)
    # Several rho values of the grid and the constant-disc fallback occur.
    assert -1 in picked and len(picked) >= 4


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(dim=st.sampled_from([1, 2]),
       degree=st.sampled_from([1, 3, 8, 16, 23, 24, 32, 63]),
       m=st.sampled_from([64, 128]),
       scale=st.sampled_from([0.1, 0.5, 2.0, 40.0, 1e150]),
       edge=st.sampled_from([None, 0, 1]),
       nodes=st.sampled_from(["worst", "random"]),
       seed=st.integers(0, 2**32 - 1))
def test_screened_repair_matches_single_disc_repair(dim, degree, m, scale, edge,
                                                    nodes, seed):
    # Whatever node each coordinate is screened at, a repair keeps the pick
    # and boundary of trying every rho in turn, bit for bit: on both
    # boundary branches (degree 24 up takes the FFT), with coefficients up
    # to 1e150, and on discs whose rho = 0.999 candidate sits at the
    # window's slack edge in either coordinate of C^2.
    rng = np.random.default_rng(seed)
    q = QuadratureSpec(M=m)
    if edge is None:
        space = euclidean_space(dim, [0j, 0.1j][:dim], [1.0, 0.5][:dim])
    else:
        space = euclidean_space(dim, [0j] * dim, [1.0] * dim)
    win = space.domain_constraint
    frame = _Frame(parse_field("0"), space)
    n = int(rng.integers(1, 6))
    stack = (rng.normal(size=(n, degree + 1, dim))
             + 1j * rng.normal(size=(n, degree + 1, dim))) * scale
    stack[:, 0] = win.center + 0.9 * (rng.random((n, dim)) - 0.5) * win.radii
    if edge is not None and edge < dim:
        g = rng.normal(size=(degree + 1, 1)) + 1j * rng.normal(size=(degree + 1, 1))
        stack[0] = 0
        stack[0, 0] = 0.1 * (rng.random(dim) - 0.5)
        stack[0, :, edge] = _at_the_slack_edge(stack[0, 0, edge], g, m)[:, 0]
    unscaled = np.stack([boundary_from_coeffs(c, m) for c in stack])
    out = ~frame.fits(unscaled)
    assume(out.any())
    stack, unscaled = stack[out], unscaled[out]
    if nodes == "worst":
        worst = np.abs(unscaled - win.center).argmax(axis=1)
    else:
        worst = rng.integers(0, m, size=(len(stack), dim))
    bnds = np.empty((dim, len(stack), m), dtype=complex).transpose(1, 2, 0)
    got = _project(frame, q, stack, bnds=bnds, worst=worst)
    for g, c, bnd in zip(got, stack, bnds):
        want = _project_one(frame, q, c)
        assert _same_bits(g, want)
        assert _same_bits(bnd, boundary_from_coeffs(want, m))


def test_screen_rules_nothing_out_at_a_non_finite_value():
    # An inf or NaN coefficient makes the node value or the margin inf or
    # NaN, and leaves every rho open; 5 z is ruled out exactly where
    # 5 rho > 1.
    frame = _Frame(parse_field("0"), euclidean_space(1, [0j], [1.0]))
    stack = np.zeros((4, 3, 1), dtype=complex)
    stack[0, 1:] = 1e308
    stack[1, 1] = np.inf
    stack[2, 2] = complex(np.nan, 0.0)
    stack[3, 1] = 5.0
    pows = _RHO_GRID[:, None] ** np.arange(3)
    may_fit = envelope._screen(frame, 64, stack, np.zeros((4, 1), dtype=int),
                               pows)
    assert may_fit[:3].all()
    assert np.array_equal(may_fit[3], 5.0 * _RHO_GRID <= 1.0)


@pytest.mark.parametrize("space, u, x", [
    (euclidean_space(1, [0j], [1.0]), "-indicator(ball(0, 0; 0.25))", [0.5]),
    (euclidean_space(2, [0j, 0.1j], [1.0, 0.5]),
     "-indicator(ball(0.5, 0, 0, 0; 0.25))", [0.3, 0.2j]),
    (curve_space(two_axes_space().branches, polydisc(2, 1.0)),
     "-indicator(ball(0.5, 0, 0, 0; 0.25))", [0.0, 0.0]),
])
def test_repairs_count_every_pick_of_every_lift(monkeypatch, space, u, x):
    # diag["repairs"][k] is the number of repairs that picked _RHO_GRID[k],
    # the last slot the constant-disc fallbacks, over every lift.
    picks = []
    real = envelope._project

    def recording(frame, q, stack, bnds=None, worst=None):
        got = real(frame, q, stack, bnds=bnds, worst=worst)
        pow_ = _RHO_GRID[:, None] ** np.arange(stack.shape[1])
        for g, c in zip(got, stack):
            hit = [k for k in range(_RHO_GRID.size)
                   if np.array_equal(g, c * pow_[k][:, None])]
            picks.append(hit[0] if hit else _RHO_GRID.size)
        return got

    monkeypatch.setattr(envelope, "_project", recording)
    _, _, diag = envelope_at(parse_field(u), space, x, SMALL, Q64)
    assert len(diag["lifts"]) == (2 if space.kind == "curve" else 1)
    assert diag["repairs"] == np.bincount(
        picks, minlength=_RHO_GRID.size + 1).tolist()
    assert sum(diag["repairs"]) > 0


# The two seed scans a stage ran before they merged into _best_seed, kept as
# references: the dip scan with a euclidean window (its fixed gain/dip
# levels for spaces without a window are gone) and the arc scan without
# one.  Each also returns how many scanned parameters share the winning
# value.


def _dip_log_ref(frame, center, degree, mu, lhi_vec):
    live = np.abs(center - frame.constraint.center) > 1e-12
    n = np.arange(1, degree + 1)
    step = 2.0 * np.sin(np.pi * mu * n) / (np.pi * n)
    P = np.zeros((degree + 1, frame.dim), dtype=complex)
    for ell in range(frame.dim):
        if live[ell] and lhi_vec[ell] > 1e-12:
            P[1:, ell] = (-lhi_vec[ell] / mu) * step
    return P


def _seed_params_ref(frame, center, coarse=24):
    c0 = np.asarray(frame.constraint.center, dtype=complex)
    radii = np.asarray(frame.constraint.radii, dtype=float)
    offset = center - c0
    live = np.abs(offset) > 1e-12
    if not live.any():
        return []
    rel = np.ones(frame.dim)
    rel[live] = np.abs(offset[live]) / radii[live]
    lhi_vec = -np.log(np.clip(rel, 3e-4, 1.0))
    if not (lhi_vec > 1e-12).any():
        return []
    return [(i / (coarse + 2), lhi_vec) for i in range(1, coarse + 1)]


def _best_dip_seed_ref(frame, q, center, degree, incumbent):
    params = _seed_params_ref(frame, center)
    if not params:
        return None

    def score(plist):
        Ps = [_dip_log_ref(frame, center, degree, mu, lhi) for mu, lhi in plist]
        _, values, tols = _score_stack(
            frame, q, _disc_from_log(frame, center, np.stack(Ps))
        )
        return [
            (v, mu, lhi, P, t)
            for v, (mu, lhi), P, t in zip(values.tolist(), plist, Ps, tols.tolist())
        ]

    scored = score(params)
    best = min(scored, key=lambda s: s[0])
    mu0 = best[1]
    fine = [
        (mu0 + j / 256.0, best[2])
        for j in range(-7, 8)
        if j and 0.0 < mu0 + j / 256.0 < 0.97
    ]
    if fine:
        scored = scored + score(fine)
        best = min(scored, key=lambda s: s[0])
    if best[0] >= incumbent - max(best[4], IMPROVE_TOL):
        return None
    disc = _score(frame, q, _disc_from_log(frame, center, best[3][None])[0])[0]
    return disc, best[0], sum(s[0] == best[0] for s in scored)


def _arc_cheb_seed_one(center, degree, alpha):
    # The single-width seed the batched _arc_cheb_seeds replaced.
    n = degree - (degree % 2)
    mf = 4 << (n - 1).bit_length()
    theta = 2.0 * np.pi * np.arange(mf) / mf
    tn = np.zeros(n + 1)
    tn[n] = 1.0
    vals = np.exp(0.5j * n * theta) * npcheb.chebval(
        (np.cos(0.5 * theta) / np.cos(0.5 * alpha)).astype(complex), tn
    )
    rows = np.fft.fft(vals)[: n + 1] / mf
    rows = rows / rows[0]
    rows[0] = 1.0
    out = center[None, :] * rows[:, None]
    out[0] = center
    return out


def _best_arc_seed_ref(frame, q, center, degree, incumbent):
    if frame.constraint is not None or degree < 2:
        return None
    if not (np.abs(center) > 1e-12).any():
        return None
    coarse = [0.2 + 0.1 * i for i in range(11)]

    def scan(alphas):
        seeds = [_arc_cheb_seed_one(center, degree, a) for a in alphas]
        batch = _arc_cheb_seeds(center, degree, alphas)
        assert all(_same_bits(b, s) for b, s in zip(batch, seeds))
        coeffs, values, tols = _score_stack(frame, q, seeds)
        return list(zip(values.tolist(), alphas, coeffs, tols.tolist()))

    scored = scan(coarse)
    for spread in (0.01, 0.002):
        best = min(scored, key=lambda s: (s[0], s[1]))
        fine = [best[1] + j * spread for j in range(-8, 9) if j]
        scored += scan([a for a in fine if 0.05 < a < 1.5])
    best = min(scored, key=lambda s: (s[0], s[1]))
    if best[0] >= incumbent - max(best[3], IMPROVE_TOL):
        return None
    return best[2], best[0], sum(s[0] == best[0] for s in scored)


@pytest.mark.parametrize("text, space, centers", [
    ("-indicator(ball(0, 0; 0.25))", euclidean_space(1, [0j], [1.0]),
     [[0.5], [0.3 + 0.4j], [0.95], [0.0]]),
    ("log(0.001 + abs2(z1)) + abs2(z2)",
     euclidean_space(2, [0j, 0.1j], [1.0, 0.5]),
     [[0.3, -0.2j], [0.6, 0.1j], [0.0, 0.4j]]),
    ("-indicator(ball(0, 0; 1))", euclidean_space(1),
     [[2.0], [1.5j], [3.0 - 1.0j], [0.0]]),
    ("-indicator(ball(0, 0, 0, 0; 1))", euclidean_space(2),
     [[1.5, 0.5j], [2.0, 0.0]]),
])
def test_best_seed_matches_the_parent_scans(text, space, centers):
    # The one seed scan gives the value of the scan it replaced at every
    # center and degree, and the same disc unless the winning value is
    # shared by several parameters (the merged scan breaks such ties
    # towards the smaller parameter, the old dip scan towards the coarse
    # grid).
    frame = _Frame(parse_field(text), space)
    ref = _best_arc_seed_ref if frame.constraint is None else _best_dip_seed_ref
    found = 0
    for center in centers:
        center = np.asarray(center, dtype=complex)
        constant = _score(frame, Q64, center[None].copy())[1]
        for degree in (2, 3, 5, 8, 16, 33, 64):
            for incumbent in (np.inf, constant):
                got = _best_seed(frame, Q64, center, degree, incumbent)
                want = ref(frame, Q64, center, degree, incumbent)
                assert (got is None) == (want is None)
                if got is None:
                    continue
                found += 1
                assert got[1] == want[1]
                assert want[2] > 1 or np.array_equal(got[0], want[0])
    assert found > 0


def _stage_sources(text, space, x, budget, q):
    _, _, diag = envelope_at(parse_field(text), space, x, budget, q)
    return [s["source"] for s in diag["stages"]]


@pytest.mark.parametrize("text, space, x, budget, source", [
    ("-indicator(ball(0, 0; 0.25))", euclidean_space(1, [0j], [1.0]), [0.5],
     SearchBudget(degree_schedule=(8,), restarts=2, descent_iters=4, seed=1),
     "dip"),
    ("-indicator(ball(0, 0; 1))", euclidean_space(1), [2.0],
     SearchBudget(degree_schedule=(8, 16), restarts=1, descent_iters=2,
                  seed=1),
     "arc"),
])
def test_stage_source_names_the_winning_candidate(text, space, x, budget,
                                                  source):
    # The windowed obstacle is won by a dip seed, the unbounded indicator by
    # an arc seed; the labels are deterministic.
    q = QuadratureSpec(M=128)
    sources = _stage_sources(text, space, x, budget, q)
    assert set(sources) <= {"carried", "extra", "restart", "dip", "arc"}
    assert source in sources
    assert _stage_sources(text, space, x, budget, q) == sources
