"""Property: a stacked evaluation gives every disc its value alone.

The search scores its trials in stacks (``envelope._score_stack``), and the
values it reports must recompute bit for bit through ``poisson_functional``
on the witness disc.  So each row of a stacked evaluation has to equal
``poisson_functional`` of that disc (after its window repair) evaluated on
its own, whatever the stack size and wherever the disc sits in the stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshenv.disc import AnalyticDisc
from pshenv.envelope import IMPROVE_TOL, _Frame, _score, _score_stack
from pshenv.functional import QuadratureSpec, parse_field, poisson_functional
from pshenv.hull import CompactSet, membership_field
from pshenv.space import BranchMap, curve_space, euclidean_space

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)

CUSP = BranchMap("cusp", ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]))
CIRCLE = CompactSet.from_points(
    [[np.exp(2j * np.pi * k / 16)] for k in range(16)], blow_radius=0.05)

# (field, space, branch) cases.  log(max(re(z1), 0)) is -inf on every node
# with re(z1) <= 0; the windowed and hull cases repair the discs that leave
# their windows; the cusp case evaluates its field through the pushforward
# to the branch parameter.
CASES = {
    "log": (parse_field("log(0.001 + abs2(z1)) + abs2(z2)"),
            euclidean_space(2), None),
    "exp": (parse_field("exp(3 * re(z1)) - abs2(z1)"), euclidean_space(1), None),
    "pole": (parse_field("1 / re(z1 - 9)"), euclidean_space(1), None),
    # Its samples are a strided view of the complex product, not a copy.
    "real_part": (parse_field("re(z1 * z2)"), euclidean_space(2), None),
    "minus_inf": (parse_field("log(max(re(z1), 0))"), euclidean_space(1), None),
    "indicator": (parse_field("-indicator(ball(0, 0; 0.5))"),
                  euclidean_space(1), None),
    "windowed": (parse_field("max(re(z1), abs2(z1) - 1) + re(z2)"),
                 euclidean_space(2, [0j, 0.1j], [1.0, 0.5]), None),
    "cusp": (parse_field("log(abs2(z1) + abs2(z2))"), curve_space((CUSP,)), CUSP),
    "hull": (membership_field(CIRCLE, 0.2), euclidean_space(1, [0j], [2.0]),
             None),
}


def _random_stack(rng, n, degree, dim, spread):
    stack = (rng.normal(size=(n, degree + 1, dim))
             + 1j * rng.normal(size=(n, degree + 1, dim)))
    stack *= spread * 0.7 ** np.arange(degree + 1)[None, :, None]
    stack[:, 0] = 0.3 * (rng.random((n, dim)) - 0.5)
    return stack


def _same_bits(a, b):
    return np.array_equal(np.float64(a).view(np.int64), np.float64(b).view(np.int64))


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
       log_m=st.integers(4, 10), degree=st.integers(0, 12),
       spread=st.sampled_from([0.05, 0.4, 1.5, 6.0]),
       clip=st.sampled_from([None, -4.0]))
def test_each_stacked_row_is_the_disc_alone(case, seed, n, log_m, degree,
                                            spread, clip):
    u, space, branch = CASES[case]
    frame = _Frame(u, space, branch)
    q = QuadratureSpec(M=2 ** log_m, clip=clip)
    rng = np.random.default_rng(seed)
    trials = _random_stack(rng, n, degree, frame.dim, spread)
    coeffs, values, tols = _score_stack(frame, q, trials)
    # The same discs in reverse order, and one disc inside a larger stack.
    _, back, back_tols = _score_stack(frame, q, trials[::-1])
    pick = int(rng.integers(n))
    extra = _random_stack(rng, 3, degree, frame.dim, spread)
    mixed = np.concatenate([extra[:2], trials[pick:pick + 1], extra[2:]])
    _, mid, mid_tols = _score_stack(frame, q, mixed)
    assert _same_bits(mid[2], values[pick]) and mid_tols[2] == tols[pick]
    for i in range(n):
        alone = poisson_functional(u, AnalyticDisc(coeffs[i], branch), q)
        assert _same_bits(values[i], alone)
        assert _same_bits(back[n - 1 - i], alone)
        assert back_tols[n - 1 - i] == tols[i]
        one = _score(frame, q, trials[i])
        assert np.array_equal(one[0], coeffs[i])
        assert _same_bits(one[1], alone) and one[2] == tols[i]
        if clip is not None:
            assert values[i] >= clip


def test_the_cases_reach_repair_and_minus_infinity():
    # The generated cases do exercise the window repair and -inf rows.
    rng = np.random.default_rng(0)
    q = QuadratureSpec(M=64)
    u, space, branch = CASES["windowed"]
    frame = _Frame(u, space, branch)
    trials = _random_stack(rng, 8, 4, frame.dim, 6.0)
    coeffs, _, _ = _score_stack(frame, q, trials)
    assert not all(np.array_equal(c, t) for c, t in zip(coeffs, trials))
    u, space, branch = CASES["minus_inf"]
    frame = _Frame(u, space, branch)
    trials = _random_stack(rng, 8, 4, 1, 0.05)
    trials[:, 0] = 0.5
    trials[4:, 1:] *= 40.0
    _, values, tols = _score_stack(frame, q, trials)
    assert np.isfinite(values[:4]).all() and np.isneginf(values[4:]).all()
    assert (tols[4:] == IMPROVE_TOL).all()
