"""The two branches of the boundary routine: accuracy, routing and bits.

``disc.stacked_boundaries`` takes a product with ``circle_powers`` for discs
below degree 24 and an inverse FFT from degree 24 up.  Both must give the
polynomial's values on the M nodes to rounding, no disc of degree 24 or
more may build a powers matrix, and the search must still report values
that recompute bit for bit through ``poisson_functional`` on either side.
The product is one BLAS gemm for a whole stack at every width, in either
layout of ``out``, and each row is the disc's lone boundary bit for bit,
with or without zero top rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshenv import disc
from pshenv.disc import (
    DEGREE_CAP,
    AnalyticDisc,
    boundary_error_bound,
    boundary_from_coeffs,
    stacked_boundaries,
)
from pshenv.envelope import (
    _STACK_SAMPLES,
    SearchBudget,
    _Frame,
    _score,
    _score_stack,
    envelope_at,
)
from pshenv.functional import QuadratureSpec, parse_field, poisson_functional
from pshenv.hull import CompactSet, membership_field
from pshenv.space import BranchMap, curve_space, euclidean_space

FFT_DEGREE = disc._FFT_ROWS - 1
EPS = np.finfo(float).eps

CUSP = BranchMap("cusp", ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]))
NODE = BranchMap("node", ([-1, 0, 1], [0, -1, 0, 1]))
CIRCLE = CompactSet.from_points(
    [[np.exp(2j * np.pi * k / 16)] for k in range(16)], blow_radius=0.05)

# The indicator's values are node counts; the windowed and hull cases repair
# discs that leave their windows, the windowed one at times down to the
# constant disc, whose boundary comes from the product branch inside an
# FFT-sized stack; the cusp case pushes its field forward to the branch
# parameter.
CASES = {
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


def _same_samples(a, b):
    # Complex arrays bit for bit, signed zeros included.
    return a.shape == b.shape and all(
        np.array_equal(x.view(np.int64), y.view(np.int64))
        for x, y in ((a.real, b.real), (a.imag, b.imag)))


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
       log_m=st.integers(4, 9), degree=st.integers(20, 70),
       spread=st.sampled_from([0.05, 0.4, 1.5, 6.0]))
def test_stacked_rows_are_the_disc_alone_across_the_fft_threshold(
        case, seed, n, log_m, degree, spread):
    # Degrees 20-70 straddle the threshold, and M = 16 or 32 folds the
    # higher rows onto the lower ones.
    u, space, branch = CASES[case]
    frame = _Frame(u, space, branch)
    q = QuadratureSpec(M=2 ** log_m)
    rng = np.random.default_rng(seed)
    trials = _random_stack(rng, n, degree, frame.dim, spread)
    coeffs, values, tols = _score_stack(frame, q, trials)
    for i in range(n):
        one = _score(frame, q, trials[i])
        assert np.array_equal(one[0], coeffs[i])
        assert _same_bits(one[1], values[i]) and one[2] == tols[i]
        alone = poisson_functional(u, AnalyticDisc(coeffs[i], branch), q)
        assert _same_bits(values[i], alone)


@pytest.mark.parametrize("M", [16, 48, 128, 512])
def test_both_branches_match_eval_at_the_nodes(M):
    # Every degree up to DEGREE_CAP on both branches, deg >= M included,
    # against the disc's own evaluation at the nodes.  eval rounds each
    # power zeta^k with a relative error that grows with k, so the bound is
    # (32 + 2 deg) eps sum |a_k|: the largest distance measured on these
    # draws was about half of that, at M = 48 and degree 49.
    rng = np.random.default_rng(M)
    nodes = np.exp(2j * np.pi * np.arange(M) / M)
    for degree in range(DEGREE_CAP + 1):
        c = rng.normal(size=(2, degree + 1, 2)) + 1j * rng.normal(size=(2, degree + 1, 2))
        for branch in (disc._matmul_boundaries, disc._fft_boundaries):
            out = np.empty((2, 2, M), dtype=complex).transpose(1, 2, 0)
            got = branch(c, M, out)
            for k in range(2):
                want = AnalyticDisc(c[k]).eval(nodes)
                bound = (32 + 2 * degree) * EPS * np.abs(c[k]).sum(axis=0)
                assert np.all(np.abs(got[k] - want) <= bound), (degree, branch)


@pytest.mark.parametrize("M", [16, 64, 512])
def test_boundary_error_bound_holds_on_both_branches(M):
    # Against Horner's rule in extended precision at the exact nodes, for
    # every stack size up to DEGREE_CAP + 1 rows, a disc trimmed to the
    # product branch inside an FFT-sized stack included: the window
    # repair's screen relies on this bound being sound.
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs an extended-precision long double")
    rng = np.random.default_rng(M)
    nodes = np.exp(2j * np.pi * np.arange(M, dtype=np.longdouble) / M)
    for rows in range(1, DEGREE_CAP + 2, 5):
        c = rng.normal(size=(2, rows, 2)) + 1j * rng.normal(size=(2, rows, 2))
        c[1, FFT_DEGREE:] = 0.0
        out = np.empty((2, 2, M), dtype=complex).transpose(0, 2, 1)
        got = stacked_boundaries(c, M, out)
        want = np.zeros((2, M, 2), dtype=np.clongdouble)
        for j in range(rows - 1, -1, -1):
            want = want * nodes[None, :, None] + c[:, j][:, None, :]
        bound = boundary_error_bound(rows, M) * np.abs(c).sum(axis=1)
        assert np.all(np.abs(got - want) <= bound[:, None, :]), rows


def _powers_tables(M, run):
    # Rows of the circle_powers(M, .) tables that run() builds, whoever
    # calls the function and however it was imported: the cache starts
    # empty, loses nothing while run() goes (a table built twice would be a
    # second miss), and afterwards holds only tables of fewer than
    # _FFT_ROWS rows at this M, each found by a probe that hits.
    disc.circle_powers.cache_clear()
    run()
    info = disc.circle_powers.cache_info()
    assert info.misses == info.currsize
    rows = []
    for degree in range(FFT_DEGREE):
        hits = disc.circle_powers.cache_info().hits
        disc.circle_powers(M, degree)
        if disc.circle_powers.cache_info().hits > hits:
            rows.append(degree + 1)
    assert len(rows) == info.currsize
    disc.circle_powers.cache_clear()
    return rows


def test_no_powers_matrix_is_built_for_fft_sized_discs(monkeypatch):
    # The powers cache holds at most degree-23 matrices, so it never grows
    # back to (deg + 1) x M entries per high-degree stage.
    transformed = []
    real_fft = disc._fft_boundaries

    def fft(coeffs, M, out):
        transformed.append(coeffs.shape[1])
        return real_fft(coeffs, M, out)

    monkeypatch.setattr(disc, "_fft_boundaries", fft)

    def stacks():
        rng = np.random.default_rng(7)
        for rows in range(1, DEGREE_CAP + 2):
            c = rng.normal(size=(3, rows, 2)) + 0j
            c[1, 1:] = 0.0       # a constant disc inside a high-degree stack
            c[2, FFT_DEGREE:] = 0.0
            # out with unit stride along M, as stacked_boundaries requires.
            out = np.empty((3, 2, 64), dtype=complex).transpose(0, 2, 1)
            got = stacked_boundaries(c, 64, out)
            for k in range(3):
                assert np.array_equal(got[k], boundary_from_coeffs(c[k], 64))

    assert max(_powers_tables(64, stacks)) == FFT_DEGREE
    assert min(transformed) == disc._FFT_ROWS
    # A degree-32 search in a window scores, screens and repairs its trials
    # on the FFT branch alone.  The point lies outside the ball: inside it
    # the constant disc already reads the field's floor -1, and the search
    # scores no other trial.
    transformed.clear()
    b = SearchBudget(degree_schedule=(32,), restarts=1, descent_iters=1, seed=3)

    def search():
        envelope_at(parse_field("-indicator(ball(0, 0; 0.5))"),
                    euclidean_space(1, [0j], [1.0]), np.array([0.7 + 0j]), b,
                    QuadratureSpec(M=64))

    _powers_tables(64, search)
    assert set(transformed) == {33}


def _both_layouts(n, width, M):
    # The two layouts out comes in: (n, width, M) in memory, as
    # boundary_from_coeffs, _project_batch and the FFT split give it, and
    # (width, n, M), as _score_stack gives it.
    yield np.empty((n, width, M), dtype=complex).transpose(0, 2, 1)
    yield np.empty((width, n, M), dtype=complex).transpose(1, 2, 0)


@pytest.mark.parametrize("M", [16, 48, 128, 512])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_product_rows_are_the_disc_alone_in_both_layouts(M, width):
    # A stack makes one product over all its rows; every row must still be
    # that disc's lone boundary, for stacks of one disc up to the descent's
    # whole sample budget.
    rng = np.random.default_rng(M * width)
    full = _STACK_SAMPLES // (width * M)
    for rows in range(1, FFT_DEGREE + 1):
        for n in sorted({1, 2, max(1, full // 3), full}):
            c = (rng.normal(size=(n, rows, width))
                 + 1j * rng.normal(size=(n, rows, width)))
            c *= 10.0 ** rng.uniform(-3, 6, size=(n, 1, 1))
            alone = [boundary_from_coeffs(c[k], M) for k in range(n)]
            for out in _both_layouts(n, width, M):
                got = stacked_boundaries(c, M, out)
                assert got is out
                for k in range(n):
                    assert _same_samples(got[k], alone[k]), (rows, n, k)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_zero_top_rows_keep_a_discs_bits(width):
    # A disc padded with zero top rows, as a search stack carries it, gets
    # the bits of its trimmed coefficients on the product branch.
    rng = np.random.default_rng(width)
    for M in (16, 128, 512):
        for rows in range(1, FFT_DEGREE):
            c = (rng.normal(size=(4, rows, width))
                 + 1j * rng.normal(size=(4, rows, width)))
            for pad in sorted({1, 3, FFT_DEGREE - rows}):
                padded = np.concatenate([c, np.zeros((4, pad, width))], axis=1)
                for out in _both_layouts(4, width, M):
                    got = stacked_boundaries(padded, M, out)
                    for k in range(4):
                        assert _same_samples(got[k], boundary_from_coeffs(c[k], M))


def test_a_stack_makes_one_product_at_every_width(monkeypatch):
    # psh_grid's C^2 descent stack, 16 trials of degree 8 at M = 512, is one
    # (32 x 9)(9 x 512) product and a C^1 stack one (16 x 9) product; a lone
    # one-column disc takes a zero row along, so that its product is a gemm
    # like a stack's and not a gemv.
    shapes = []
    real = np.matmul

    def counting(a, b, out=None):
        shapes.append(a.shape)
        return real(a, b, out=out)

    monkeypatch.setattr(np, "matmul", counting)
    rng = np.random.default_rng(11)
    for n, width, want in ((16, 2, [(32, 9)]), (16, 1, [(16, 9)]),
                           (1, 1, [(2, 9)])):
        c = rng.normal(size=(n, 9, width)) + 1j * rng.normal(size=(n, 9, width))
        out = np.empty((width, n, 512), dtype=complex).transpose(1, 2, 0)
        shapes.clear()
        stacked_boundaries(c, 512, out)
        assert shapes == want


# Searches whose values did not recompute from their witnesses while a
# one-column disc's product depended on its stack: the C^1 obstacle, a log
# pole and the nodal cubic, each at M = 64 with 3 sweeps.
RECOMPUTE_CASES = {
    "c1_obstacle": ("min(abs2(z1), 0.1)", euclidean_space(1), (2, 3), 1, 1,
                    [-1.5566572372187268 + 0.25815688490831445j]),
    "c1_log": ("log(0.001 + abs2(z1 - 0.3))", euclidean_space(1), (6, 7), 0,
               0, [-0.17841227602723286 - 0.5780991868684293j]),
    "node": ("min(abs2(z1) + abs2(z2), 0.1)", curve_space((NODE,)), (2, 3), 0,
             0, NODE.eval(0.6585852676564852 + 0.49348692123556526j)),
}


@pytest.mark.parametrize("case", sorted(RECOMPUTE_CASES))
def test_one_column_search_values_recompute_from_their_witness(case):
    expr, space, degrees, restarts, seed, x = RECOMPUTE_CASES[case]
    u, q = parse_field(expr), QuadratureSpec(M=64)
    b = SearchBudget(degree_schedule=degrees, restarts=restarts,
                     descent_iters=3, seed=seed)
    value, witness, _ = envelope_at(u, space, np.asarray(x), b, q)
    assert _same_bits(poisson_functional(u, witness, q), value)
