"""Disc-envelope search: minimize the boundary average over centered discs.

For a field u and a point x, the quantity of interest is the infimum of
``poisson_functional(u, f, q)`` over analytic discs f with f(0) = x that stay
in the space (and inside its window, when one is set).  The search is a
direct method: staged coordinate descent on polynomial coefficients.  Each
stage descends the incumbent, any extra seeds and seeded random discs, plus
one structured seed scanned from a family chosen by the window kind: dip
discs inside a euclidean window, arc-Chebyshev discs without one.  Rounds
that glue per-boundary-node sub-searches back onto the disc through a
Laurent-family composition (``disc.compose_rh``) can follow each stage.

Everything is deterministic given the budget seed.  Random streams are
counter-based and keyed by (seed, point index, stage, restart), so grids can
be evaluated in any thread order without changing a single bit of output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .disc import (
    _FFT_ROWS,
    AnalyticDisc,
    BoundaryFamily,
    boundary_error_bound,
    boundary_from_coeffs,
    circle_powers,
    compose_rh,
    fit_laurent,
    stacked_boundaries,
    unit_roots,
)
from .errors import (
    DomainError,
    IllConditioned,
    InterpolationOutOfRange,
    NotApplicable,
    PointOutsideWindow,
)
from .functional import (
    QuadratureSpec,
    ScalarField,
    boundary_means,
    pushforward_field,
)
from .oracle import _bilinear
from .space import SpaceModel, _as_point, lift_point

# A candidate replaces the incumbent only when it wins by this much; keeps
# the accept/reject decisions stable under last-ulp evaluation noise.
IMPROVE_TOL = 1e-12

_FEAS_SLACK = 1e-12


# Descent step: the first sweep's step, and its factor after a sweep that
# accepts no move.
_STEP_INIT = 0.25
_STEP_SHRINK = 0.5
# Random restarts: row j >= 1 is complex normal with scale
# _INIT_SCALE * _DEGREE_DECAY ** (j - 1).
_INIT_SCALE = 0.35
_DEGREE_DECAY = 0.75
# Glue rounds: the composition powers k tried, and the phases per k.  The
# Laurent fit has no pole (m = 0), so every k >= 1 keeps the center.
_K_SCHEDULE = (2, 3, 4, 6, 8, 12, 16)
_N_PHASES = 16


@dataclass(frozen=True)
class SearchBudget:
    """Knobs for one envelope search.

    degree_schedule lists the disc degrees of the successive stages (the
    incumbent is carried forward and re-descended with more rows unlocked).
    rh_rounds > 0 turns on the glue-and-compose rounds after each stage's
    descent; their sub-searches run under ``child_budget`` of this budget.
    """

    degree_schedule: tuple = (2, 8)
    restarts: int = 8
    descent_iters: int = 20
    rh_rounds: int = 0
    seed: int = 0
    boundary_points: int = 8
    child_degree: int = 3

    def __post_init__(self):
        ds = tuple(int(d) for d in self.degree_schedule)
        object.__setattr__(self, "degree_schedule", ds)
        if not ds or ds[0] < 1 or any(b < a for a, b in zip(ds, ds[1:])):
            raise ValueError("degree_schedule must be nondecreasing, all >= 1")
        if self.restarts < 0 or self.descent_iters < 0 or self.rh_rounds < 0:
            raise ValueError("restarts/descent_iters/rh_rounds must be >= 0")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        if self.boundary_points < 4:
            raise ValueError("boundary_points must be >= 4")
        if self.child_degree < 1:
            raise ValueError("child_degree must be >= 1")


def child_budget(b: SearchBudget) -> SearchBudget:
    """Reduced budget for the per-boundary-node sub-searches.

    Single low-degree stage, a third of the restarts and descent sweeps, and
    no nested glue rounds, so one round costs roughly a tenth of the parent.
    """
    return replace(
        b,
        degree_schedule=(min(b.child_degree, b.degree_schedule[-1]),),
        restarts=max(2, b.restarts // 2),
        descent_iters=max(8, b.descent_iters // 2),
        rh_rounds=0,
    )


@dataclass
class EnvelopeEstimate:
    """Grid of envelope values with their witness discs and diagnostics."""

    points: list = field(default_factory=list)
    values: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def __len__(self):
        return len(self.points)


# ---------------------------------------------------------------------------
# Search frame: euclidean identity or one branch chart.


class _Frame:
    """Where the coefficient search lives.

    On euclidean spaces discs are searched directly in C^N.  On a curve the
    search runs in the branch parameter and the field is pushed forward, so
    the same descent code serves both; this is also what makes the euclidean
    and curve paths bitwise comparable.  cols lists the coefficient columns
    a descent moves: in C^N without a window only those the field reads,
    since no other column can change a value; every column otherwise, as a
    window repair rescales them all and a curve has one.  floor is the
    searched field's lower bound ``ScalarField.floor``, on a curve that of
    the pushed-forward field, which is its constant value where the branch
    holds constant every coordinate the field reads
    (``BranchCompose.value_range``): a disc whose value is at or below it
    is optimal.  screens says whether the descent skips the trials
    whose samples cannot fall below their incumbent's (``_room``): only in
    C^N, for a field whose leaves are constants and indicators
    (``ScalarField.piecewise_constant``); a pushed-forward field is not one.
    trials counts the discs handed to ``_score_stack``, steady the descent
    trials skipped instead; repairs[k] counts the window repairs that
    picked _RHO_GRID[k], and its last slot those that fell back to the
    constant disc.  buf is the flat complex buffer ``_score_stack`` writes
    each stack's boundaries into, grown to the largest stack scored.
    """

    __slots__ = ("u_eff", "branch", "dim", "constraint", "cols", "floor",
                 "screens", "trials", "steady", "repairs", "buf")

    def __init__(self, u: ScalarField, space: SpaceModel, branch=None):
        self.branch = branch
        self.dim = 1 if branch is not None else space.ambient_dim
        self.u_eff = u if branch is None else pushforward_field(u, branch)
        self.constraint = space.domain_constraint
        if branch is None and self.constraint is None and u.reads is not None:
            self.cols = sorted(u.reads)
        else:
            self.cols = list(range(self.dim))
        self.floor = self.u_eff.floor
        self.screens = self.u_eff.piecewise_constant
        self.trials = 0
        self.steady = 0
        self.repairs = np.zeros(_RHO_GRID.size + 1, dtype=np.int64)
        self.buf = np.empty(0, dtype=complex)

    def fits(self, B):
        """Whether each boundary in B, shape (..., M, dim), is in the window."""
        if self.constraint is None:
            return np.ones(B.shape[:-2], dtype=bool)
        amb = self.branch.eval(B[..., 0]) if self.branch is not None else B
        return np.all(self.constraint.satisfied(amb, slack=_FEAS_SLACK), axis=-1)


# Roundoff in the sample mean grows with the magnitude of the samples; on a
# flat objective the search would otherwise ratchet downward on pure noise
# from large-coefficient trials (the mean cancels, its error does not).
_NOISE_ULPS = 256.0 * np.finfo(float).eps


# Trial scales for the window repair, largest first.  A fixed grid instead
# of a bisection: repair only needs a workable rho, not the exact
# feasibility edge.  Each disc computes full boundaries only from its first
# rho that ``_screen`` cannot rule out at one node, in grid order: about one
# boundary per repaired disc on the windowed benchmark workloads (4,576 for
# 4,206 discs in a seed-1 obstacle_cli pass), where trying the grid in
# order from its top took about 6 (24,949).
_RHO_GRID = np.array(
    [0.999, 0.99, 0.97, 0.94, 0.9, 0.85, 0.78, 0.7,
     0.6, 0.5, 0.38, 0.25, 0.12, 0.03]
)

# Boundary samples per stacked pass: a descent stack holds this many trial
# samples, and a window repair computes at most this many per pass of a
# batch.  8,192 complex128 samples are 128 KiB, glibc's default mmap
# threshold; a larger buffer is mapped and page-faulted afresh on every
# pass, which made 16,384 slower than 8,192 however few calls it saved.
_STACK_SAMPLES = 8192


def _project(frame: _Frame, q: QuadratureSpec, stack, bnds=None, worst=None):
    """Shrink each disc of a stack into the window: row j is scaled by rho**j.

    stack has shape (n, deg+1, dim) and holds discs that leave the window;
    callers test that first.  Reparametrizing by a smaller circle keeps the
    center fixed.  Each disc takes the largest rho of a fixed grid whose
    scaled disc fits on its own boundary, or else the constant disc at the
    center (rho = 0, feasible for a feasible center).  worst, shape
    (n, dim), names for each disc and coordinate a node to screen the grid
    at (``_screen``): a rho whose scaled disc is surely outside the window
    there is never tried on the full boundary.  Without worst, as on a
    curve, every rho is tried.  The discs go in consecutive batches of at
    most _STACK_SAMPLES / (dim * M) (at least one), so a large stack does
    not raise peak memory; each disc's pick is its own, whatever the batch.
    Returns the new (n, deg+1, dim) stack; bnds, shape (n, M, dim) with unit
    stride along M, receives the boundaries of the returned discs when
    given.  ``frame.repairs`` counts the picks.
    """
    n, _, dim = stack.shape
    if bnds is None:
        bnds = np.empty((n, dim, q.M), dtype=complex).transpose(0, 2, 1)
    per = max(1, _STACK_SAMPLES // (dim * q.M))
    out = np.empty(stack.shape, dtype=complex)
    for lo in range(0, n, per):
        out[lo:lo + per] = _project_batch(
            frame, q.M, stack[lo:lo + per], bnds[lo:lo + per],
            None if worst is None else worst[lo:lo + per])
    return out


def _project_batch(frame, M, stack, bnds, worst):
    """``_project`` of one batch; bnds receives the returned discs' boundaries.

    Each pass computes, in one ``stacked_boundaries`` call, every unresolved
    disc scaled by its own candidate: its first rho not ruled out by the
    screen, then its next one after each full test it fails, and the
    constant disc once none is left.  A rho is ruled out only when the full
    test would reject it, so each disc gets the pick and boundary of trying
    the whole grid in order, bit for bit.
    """
    n, rows, dim = stack.shape
    n_rho = _RHO_GRID.size
    pows = _RHO_GRID[:, None] ** np.arange(rows)
    # may_fit[i, k]: rho k may fit disc i; column n_rho, the constant disc,
    # always does.
    may_fit = np.ones((n, n_rho + 1), dtype=bool)
    if worst is not None:
        may_fit[:, :n_rho] = _screen(frame, M, stack, worst, pows)
    out = np.zeros_like(stack)
    out[:, 0] = stack[:, 0]
    pick = may_fit.argmax(axis=1)
    left = np.arange(n)
    while left.size:
        k = pick[left]
        const = k == n_rho
        cand = stack[left] * pows[np.minimum(k, n_rho - 1)][:, :, None]
        cand[const] = out[left[const]]
        bnd = np.empty((left.size, dim, M), dtype=complex).transpose(0, 2, 1)
        stacked_boundaries(cand, M, out=bnd)
        fit = const | frame.fits(bnd)
        out[left[fit]] = cand[fit]
        bnds[left[fit]] = bnd[fit]
        left = left[~fit]
        later = may_fit[left] & (np.arange(n_rho + 1) > pick[left][:, None])
        pick[left] = later.argmax(axis=1)
    frame.repairs += np.bincount(pick, minlength=n_rho + 1)
    return out


def _screen(frame, M, stack, worst, pows):
    """Which rho of the grid may fit each disc: (n, len(_RHO_GRID)) bool.

    Each coordinate l of disc i is evaluated at the node worst[i, l] for
    every rho in one product, and rho is ruled out (False) when some
    coordinate's value is outside the window by more than a rounding
    margin, since then the full test ``_Frame.fits`` rejects it.  A value
    or margin that is inf or NaN rules nothing out.

    The margin.  Notation: u = 2^-53; for one disc, coordinate and rho,
    a_j are the K = rows coefficients, S = sum |a_j|, p_j = fl(rho^j) <= 1
    the row of pows the repair scales by, s_j = fl(a_j p_j) the scaled
    coefficients (sum |s_j| <= S to first order), zeta the exact node,
    P_j = ``unit_roots(M)[node] ** j`` the power the screen reads (below
    _FFT_ROWS rows it reads that entry of ``circle_powers``, the same bits,
    from the table the product branch scored the stack with), and
    g = sum s_j zeta^j; c, r the window's centre and radius and
    slack = _FEAS_SLACK.
      - The full boundary b at the node, by ``stacked_boundaries``:
        |b - g| <= e S, e = ``boundary_error_bound(K, M)``, whose
        derivation also bounds |P_j - zeta^j| by 40 K u.
      - The screen's value v = fl(sum_j p_j fl(a_j P_j)): its two complex
        products (sqrt(2) gamma_2 each) and s_j's rounding put each term
        within (40 K + 8) u |a_j| of s_j zeta^j, and the sum adds
        sqrt(2) gamma_K, so |v - g| <= (42 K + 8) u S.
    Together |b - v| <= E = (e + (42 K + 8) u) S.  The full test rejects
    when fl(|fl(b - c)|) > fl(r + slack); the subtraction and the modulus
    (hypot, within an ulp) move |b - c| by at most 3u relatively, and
    fl(r + slack) <= (r + slack)(1 + u).  The screen rules rho out when
    d = fl(|fl(v - c)|) > fl(fl(r + slack) + margin), so
    |b - c| >= d / (1 + 3u) - E, and the full test rejects whenever
    margin (1 - 8u) >= E + 9u (r + slack).  The margin is twice that right
    side, which covers second-order terms and its own rounding; underflow's
    absolute errors stay far below the 9u slack term.
    """
    win, u, rows = frame.constraint, 2.0**-53, stack.shape[1]
    if rows < _FFT_ROWS:
        at = circle_powers(M, rows - 1)[:, worst].transpose(1, 0, 2)
    else:
        # No powers table is kept for FFT-sized discs.
        at = unit_roots(M)[worst][..., None] ** np.arange(rows)
        at = at.transpose(0, 2, 1)
    err = boundary_error_bound(rows, M) + (42 * rows + 8) * u
    with np.errstate(over="ignore", invalid="ignore"):
        vals = pows @ (stack * at)
        margin = 2 * (err * np.add.reduce(np.abs(stack), axis=1)
                      + 9 * u * (win.radii + _FEAS_SLACK))
        dev = np.abs(vals - win.center)
        bar = win.radii + _FEAS_SLACK + margin
        out = np.isfinite(dev) & (dev > bar[:, None, :])
    return ~out.any(axis=2)


def _score_stack(frame, q, trials):
    """Repair the trials that leave the window, then evaluate them all.

    trials is a (n, deg+1, dim) stack, or a sequence of n such discs.  The
    boundaries come out of one ``stacked_boundaries`` call, bit for bit
    those of ``boundary_from_coeffs`` on either of its branches; the trials
    that leave the window are repaired together by one ``_project`` call,
    screened in C^N at each coordinate's node farthest from the window's
    centre, which hands back the boundaries it tested each repair on, and all n
    boundaries go through the field in one pass.  Returns (coeffs, values,
    thresholds): coeffs[i] is trials[i] itself or its repair, values[i] is
    ``poisson_functional`` of that disc bit for bit, and thresholds[i] is
    the margin by which a value must beat an incumbent: IMPROVE_TOL inflated
    to a few hundred ulps of the mean absolute sample, the resolution below
    which two evaluations cannot be told apart (IMPROVE_TOL for a value of
    -inf or +inf, whose sample scale is infinite too).
    """
    M, n = q.M, len(trials)
    frame.trials += n
    arr = np.asarray(trials)
    # (dim, trial, node): each trial's (M, dim) boundary is column-contiguous,
    # as boundary_from_coeffs gives it to the field, so every sample is
    # computed by the same elementwise code.  It lives in frame.buf: a fresh
    # array per stack, freed at the top of the heap together with the
    # field's temporaries of about its size, can reach glibc's trim
    # threshold (twice the largest mapped block freed so far), and then
    # every stack hands its pages back and faults them in again.
    size = frame.dim * n * M
    if frame.buf.size < size:
        frame.buf = np.empty(size, dtype=complex)
    stack = frame.buf[:size].reshape(frame.dim, n, M)
    stacked_boundaries(arr, M, out=stack.transpose(1, 2, 0))
    coeffs = list(trials)
    if frame.constraint is not None:
        out = np.flatnonzero(~frame.fits(stack.transpose(1, 2, 0)))
        if out.size:
            worst = None
            if frame.branch is None:
                dev = np.abs(stack[:, out] - frame.constraint.center[:, None, None])
                worst = dev.argmax(axis=2).T
            sub = np.empty((frame.dim, out.size, M), dtype=complex)
            fixed = _project(frame, q, arr[out], bnds=sub.transpose(1, 2, 0),
                             worst=worst)
            stack[:, out] = sub
            for i, c in zip(out.tolist(), fixed):
                coeffs[i] = c
    samples = frame.u_eff.values(stack.reshape(frame.dim, -1).T).reshape(n, M)
    values = boundary_means(samples)
    scale = np.add.reduce(np.abs(samples), axis=1) / M
    tols = np.maximum(_NOISE_ULPS * scale, IMPROVE_TOL)
    tols[np.isinf(values)] = IMPROVE_TOL
    return coeffs, values, tols


def _score(frame, q, trial):
    """``_score_stack`` on a stack of one: (trial or its repair, value,
    accept threshold)."""
    coeffs, values, tols = _score_stack(frame, q, [trial])
    return coeffs[0], float(values[0]), float(tols[0])


def _rng(key: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _random_coeffs(rng, center, degree: int):
    c = np.zeros((degree + 1, center.size), dtype=complex)
    c[0] = center
    if degree:
        scales = _INIT_SCALE * _DEGREE_DECAY ** np.arange(degree)
        noise = rng.standard_normal((degree, center.size, 2))
        c[1:] = (noise[..., 0] + 1j * noise[..., 1]) * scales[:, None] / np.sqrt(2.0)
    return c


def _resize(coeffs, degree: int, dim: int):
    """Copy into a (degree+1, dim) array, padding or dropping high rows."""
    out = np.zeros((degree + 1, dim), dtype=complex)
    rows = min(coeffs.shape[0], degree + 1)
    out[:rows] = coeffs[:rows]
    return out


# ---------------------------------------------------------------------------
# Structured seeds: one disc family per window kind, scanned over its
# parameter.

# The dip family's coarse grid: arc measures i / (_DIP_COARSE + 2).
_DIP_COARSE = 24


def _exp_coeffs(P):
    """Coefficients of exp(P) truncated at P's degree, columnwise.

    P is a stack of log-shapes, shape (n, degree+1, dim).  Uses the
    derivative recurrence, one step for the whole stack; the constant row is
    exactly exp(P[:, 0]), so P[:, 0] = 0 gives a unit constant term with no
    rounding.
    """
    E = np.zeros_like(P)
    E[:, 0] = np.exp(P[:, 0])
    for k in range(1, P.shape[1]):
        j = np.arange(1, k + 1)
        E[:, k] = np.sum(j[:, None] * P[:, 1 : k + 1] * E[:, :k][:, ::-1], axis=1) / k
    return E


def _disc_from_log(frame, center, P):
    """Assemble anchor + offset * exp(P) for a stack of log-shapes P.

    The anchor is the window's center.  P has shape (n, degree+1, dim); the
    center row of every disc is exact.
    """
    c0 = np.asarray(frame.constraint.center, dtype=complex)
    f = c0 + (center - c0) * _exp_coeffs(P)
    f[:, 0] = center
    return f


def _dip_family(frame, center, degree: int):
    """The two-level dip seeds at this center as a ``_best_seed`` family,
    or None when no coordinate's offset from the window's center has room.

    Seed mu is anchor + offset * exp(P): exp(P) holds near exp(lhi) off a
    dip arc of measure mu and drops on it, with the levels balanced so the
    constant term is exactly 1.  The high level lhi pushes each offset to
    the wall; coordinates with no offset stay put.
    """
    c0 = np.asarray(frame.constraint.center, dtype=complex)
    offset = center - c0
    live = np.abs(offset) > 1e-12
    rel = np.ones(frame.dim)
    rel[live] = np.abs(offset[live]) / frame.constraint.radii[live]
    lhi = -np.log(np.clip(rel, 3e-4, 1.0))
    cols = lhi > 1e-12
    if not cols.any():
        return None
    n = np.arange(1, degree + 1)

    def make(mus):
        P = np.zeros((len(mus), degree + 1, frame.dim), dtype=complex)
        for i, mu in enumerate(mus):
            step = 2.0 * np.sin(np.pi * mu * n) / (np.pi * n)
            P[i, 1:][:, cols] = step[:, None] * (-lhi[cols] / mu)
        return _disc_from_log(frame, center, P)

    coarse = [i / (_DIP_COARSE + 2) for i in range(1, _DIP_COARSE + 1)]
    return make, coarse, ((1 / 256, 7),), (0.0, 0.97)


def _arc_cheb_seeds(center, degree: int, alphas):
    """Seeds whose offset from the origin is small off a gap arc, one per
    gap width alpha, as an (n_alpha, n+1, dim) stack.

    Chebyshev polynomial of the even degree n <= degree composed with the
    standard arc-to-interval map, evaluated on a fine circle grid and read
    back off by FFT; degree-graded growth on the gap buys the drop
    everywhere else.  The ratio against its own constant term keeps the
    center row exact.  Every width is evaluated on one (n_alpha, grid)
    array and transformed by one FFT along its rows.
    """
    n = degree - (degree % 2)
    mf = 4 << (n - 1).bit_length()
    theta = 2.0 * np.pi * np.arange(mf) / mf
    tn = np.zeros(n + 1)
    tn[n] = 1.0
    half = np.cos(0.5 * np.asarray(alphas, dtype=float))
    vals = np.exp(0.5j * n * theta) * npcheb.chebval(
        (np.cos(0.5 * theta)[None, :] / half[:, None]).astype(complex), tn
    )
    rows = np.fft.fft(vals, axis=-1)[:, : n + 1] / mf
    rows = rows / rows[:, :1]
    rows[:, 0] = 1.0
    out = center[None, None, :] * rows[:, :, None]
    out[:, 0] = center
    return out


def _arc_family(center, degree: int):
    """The arc-Chebyshev seeds at this center, as a ``_best_seed`` family,
    or None.

    The gap width alpha is the parameter.  The gap growth is enormous, so
    the family serves only unbounded windows; it needs degree >= 2 and a
    center off the origin.
    """
    if degree < 2 or not (np.abs(center) > 1e-12).any():
        return None

    def make(alphas):
        return _arc_cheb_seeds(center, degree, alphas)

    coarse = [0.2 + 0.1 * i for i in range(11)]
    return make, coarse, ((0.01, 8), (0.002, 8)), (0.05, 1.5)


def _best_seed(frame, q, center, degree: int, incumbent: float):
    """The stage's structured seed: best (coeffs, value) of one scan, or None.

    The family comes from the window kind: dip seeds inside a euclidean
    window, arc-Chebyshev seeds without one, none on a curve with a window.
    A family is (make, coarse, rounds, (lo, hi)): make maps a parameter list
    to discs, which are scored as one stack.  After the coarse grid, each
    (spread, reach) round scores the leader's parameter plus j * spread for
    0 < |j| <= reach, inside (lo, hi); node crossings make the value a step
    function of the parameter, so descent cannot tune it.  The least value
    wins, ties going to the smaller parameter.  None unless the winner beats
    the incumbent by its own noise threshold, so descent time goes only to
    seeds that already lead.
    """
    if frame.constraint is None:
        family = _arc_family(center, degree)
    elif frame.branch is None:
        family = _dip_family(frame, center, degree)
    else:
        family = None
    if family is None:
        return None
    make, coarse, rounds, (lo, hi) = family

    def scan(params):
        coeffs, values, tols = _score_stack(frame, q, make(params))
        return list(zip(values.tolist(), params, coeffs, tols.tolist()))

    scored = scan(coarse)
    for spread, reach in rounds:
        lead = min(scored, key=lambda s: (s[0], s[1]))[1]
        fine = [lead + j * spread for j in range(-reach, reach + 1) if j]
        fine = [p for p in fine if lo < p < hi]
        if fine:
            scored += scan(fine)
    best = min(scored, key=lambda s: (s[0], s[1]))
    if best[0] >= incumbent - best[3]:
        return None
    return best[2], best[0]


# ---------------------------------------------------------------------------
# Coefficient descent.


def _steps(step):
    """The eight trial steps of one move, in the order they are tried.

    Large steps first: flat objectives (indicators) have plateaus that unit
    steps cannot cross.
    """
    mags = (4.0 * step, step)
    return [d for mag in mags for d in (mag, -mag, mag * 1j, -mag * 1j)]


def _first_improvement(frame, q, trials, best, btol):
    """The first trial, in order, that beats ``best``; else None.

    Returns its index and what ``_score`` gives for it: (index, trial,
    value, accept threshold).  The trials, which may span several moves and
    rows of a descent sweep, are scored together by ``_score_stack``, whose
    values are the ones ``_score`` gives each trial alone, so the first
    trial whose value is below best - max(threshold, btol) wins, as it would
    scored in turn.
    """
    try:
        coeffs, values, tols = _score_stack(frame, q, trials)
    except DomainError:
        # Some trial's samples are outside the field's domain: decide the
        # trials one by one, so that the error is raised at that trial and
        # only if the search reaches it.
        for i, trial in enumerate(trials):
            cand, val, vtol = _score(frame, q, trial)
            if val < best - max(vtol, btol):
                return i, cand, val, vtol
        return None
    wins = np.flatnonzero(values < best - np.maximum(tols, btol))
    if not wins.size:
        return None
    i = int(wins[0])
    return i, coeffs[i], float(values[i]), float(tols[i])


def _room(frame, M, coeffs):
    """Per column, the step below which a descent trial cannot beat the
    incumbent: no sample of it is below the incumbent's at the same node.
    An array of shape (dim,).

    A trial adds delta, |delta| = mag, to one coefficient a of column c
    (rows >= 1), as ``_descend`` makes it, so a' = fl(a + delta) moves
    one part of a by mag, and |a' - a| <= d = mag (1 + u) + u A, A the
    column's largest |a_j| (u = 2^-53).  With e = ``boundary_error_bound``
    for the disc's K rows and S_l = sum_j |a_jl|, every value
    ``stacked_boundaries`` computes is within e S of exact, on either of its
    branches; so at each node column c of the trial is within
    d + e (S_c + S_c') <= d (1 + e) + 2 e S_c of the incumbent's
    (|zeta^j| = 1, S_c' <= S_c + d), and every other column l within
    2 e S_l, which covers a trial that moves the disc to the other branch.
    The node moves by at most the sum, in the euclidean norm of C^N.

    The trial is steady when that sum is below reach, the least fall slack
    (``ScalarField.slack`` of way -1) over the incumbent's nodes, and each
    column's move is below clear_l, its clearance to the window wall: no
    node's field value falls, and the trial passes ``_Frame.fits``, so it
    is not repaired.  ``boundary_means`` adds each row in a fixed order
    and divides by M, both monotone under rounding to nearest, so its
    value is at least the incumbent's, and it cannot win.  It cannot
    raise DomainError either: the nodes asked for way 0 keep their bits,
    and the others sit under operators whose ranges are finite, where no
    value is NaN or infinite.  The nodes are those of
    ``stacked_boundaries`` on the incumbent alone, which are the bits its
    samples were taken at, as a disc gets the same bits in any stack.
    The wall: ``fits`` passes a node when fl(|fl(b - w)|) <= W =
    fl(r + _FEAS_SLACK), w the window's centre; the subtraction and hypot
    put the computed modulus within 4u of |b - w|, so a node moved by m
    passes when (dev (1 + 5u) + m)(1 + 4u) <= W, dev the modulus computed
    at b, and clear_l = min over nodes of W (1 - 8u) - dev (1 + 8u) is
    below that by more than its own rounding (+inf without a window).

    Solving for mag gives the returned bound: a trial of magnitude below
    it in column c is steady.  S, A and sum S are raised and the limits
    lowered by g = 2^-40, which covers the rounding of each sum (K < 2^12
    terms) and of every step after it.  If some column's 2 e S_l does not
    clear its wall, no trial is steady.
    """
    u, g = 2.0**-53, 2.0**-40
    bnd = np.empty((1, frame.dim, M), dtype=complex).transpose(0, 2, 1)
    b = stacked_boundaries(coeffs[None], M, out=bnd)[0]
    reach = float(frame.u_eff.slack(b, -1).min())
    clear = np.full(frame.dim, np.inf)
    if frame.constraint is not None:
        win = frame.constraint
        wall = (win.radii + _FEAS_SLACK) * (1 - 8 * u)
        clear = np.min(wall - np.abs(b - win.center) * (1 + 8 * u), axis=0)
    e = boundary_error_bound(coeffs.shape[0], M)
    mod = np.abs(coeffs)
    S = np.add.reduce(mod, axis=0) * (1 + g)
    A = mod.max(axis=0) * (1 + g)
    with np.errstate(invalid="ignore", over="ignore"):
        if not np.all(2 * e * S < clear):
            return np.zeros(frame.dim)
        limit = np.minimum(reach - 2 * e * S.sum() * (1 + g), clear) * (1 - g)
        mag = ((limit - (u * A + 2 * e * S) * (1 + e) * (1 + g))
               / ((1 + u) * (1 + e)) * (1 - g))
    return np.where(mag > 0, mag, 0.0)  # 0 for NaN too


def _descend(frame, q, coeffs, stage_degree: int, iters: int):
    """First-improvement descent over rows 1..stage_degree.

    The start disc is repaired into the window if it leaves it.  Each sweep
    tries the eight steps of ``_steps`` at every coefficient of the columns
    in ``frame.cols``, one move per (row, column) pair in row-major order.
    In C^N without a window those are the columns the field reads: a trial
    that moves another column has the incumbent's read columns bit for bit,
    since a gemm row of the product branch depends on no other row, so its
    value equals ``best`` and could never win.  From degree 24 up that can
    fail: giving an unread column its first nonzero row >= 24 moves the
    whole disc to the FFT branch, which may round the read columns
    differently, and the skip drops such rounding-only wins.  The trials of
    the next k moves, k = max(8 * dim, _STACK_SAMPLES // (M * dim)) // t
    for t trials per move (eight, or four in a calm sweep, below), so that
    a stack holds as many trials either way, form one stack that
    ``_first_improvement`` decides together, repairing those that leave the
    window by ``_project`` (row scaling, center row untouched); a stack may
    span several rows.  When ``frame.screens``, each incumbent (the start
    disc and every win) gets its ``_room``, and a stack leaves out the
    trials whose step is below their column's room: no sample of theirs
    can fall below the incumbent's, so they would score at least the
    incumbent's value and lose, and they cannot raise DomainError.  A
    stack with no trial left is never built, so a sweep
    whose every trial is steady is a sweep with no win; ``frame.steady``
    counts the trials left out.  The first win, repaired or not, is the new
    disc and makes the later trials of its stack stale, so the sweep goes on
    from the move after it with trials made again from the new disc; a
    stack with no win moves the sweep on by k.  A move that does not win
    leaves the disc as it was, so these are the decisions of trying every
    move in turn.  The step shrinks after a sweep with no accepted move.  A
    sweep at the step of the one before it, whose last win was move W, ends
    after move W unless a move wins first: moves W+1 on lost to this very
    disc at this very step, so they would lose again.  Once 4 * step <=
    since, the step of the sweep the disc won in (_STEP_INIT for the start
    disc), a sweep is calm: each move forms only its four trials of size
    step, not those of size 4 * step.  The step shrinks only after a sweep
    with no win, and the sweep at step since that follows the win covers the
    moves before it, so every move lost to this disc at step since, all
    eight trials, before the step first shrank, and every later sweep had
    no win.  A trial of size 4 * step was thus tried against this very disc
    two step cuts before, as the smaller size (the step halves exactly, so
    4 * (s / 4) is s): it lost, or was left out as steady, so it would lose
    again, and it cannot raise DomainError, since it was scored once without
    raising.  A win inside a calm sweep sets since to the step, so the rest
    of that sweep forms all eight trials again: the new disc has lost
    nothing yet.  With both rules no trial is scored twice against one
    disc.  The descent stops as soon as the disc's value is at or below
    ``frame.floor``, the field's lower bound (at once for -inf): a trial
    wins only by beating the value by its threshold, at least 256 ulps of
    its mean |sample|, and the mean of samples that are all >= floor rounds
    below floor by far less, so no later trial could win.  Returns (coeffs,
    value, accept threshold of the winning evaluation).
    """
    coeffs, best, btol = _score(frame, q, coeffs)
    if best <= frame.floor or iters <= 0:
        return coeffs, best, btol
    dim, cols = frame.dim, frame.cols
    n_moves = min(stage_degree, coeffs.shape[0] - 1) * len(cols)
    if frame.screens:
        # The step below which each move's trials are steady.
        col_at = np.asarray(cols, dtype=np.intp)[np.arange(n_moves) % len(cols)]
        room = _room(frame, q.M, coeffs)[col_at]
    # since: the step of the sweep in which the disc won (_STEP_INIT for the
    # start disc).
    step = since = _STEP_INIT
    end = n_moves
    for _ in range(iters):
        # Moves from ``tried`` on lost to the disc after the sweep's last win.
        tried = None
        full = np.array(_steps(step))
        # The stack's trials to score, by index; None scores them all.
        pick = None
        m = 0
        while m < end:
            # A calm stack leaves out the steps of 4 * step, which lost to
            # this disc two step cuts ago.
            deltas = full[4:] if 4 * step <= since else full
            n_try = deltas.size
            span = max(8 * dim, _STACK_SAMPLES // (q.M * dim)) // n_try
            stop = min(m + span, end)
            if frame.screens:
                pick = np.flatnonzero(np.abs(deltas) >= room[m:stop, None])
                frame.steady += n_try * (stop - m) - pick.size
                if not pick.size:
                    m = stop
                    continue
            trials = np.repeat(coeffs[None], n_try * (stop - m), axis=0)
            for j, move in enumerate(range(m, stop)):
                row, col = divmod(move, len(cols))
                trials[j * n_try:(j + 1) * n_try, row + 1, cols[col]] += deltas
            if pick is not None:
                trials = trials[pick]
            win = _first_improvement(frame, q, trials, best, btol)
            if win is None:
                m = stop
                continue
            i, coeffs, best, btol = win
            if best <= frame.floor:
                return coeffs, best, btol
            m += (i if pick is None else int(pick[i])) // n_try + 1
            end, tried, since = n_moves, m, step
            if frame.screens:
                room = _room(frame, q.M, coeffs)[col_at]
        if tried is not None:
            end = tried
        else:
            end = n_moves
            step *= _STEP_SHRINK
            if step < 1e-10:
                break
    return coeffs, best, btol


# ---------------------------------------------------------------------------
# Glue-and-compose rounds.


def _rh_round(frame, q, b: SearchBudget, coeffs, val, stage_degree, key_base, seq):
    """One round: sub-search at each boundary node, fit, compose, sweep k/phase.

    Returns (coeffs, value, info).  The incumbent is replaced only on a
    strict decrease; info records what happened either way.
    """
    Mb = b.boundary_points
    base = AnalyticDisc(coeffs)
    angles = 2.0 * np.pi * np.arange(Mb) / Mb
    # The children are centred on the points BoundaryFamily checks them
    # against, evaluated the same way: on a high-degree disc with large
    # coefficients the boundary matmul and base.eval differ by more than the
    # family's centre tolerance.
    ring = base.eval(np.exp(1j * angles))
    info = {"round": seq, "accepted": False, "value": val}

    # The composed disc only tracks the children between ring nodes when the
    # family varies slowly with the angle, so the sub-searches run around the
    # ring with warm starts (forward, then a refining backward sweep) instead
    # of independently.
    cb = child_budget(b)
    cd = cb.degree_schedule[-1]
    kid_coeffs = [None] * Mb
    prev = None
    for j in range(Mb):
        seeds = [_resize(coeffs, cd, frame.dim)]
        seeds[0][0] = ring[j]
        if prev is not None:
            warm = prev.copy()
            warm[0] = ring[j]
            seeds.append(warm)
        _, kc, _ = _search_core(
            frame, q, cb, ring[j], key_base + (1000 + j, seq),
            extra_seeds=tuple(seeds),
        )
        prev = _resize(kc, cd, frame.dim)
        kid_coeffs[j] = prev
    # The backward sweep compares each warm descent with the forward child
    # it would replace, so the forward children are scored up front.
    _, fwd_vals, fwd_tols = _score_stack(frame, q, kid_coeffs[:-1])
    for j in range(Mb - 2, -1, -1):
        warm = kid_coeffs[j + 1].copy()
        warm[0] = ring[j]
        cc, cv, ct = _descend(frame, q, warm, cd, cb.descent_iters)
        if cv < fwd_vals[j] - max(ct, fwd_tols[j]):
            kid_coeffs[j] = cc
    kids = [AnalyticDisc(kc) for kc in kid_coeffs]
    n_terms = max(1, max(k.degree for k in kids))
    info["n_terms"] = n_terms

    deg_a = min(Mb - 1, stage_degree - _K_SCHEDULE[0] * n_terms)
    if deg_a < 0:
        info["skipped"] = "no degree room at this stage"
        return coeffs, val, info

    family = BoundaryFamily(base, angles, tuple(kids))
    try:
        lam, resid = fit_laurent(family, 0, n_terms, deg_a)
    except IllConditioned as exc:
        info["skipped"] = f"fit ill-conditioned: {exc}"
        return coeffs, val, info
    info["fit_residual"] = resid
    info["deg_a"] = deg_a

    best_val, best_coeffs, best_k, best_pi, best_mean = val, None, None, None, None
    swept = []
    for k in _K_SCHEDULE:
        if k * n_terms + deg_a > stage_degree:
            continue
        phases = [
            _resize(compose_rh(base, lam, k, np.exp(2j * np.pi * pi / _N_PHASES),
                               degree_cap=stage_degree).coeffs,
                    stage_degree, frame.dim)
            for pi in range(_N_PHASES)
        ]
        scored = list(zip(*_score_stack(frame, q, phases)))
        for pi, (h_coeffs, hv, ht) in enumerate(scored):
            if hv < best_val - ht:
                best_val, best_coeffs = float(hv), h_coeffs
                best_k, best_pi = k, pi
        swept.append((k, float(np.mean([hv for _, hv, _ in scored]))))
        if best_k == k:
            best_mean = swept[-1][1]
    info["k_swept"] = [k for k, _ in swept]
    if best_coeffs is None:
        return coeffs, val, info
    info.update(
        accepted=True,
        value=best_val,
        k=best_k,
        phase_index=best_pi,
        eps_report=(best_val - best_mean) if best_mean is not None else None,
    )
    return best_coeffs, best_val, info


# ---------------------------------------------------------------------------
# Core staged search (run once per lift of the point).


def _search_core(frame, q, b: SearchBudget, center, key_base, extra_seeds=()):
    """Staged search from the constant disc at center: (value, coeffs, diag).

    Each stage descends its candidates in turn, then the structured seed of
    ``_best_seed``, and runs the glue rounds.  Once the incumbent's value is
    at or below ``frame.floor`` a stage descends no further candidate and
    scans no seed, since none could beat it (see ``_descend``), and draws
    no further random restart; the glue rounds still run, so
    ``diag["rounds"]`` and ``diag["rh"]`` keep their entries.
    """
    center = np.asarray(center, dtype=complex).reshape(frame.dim)
    best_c, best_v, _ = _score(frame, q, center[None, :].copy())
    rounds = [best_v]
    stages, rh_log = [], []
    seq = 0
    seed_source = "arc" if frame.constraint is None else "dip"
    for si, d in enumerate(b.degree_schedule):
        # Each stage's "source" names the candidate whose descent set its
        # value: the carried incumbent, an extra seed, a random restart, or
        # the structured seed, which is descended last.
        cands = [("carried", _resize(best_c, d, frame.dim))]
        for s in extra_seeds:
            s = np.asarray(s, dtype=complex)
            cands.append(("extra", _resize(s, d, frame.dim)))
        cands += [("restart", key_base + (si, ridx))
                  for ridx in range(b.restarts)]
        source = "carried"
        for name, cand in cands:
            if best_v <= frame.floor:
                break
            if name == "restart":
                # Drawn from its stream only now, so a stage at its floor
                # draws no restart.
                cand = _random_coeffs(_rng(cand), center, d)
            cc, cv, ct = _descend(frame, q, cand, d, b.descent_iters)
            if cv < best_v - ct:
                best_c, best_v, source = cc, cv, name
        seed = (_best_seed(frame, q, center, d, best_v)
                if best_v > frame.floor else None)
        if seed is not None:
            cc, cv, ct = _descend(frame, q, seed[0], d, b.descent_iters)
            if cv < best_v - ct:
                best_c, best_v, source = cc, cv, seed_source
        stages.append({"degree": d, "value": best_v, "source": source})
        rounds.append(best_v)
        for _ in range(b.rh_rounds):
            best_c, new_v, info = _rh_round(
                frame, q, b, best_c, best_v, d, key_base, seq
            )
            seq += 1
            rh_log.append(info)
            rounds.append(new_v)
            if not info["accepted"]:
                break
            best_v = new_v
    diag = {"rounds": rounds, "stages": stages, "rh": rh_log}
    return best_v, best_c, diag


def _lifts(space: SpaceModel, x) -> list:
    """Where the searches at x run: one (label, parameter) per lift of x.

    C^N is its own normalization, so a euclidean point is its single lift,
    under the label None, with x itself as parameter.  A curve point has one
    lift per branch parameter t that ``lift_point`` returns, as [t].
    """
    if space.kind == "euclidean":
        return [(None, x)]
    return [(label, np.array([t])) for label, t in lift_point(space, x)]


def envelope_at(
    u: ScalarField,
    space: SpaceModel,
    x,
    budget: SearchBudget | None = None,
    q: QuadratureSpec | None = None,
    point_index: int = 0,
):
    """Envelope value at one point: (value, witness disc, diagnostics).

    The witness is centered at x (bit-exactly) and the value equals
    ``poisson_functional(u, witness, q)``.  Every lift of x (``_lifts``) is
    searched and the best one wins: diag["lifts"] lists the lifts' branch
    labels and diag["branch"] the winner's, both None for a euclidean
    point, whose only lift is itself.  Raises
    PointOutsideWindow / PointNotOnSpace for points the space does not hold,
    ValueError for a point of the wrong shape or with a non-finite
    coordinate (before the window test), ValueError for a field that reads a
    coordinate beyond the space's ambient dimension, and ValueError when
    the top degree of the schedule is not below q.M: on the M nodes
    z^M = 1, so a disc such as x - x z^M would look constant there and its
    node mean would say nothing about its Poisson integral.  diag["trials"]
    counts the trial discs the search scored, diag["steady"] the descent
    trials it formed but left out because no sample of theirs can fall
    below their incumbent's (``_room``; a trial a calm sweep of
    ``_descend`` never forms counts in neither), and diag["repairs"] the
    window repairs that picked each rho of _RHO_GRID, then the constant
    disc, all summed over the lifts.
    diag["floor"] is the least ``_Frame.floor`` over the lifts, ``u.floor``
    for a euclidean point: the value is the least over the lifts, and no
    disc's node mean on a lift is below its floor beyond rounding, so
    value - floor bounds the distance to the best disc, and a value at or
    below floor is optimal.
    """
    b = budget if budget is not None else SearchBudget()
    qq = q if q is not None else QuadratureSpec()
    if b.degree_schedule[-1] >= qq.M:
        raise ValueError(
            f"top disc degree {b.degree_schedule[-1]} must be below the "
            f"quadrature's M = {qq.M}"
        )
    u.check_dimension(space.ambient_dim)
    x = _as_point(space, x)
    if space.domain_constraint is not None:
        if not bool(space.domain_constraint.satisfied(x, slack=_FEAS_SLACK)):
            raise PointOutsideWindow(f"point {x} lies outside the window")
    key = (b.seed, int(point_index))
    lifts = _lifts(space, x)
    best, trials, steady, repairs, floor = None, 0, 0, 0, np.inf
    for label, t in lifts:
        branch = None if label is None else space.branch(label)
        frame = _Frame(u, space, branch)
        v, c, diag = _search_core(frame, qq, b, t, key)
        floor = min(floor, frame.floor)
        trials += frame.trials
        steady += frame.steady
        repairs = repairs + frame.repairs
        if best is None or v < best[0]:
            diag["branch"] = label
            diag["lifts"] = [lb for lb, _ in lifts]
            best = (v, AnalyticDisc(c, branch), diag)
    best[2]["trials"] = trials
    best[2]["steady"] = steady
    best[2]["repairs"] = repairs.tolist()
    best[2]["floor"] = floor
    return best


def envelope_grid(
    u: ScalarField,
    space: SpaceModel,
    points,
    budget: SearchBudget | None = None,
    q: QuadratureSpec | None = None,
    threads: int = 1,
) -> EnvelopeEstimate:
    """Envelope over a list of points: ``envelope_at`` at each one.

    Point i's value, witness and diagnostics are those of ``envelope_at``
    with point_index=i, bit for bit: they depend on that point and its
    index only, never on the other points or their order.  The searches run
    on at most min(threads, points) worker threads; the random streams are
    keyed by point index, so the thread count never changes results.
    """
    b = budget if budget is not None else SearchBudget()
    qq = q if q is not None else QuadratureSpec()
    pts = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in points]

    def one(i):
        return envelope_at(u, space, pts[i], b, qq, point_index=i)

    n = len(pts)
    if threads > 1 and n > 1:
        with ThreadPoolExecutor(max_workers=min(threads, n)) as ex:
            results = list(ex.map(one, range(n)))
    else:
        results = [one(i) for i in range(n)]
    return EnvelopeEstimate(pts, [r[0] for r in results],
                            [r[1] for r in results], [r[2] for r in results])


# ---------------------------------------------------------------------------
# A-posteriori checks on a computed grid.


class _SliceInterp:
    """Bilinear interpolation of grid values over one complex slice.

    The points must fill a tensor grid in (re, im) of at least 2 x 2 nodes,
    each node once, and are interpolated cell by cell with the oracle's rule
    (``oracle._bilinear``), so -inf values stay -inf.  A line of nodes carries
    no disc but a constant one: on M nodes a disc of degree below M/2 lies on
    a line only if it is constant.  Other point sets, and queries outside the
    rectangle, raise InterpolationOutOfRange.
    """

    def __init__(self, params, values):
        pts = np.column_stack([np.real(params), np.imag(params)])
        self._axes = (np.unique(pts[:, 0]), np.unique(pts[:, 1]))
        ix, iy = (np.searchsorted(a, c) for a, c in zip(self._axes, pts.T))
        nx, ny = self._axes[0].size, self._axes[1].size
        if (min(nx, ny) < 2 or len(pts) != nx * ny
                or np.unique(iy * nx + ix).size != nx * ny):
            raise InterpolationOutOfRange(
                f"{len(pts)} slice points do not fill a {nx} x {ny} tensor "
                "grid in (re, im) exactly once, of at least 2 x 2 nodes"
            )
        self._grid = np.empty((ny, nx))
        self._grid[iy, ix] = values

    def __call__(self, params):
        params = np.asarray(params, dtype=complex)
        frac = []
        for a, c in zip(self._axes, (params.real, params.imag)):
            if not (c.min() >= a[0] - 1e-12 and c.max() <= a[-1] + 1e-12):
                raise InterpolationOutOfRange("trial disc leaves the grid rectangle")
            frac.append(np.interp(c, a, np.arange(a.size)))
        return _bilinear(self._grid, *frac)


def check_submean(
    estimate: EnvelopeEstimate,
    space: SpaceModel,
    trial_discs,
    q: QuadratureSpec | None = None,
    tol: float = 1e-9,
) -> list:
    """Violations of the center-below-boundary-average inequality.

    Interpolates the estimate's values along each trial disc and compares the
    center value against the boundary mean.  A plurisubharmonic-like estimate
    passes every disc; a report entry is returned for each disc whose center
    value exceeds the averaged boundary by more than tol.  Failures of upper
    semicontinuity show up here through discs crossing the offending point.
    Each branch of a curve, and C^1 as the label None, is a slice of the
    points' lifts (``_lifts``), interpolated in the disc's parameter by a
    ``_SliceInterp`` built only once a trial disc lies on that branch.
    Raises ValueError unless tol is finite and >= 0, ValueError for a disc
    of degree >= q.M (on the M nodes x - x z^M looks constant), and
    NotApplicable in C^N with N >= 2, whose points are no slice of one
    parameter.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"submean tol must be finite and >= 0, got {tol!r}")
    if space.kind == "euclidean" and space.ambient_dim > 1:
        raise NotApplicable(
            f"check_submean needs C^1 or a curve, not C^{space.ambient_dim}")
    qq = q if q is not None else QuadratureSpec()
    pairs = {}
    for p, v in zip(estimate.points, estimate.values):
        for label, t in _lifts(space, p):
            pairs.setdefault(label, []).append((t[0], v))

    slices, reports = {}, []
    for idx, f in enumerate(trial_discs):
        if space.kind == "curve" and f.branch is None:
            raise ValueError("trial discs on a curve space must carry a branch")
        if f.degree >= qq.M:
            raise ValueError(f"trial disc {idx}'s degree {f.degree} must be "
                             f"below the quadrature's M = {qq.M}")
        label = f.branch.label if f.branch is not None else None
        if label not in pairs:
            raise InterpolationOutOfRange(f"no grid values on branch {label!r}")
        if label not in slices:
            slices[label] = _SliceInterp(*zip(*pairs[label]))
        terp = slices[label]
        vc = float(terp(np.array([f.coeffs[0, 0]]))[0])
        boundary = terp(boundary_from_coeffs(f.coeffs, qq.M)[:, 0])
        avg = float(boundary_means(boundary[None])[0])
        if vc > avg + tol:
            reports.append(
                {
                    "disc_index": idx,
                    "center": f.center(),
                    "center_value": vc,
                    "boundary_average": avg,
                    "excess": vc - avg,
                }
            )
    return reports
