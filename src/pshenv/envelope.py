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
    AnalyticDisc,
    BoundaryFamily,
    boundary_from_coeffs,
    compose_rh,
    fit_laurent,
    stacked_boundaries,
)
from .errors import (
    DomainError,
    EmptyShell,
    IllConditioned,
    InterpolationOutOfRange,
    PointOutsideWindow,
)
from .functional import (
    QuadratureSpec,
    ScalarField,
    boundary_means,
    pushforward_field,
)
from .space import SpaceModel, is_regular, lift_point

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
    and curve paths bitwise comparable.
    """

    __slots__ = ("u_eff", "branch", "dim", "constraint")

    def __init__(self, u: ScalarField, space: SpaceModel, branch=None):
        self.branch = branch
        self.dim = 1 if branch is not None else space.ambient_dim
        self.u_eff = u if branch is None else pushforward_field(u, branch)
        self.constraint = space.domain_constraint

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
# feasibility edge.  The grid is tried in order because most repairs keep
# one of its first few values: about 5 boundaries per repaired disc on the
# windowed benchmark workloads, where screening all 14 in one product and
# rechecking the pick takes 15.
_RHO_GRID = np.array(
    [0.999, 0.99, 0.97, 0.94, 0.9, 0.85, 0.78, 0.7,
     0.6, 0.5, 0.38, 0.25, 0.12, 0.03]
)

# Boundary samples per stacked pass: a descent stack holds this many trial
# samples, and a window repair computes at most this many per rho of a batch.
# 8,192 complex128 samples are 128 KiB, glibc's default mmap threshold; a
# larger buffer is mapped and page-faulted afresh on every pass, which made
# 16,384 slower than 8,192 however few calls it saved.
_STACK_SAMPLES = 8192


def _project(frame: _Frame, q: QuadratureSpec, stack, bnds=None):
    """Shrink each disc of a stack into the window: row j is scaled by rho**j.

    stack has shape (n, deg+1, dim) and holds discs that leave the window;
    callers test that first.  Reparametrizing by a smaller circle keeps the
    center fixed.  Each disc takes the largest rho of a fixed grid whose
    scaled disc fits on its own boundary, or else the constant disc at the
    center (rho = 0, feasible for a feasible center).  The grid is tried
    largest first, each rho only on the discs still unresolved, in
    consecutive batches of at most _STACK_SAMPLES / (dim * M) discs (at
    least one), so a large stack does not raise peak memory; each disc's
    pick is its own, whatever the batch.  Returns the new (n, deg+1, dim)
    stack; bnds, shape (n, M, dim) with unit stride along M, receives the
    boundaries of the returned discs when given.
    """
    n, _, dim = stack.shape
    if bnds is None:
        bnds = np.empty((n, dim, q.M), dtype=complex).transpose(0, 2, 1)
    per = max(1, _STACK_SAMPLES // (dim * q.M))
    out = np.empty(stack.shape, dtype=complex)
    for lo in range(0, n, per):
        out[lo:lo + per] = _project_batch(
            frame, q.M, stack[lo:lo + per], bnds[lo:lo + per])
    return out


def _project_batch(frame, M, stack, bnds):
    """``_project`` of one batch; bnds receives the returned discs' boundaries."""
    n, rows, dim = stack.shape
    out = np.zeros_like(stack)
    out[:, 0] = stack[:, 0]
    left = np.arange(n)
    for pow_ in _RHO_GRID[:, None] ** np.arange(rows):
        scaled = stack[left] * pow_[:, None]
        bnd = np.empty((left.size, dim, M), dtype=complex).transpose(0, 2, 1)
        stacked_boundaries(scaled, M, out=bnd)
        fit = frame.fits(bnd)
        out[left[fit]] = scaled[fit]
        bnds[left[fit]] = bnd[fit]
        left = left[~fit]
        if not left.size:
            return out
    bnd = np.empty((left.size, dim, M), dtype=complex).transpose(0, 2, 1)
    bnds[left] = stacked_boundaries(out[left], M, out=bnd)
    return out


def _score_stack(frame, q, trials):
    """Repair the trials that leave the window, then evaluate them all.

    trials is a (n, deg+1, dim) stack, or a sequence of n such discs.  The
    boundaries come out of one stacked product, bit for bit those of
    ``boundary_from_coeffs``; the trials that leave the window are repaired
    together by one ``_project`` call, which hands back the boundaries it
    tested each repair on, and all n boundaries go through the field in one
    pass.  Returns (coeffs, values, thresholds): coeffs[i] is
    trials[i] itself or its repair, values[i] is ``poisson_functional`` of
    that disc bit for bit, and thresholds[i] is the margin by which a value
    must beat an incumbent: IMPROVE_TOL inflated to a few hundred ulps of
    the mean absolute sample, the resolution below which two evaluations
    cannot be told apart (IMPROVE_TOL for a value of -inf).
    """
    M, n = q.M, len(trials)
    arr = np.asarray(trials)
    # (dim, trial, node): each trial's (M, dim) boundary is column-contiguous,
    # as boundary_from_coeffs gives it to the field, so every sample is
    # computed by the same elementwise code.
    stack = np.empty((frame.dim, n, M), dtype=complex)
    stacked_boundaries(arr, M, out=stack.transpose(1, 2, 0))
    coeffs = list(trials)
    if frame.constraint is not None:
        out = np.flatnonzero(~frame.fits(stack.transpose(1, 2, 0)))
        if out.size:
            sub = np.empty((frame.dim, out.size, M), dtype=complex)
            fixed = _project(frame, q, arr[out], bnds=sub.transpose(1, 2, 0))
            stack[:, out] = sub
            for i, c in zip(out.tolist(), fixed):
                coeffs[i] = c
    samples = frame.u_eff.values(stack.reshape(frame.dim, -1).T)
    values, samples = boundary_means(samples.reshape(n, M), q.clip)
    scale = np.add.reduce(np.abs(samples), axis=1) / M
    tols = np.maximum(_NOISE_ULPS * scale, IMPROVE_TOL)
    tols[values == -np.inf] = IMPROVE_TOL
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
    if best[0] >= incumbent - max(best[3], IMPROVE_TOL):
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


def _descend(frame, q, coeffs, stage_degree: int, iters: int):
    """First-improvement descent over rows 1..stage_degree.

    The start disc is repaired into the window if it leaves it.  Each sweep
    tries the eight steps of ``_steps`` at every coefficient, one move per
    (row, column) pair in row-major order.  The trials of the next k moves,
    k = max(dim, _STACK_SAMPLES // (8 * M * dim)), form one stack that
    ``_first_improvement`` decides together, repairing those that leave the
    window by ``_project`` (row scaling, center row untouched); a stack may
    span several rows.  The first win, repaired or not, is the new disc and
    makes the later trials of its stack stale, so the sweep goes on from the
    move after it with trials made again from the new disc; a stack with no
    win moves the sweep on by k.  A move that does not win leaves the disc
    as it was, so these are the decisions of trying every move in turn.  The
    step shrinks after a sweep with no accepted move.  Returns (coeffs,
    value, accept threshold of the winning evaluation).
    """
    coeffs, best, btol = _score(frame, q, coeffs)
    if best == float("-inf") or iters <= 0:
        return coeffs, best, btol
    dim = frame.dim
    n_moves = min(stage_degree, coeffs.shape[0] - 1) * dim
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
                row, col = divmod(move, dim)
                trials[j * n_try:(j + 1) * n_try, row + 1, col] += deltas
            win = _first_improvement(frame, q, trials, best, btol)
            if win is None:
                m = stop
                continue
            i, coeffs, best, btol = win
            improved = True
            m += i // n_try + 1
        if not improved:
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
            compose_rh(base, lam, k, np.exp(2j * np.pi * pi / _N_PHASES),
                       degree_cap=stage_degree).coeffs
            for pi in range(_N_PHASES)
        ]
        # The disc trims zero top rows, so phases may differ in degree; each
        # degree is scored as one stack.
        scored = [None] * len(phases)
        for shape in {h.shape for h in phases}:
            idx = [i for i, h in enumerate(phases) if h.shape == shape]
            stacked = _score_stack(frame, q, [phases[i] for i in idx])
            for i, hit in zip(idx, zip(*stacked)):
                scored[i] = hit
        for pi, (h_coeffs, hv, ht) in enumerate(scored):
            if hv < best_val - max(ht, IMPROVE_TOL):
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
# Core staged search (shared by the euclidean and curve paths).


def _search_core(frame, q, b: SearchBudget, center, key_base, extra_seeds=()):
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
        for ridx in range(b.restarts):
            rng = _rng(key_base + (si, ridx))
            cands.append(("restart", _random_coeffs(rng, center, d)))
        source = "carried"
        for name, cand in cands:
            cc, cv, ct = _descend(frame, q, cand, d, b.descent_iters)
            if cv < best_v - max(ct, IMPROVE_TOL):
                best_c, best_v, source = cc, cv, name
        seed = _best_seed(frame, q, center, d, best_v)
        if seed is not None:
            cc, cv, ct = _descend(frame, q, seed[0], d, b.descent_iters)
            if cv < best_v - max(ct, IMPROVE_TOL):
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
    ``poisson_functional(u, witness, q)``.  On curves every lift of x is
    searched and the best one wins; diagnostics record which.  Raises
    PointOutsideWindow / PointNotOnSpace for points the space does not hold.
    """
    b = budget if budget is not None else SearchBudget()
    qq = q if q is not None else QuadratureSpec()
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    if x.shape != (space.ambient_dim,):
        raise ValueError(f"point must have shape ({space.ambient_dim},)")
    if space.domain_constraint is not None:
        if not bool(space.domain_constraint.satisfied(x, slack=_FEAS_SLACK)):
            raise PointOutsideWindow(f"point {x} lies outside the window")
    key = (b.seed, int(point_index))
    if space.kind == "euclidean":
        frame = _Frame(u, space)
        v, c, diag = _search_core(frame, qq, b, x, key)
        diag["branch"] = None
        return v, AnalyticDisc(c), diag
    lifts = lift_point(space, x)
    best = None
    for label, t in lifts:
        branch = space.branch(label)
        frame = _Frame(u, space, branch)
        v, c, diag = _search_core(frame, qq, b, np.array([t]), key)
        if best is None or v < best[0]:
            diag["branch"] = label
            diag["lifts"] = [lb for lb, _ in lifts]
            best = (v, AnalyticDisc(c, branch), diag)
    return best


def _warm_candidate(witness: AnalyticDisc, space: SpaceModel, x):
    """Previous witness recentered at x, or None when it cannot carry over."""
    if witness.branch is None:
        coeffs = witness.coeffs.copy()
        coeffs[0] = x
        return None, coeffs
    for label, t in lift_point(space, x):
        if label == witness.branch.label:
            coeffs = witness.coeffs.copy()
            coeffs[0, 0] = t
            return witness.branch, coeffs
    return None


def envelope_grid(
    u: ScalarField,
    space: SpaceModel,
    points,
    budget: SearchBudget | None = None,
    q: QuadratureSpec | None = None,
    threads: int = 1,
) -> EnvelopeEstimate:
    """Envelope over a list of points.

    Pass one runs the per-point searches independently (on at most
    min(threads, points) worker threads; the random streams are keyed by
    point index, so the thread count never changes results).  Pass two
    sweeps the grid once in order, recentering each point's predecessor
    witness and descending without any randomness; improvements are kept.
    """
    b = budget if budget is not None else SearchBudget()
    qq = q if q is not None else QuadratureSpec()
    pts = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in points]

    def one(i):
        return envelope_at(u, space, pts[i], b, qq, point_index=i)

    n = len(pts)
    results = [None] * n
    if threads > 1 and n > 1:
        with ThreadPoolExecutor(max_workers=min(threads, n)) as ex:
            for i, res in enumerate(ex.map(one, range(n))):
                results[i] = res
    else:
        for i in range(n):
            results[i] = one(i)
    values = [r[0] for r in results]
    wits = [r[1] for r in results]
    diags = [r[2] for r in results]

    top_degree = b.degree_schedule[-1]
    for i in range(1, n):
        cand = _warm_candidate(wits[i - 1], space, pts[i])
        if cand is None:
            continue
        branch, coeffs = cand
        frame = _Frame(u, space, branch)
        coeffs = _resize(coeffs, top_degree, frame.dim)
        cc, cv, ct = _descend(frame, qq, coeffs, top_degree, b.descent_iters)
        if cv < values[i] - max(ct, IMPROVE_TOL):
            values[i] = cv
            wits[i] = AnalyticDisc(cc, branch)
            diags[i]["warm_start"] = True
            diags[i]["rounds"] = list(diags[i]["rounds"]) + [cv]
    return EnvelopeEstimate(pts, values, wits, diags)


# ---------------------------------------------------------------------------
# A-posteriori checks on a computed grid.


class _SliceInterp:
    """Piecewise-linear interpolation of grid values over one complex slice.

    Full-rank point sets go through Delaunay triangulation; collinear sets
    fall back to interpolation along their line.  Queries outside the data
    raise InterpolationOutOfRange.
    """

    def __init__(self, params, values):
        pts = np.column_stack([np.real(params), np.imag(params)])
        self.values = np.asarray(values, dtype=float)
        ctr = pts.mean(axis=0)
        spread = pts - ctr
        _, s_svd, vt = np.linalg.svd(spread, full_matrices=False)
        scale = max(1.0, float(s_svd[0]))
        if len(s_svd) > 1 and s_svd[1] > 1e-9 * scale:
            # The only scipy use in the package: importing it here keeps
            # `import pshenv` from loading scipy.
            from scipy.interpolate import LinearNDInterpolator

            self._nd = LinearNDInterpolator(pts, self.values)
            self._line = None
        else:
            self._nd = None
            axis = vt[0]
            coord = spread @ axis
            order = np.argsort(coord, kind="stable")
            self._line = (ctr, axis, coord[order], self.values[order])

    def __call__(self, params):
        params = np.asarray(params, dtype=complex)
        pts = np.column_stack([np.real(params), np.imag(params)])
        if self._nd is not None:
            out = self._nd(pts)
            if np.isnan(out).any():
                raise InterpolationOutOfRange(
                    "trial disc leaves the convex hull of the grid"
                )
            return np.asarray(out, dtype=float)
        ctr, axis, coord, vals = self._line
        rel = pts - ctr
        along = rel @ axis
        off = rel - np.outer(along, axis)
        if np.max(np.abs(off)) > 1e-9:
            raise InterpolationOutOfRange("trial disc leaves the grid line")
        if along.min() < coord[0] - 1e-12 or along.max() > coord[-1] + 1e-12:
            raise InterpolationOutOfRange("trial disc leaves the grid segment")
        return np.interp(along, coord, vals)


class _GridLookup:
    """Exact-match lookup for grids in C^N with N >= 2."""

    def __init__(self, points, values):
        self.table = {self._key(p): float(v) for p, v in zip(points, values)}

    @staticmethod
    def _key(p):
        return tuple((round(z.real, 9), round(z.imag, 9)) for z in np.ravel(p))

    def __call__(self, pts):
        out = np.empty(len(pts), dtype=float)
        for i, p in enumerate(pts):
            k = self._key(p)
            if k not in self.table:
                raise InterpolationOutOfRange(
                    "trial disc visits a point that is not on the value grid"
                )
            out[i] = self.table[k]
        return out


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
    """
    qq = q if q is not None else QuadratureSpec()
    # Each branch of a curve, and C^1 as the label None, is a slice that is
    # interpolated in the disc's parameter; C^N grids are looked up exactly.
    lookup = None
    if space.kind == "curve" or space.ambient_dim == 1:
        by_label = {}
        for p, v in zip(estimate.points, estimate.values):
            lifts = lift_point(space, p) if space.kind == "curve" else [(None, p[0])]
            for label, t in lifts:
                ts, vs = by_label.setdefault(label, ([], []))
                ts.append(t)
                vs.append(v)
        slices = {
            label: _SliceInterp(np.asarray(ts), vs)
            for label, (ts, vs) in by_label.items()
        }
    else:
        lookup = _GridLookup(estimate.points, estimate.values)

    reports = []
    for idx, f in enumerate(trial_discs):
        if space.kind == "curve" and f.branch is None:
            raise ValueError("trial discs on a curve space must carry a branch")
        if lookup is not None:
            vc = float(lookup([f.center()])[0])
            boundary = lookup(list(f.boundary_values(qq.M)))
        else:
            label = f.branch.label if f.branch is not None else None
            if label not in slices:
                raise InterpolationOutOfRange(f"no grid values on branch {label!r}")
            terp = slices[label]
            vc = float(terp(np.array([f.coeffs[0, 0]]))[0])
            boundary = terp(boundary_from_coeffs(f.coeffs, qq.M)[:, 0])
        avg = float(boundary_means(np.asarray(boundary)[None])[0][0])
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


def upper_regularize(
    estimate: EnvelopeEstimate,
    space: SpaceModel,
    p,
    radii,
):
    """Shell maxima of the estimate around p over regular grid points.

    Returns (value, report) where report maps each radius to the max of the
    estimate over grid points within that distance of p, excluding p itself
    and (on curves) every point that ``is_regular`` rejects; value is the max
    at the smallest radius.  Raises EmptyShell when a shell contains no
    usable grid point.
    """
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("radii must be positive")
    pts = np.stack(estimate.points)
    vals = np.asarray(estimate.values, dtype=float)
    dist = np.sqrt(np.sum(np.abs(pts - p[None, :]) ** 2, axis=1))
    keep = dist > 1e-12
    if space.kind == "curve":
        keep &= np.array([is_regular(space, x) for x in pts])
    report = {}
    for r in radii:
        shell = keep & (dist <= r)
        if not shell.any():
            raise EmptyShell(f"no regular grid points within {r} of the point")
        report[r] = float(np.max(vals[shell]))
    return report[radii[0]], report
