"""Disc-envelope search: minimize the boundary average over centered discs.

For a field u and a point x, the quantity of interest is the infimum of
``poisson_functional(u, f, q)`` over analytic discs f with f(0) = x that stay
in the space (and inside its window, when one is set).  The search is a
direct method: staged coordinate descent on polynomial coefficients, restarted
from seeded random discs, optionally interleaved with rounds that glue
per-boundary-node sub-searches back onto the disc through a Laurent-family
composition (``disc.compose_rh``).

Everything is deterministic given the budget seed.  Random streams are
counter-based and keyed by (seed, point index, stage, restart), so grids can
be evaluated in any thread order without changing a single bit of output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from scipy.interpolate import LinearNDInterpolator

from .disc import (
    AnalyticDisc,
    BoundaryFamily,
    boundary_from_coeffs,
    circle_powers,
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
from .space import SpaceModel, lift_point, singular_locus_hint

# A candidate replaces the incumbent only when it wins by this much; keeps
# the accept/reject decisions stable under last-ulp evaluation noise.
IMPROVE_TOL = 1e-12

_FEAS_SLACK = 1e-12


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
    k_schedule: tuple = (2, 3, 4, 6, 8, 12, 16)
    n_phases: int = 16
    seed: int = 0
    step_init: float = 0.25
    step_shrink: float = 0.5
    init_scale: float = 0.35
    degree_decay: float = 0.75
    boundary_points: int = 8
    child_degree: int = 3
    laurent_m: int = 0

    def __post_init__(self):
        ds = tuple(int(d) for d in self.degree_schedule)
        object.__setattr__(self, "degree_schedule", ds)
        if not ds or ds[0] < 1 or any(b < a for a, b in zip(ds, ds[1:])):
            raise ValueError("degree_schedule must be nondecreasing, all >= 1")
        ks = tuple(int(k) for k in self.k_schedule)
        object.__setattr__(self, "k_schedule", ks)
        if not ks or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("k_schedule must be strictly increasing, all >= 1")
        if self.restarts < 0 or self.descent_iters < 0 or self.rh_rounds < 0:
            raise ValueError("restarts/descent_iters/rh_rounds must be >= 0")
        if self.n_phases < 1:
            raise ValueError("n_phases must be >= 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        if not (self.step_init > 0 and 0 < self.step_shrink < 1):
            raise ValueError("need step_init > 0 and step_shrink in (0, 1)")
        if not (self.init_scale > 0 and 0 < self.degree_decay <= 1):
            raise ValueError("need init_scale > 0 and degree_decay in (0, 1]")
        if self.boundary_points < 4:
            raise ValueError("boundary_points must be >= 4")
        if self.child_degree < 1 or self.laurent_m < 0:
            raise ValueError("child_degree >= 1 and laurent_m >= 0 required")


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
# of a bisection: all candidate boundaries come out of one tensor product,
# which is an order of magnitude cheaper than sequential re-evaluation, and
# repair only needs a workable rho, not the exact feasibility edge.
_RHO_GRID = np.array(
    [0.999, 0.99, 0.97, 0.94, 0.9, 0.85, 0.78, 0.7,
     0.6, 0.5, 0.38, 0.25, 0.12, 0.03]
)


def _project(frame: _Frame, q: QuadratureSpec, stack):
    """Shrink each disc of a stack into the window: row j is scaled by rho**j.

    stack has shape (n, deg+1, dim) and holds discs that leave the window;
    callers test that first.  Reparametrizing by a smaller circle keeps the
    center fixed; for each disc the largest feasible rho of a fixed grid
    wins, and where none fits, the constant disc at the center (rho = 0,
    always feasible for a feasible center) does.  The n x 14 candidate
    boundaries take one BLAS call per disc, with the operand layout of a
    single disc's tensor product over the grid, so each disc gets the rho it
    would get alone.  Returns a new (n, deg+1, dim) stack.
    """
    n, rows, dim = stack.shape
    pow_ = _RHO_GRID[:, None] ** np.arange(rows)[None, :]
    scaled = stack[:, None] * pow_[None, :, :, None]
    # Per disc: (rho * dim, deg+1) @ (deg+1, M), as np.tensordot lays it out.
    ops = np.ascontiguousarray(scaled.transpose(0, 1, 3, 2)).reshape(n, -1, rows)
    bnds = np.matmul(ops, circle_powers(q.M, rows - 1))
    bnds = bnds.reshape(n, _RHO_GRID.size, dim, q.M).transpose(0, 1, 3, 2)
    fit = frame.fits(bnds)
    out = scaled[np.arange(n), np.argmax(fit, axis=1)]
    none = ~fit.any(axis=1)
    out[none] = 0
    out[none, 0] = stack[none, 0]
    return out


def _score_stack(frame, q, trials):
    """Repair the trials that leave the window, then evaluate them all.

    trials is a (n, deg+1, dim) stack, or a sequence of n such discs.  The
    boundaries come out of one stacked product, bit for bit those of
    ``boundary_from_coeffs``; the trials that leave the window are repaired
    together by one ``_project`` call, and all n boundaries go through the
    field in one pass.  Returns (coeffs, values, thresholds): coeffs[i] is
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
            fixed = _project(frame, q, arr[out])
            sub = np.empty((frame.dim, out.size, M), dtype=complex)
            stacked_boundaries(fixed, M, out=sub.transpose(1, 2, 0))
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


def _random_coeffs(rng, center, degree: int, b: SearchBudget):
    c = np.zeros((degree + 1, center.size), dtype=complex)
    c[0] = center
    if degree:
        scales = b.init_scale * b.degree_decay ** np.arange(degree)
        noise = rng.standard_normal((degree, center.size, 2))
        c[1:] = (noise[..., 0] + 1j * noise[..., 1]) * scales[:, None] / np.sqrt(2.0)
    return c


def _resize(coeffs, degree: int, dim: int):
    """Copy into a (degree+1, dim) array, padding or dropping high rows."""
    out = np.zeros((degree + 1, dim), dtype=complex)
    rows = min(coeffs.shape[0], degree + 1)
    out[:rows] = coeffs[:rows]
    return out


# (wall gain, dip factor) pairs for the two-level seeds on spaces with no
# window to set the high level.
_DIP_LEVELS = ((8.0, 1 / 8), (64.0, 1 / 16), (512.0, 1 / 32))


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


def _seed_anchor(frame):
    """Anchor point and per-coordinate wall radii for the dip seeds."""
    if frame.branch is None and frame.constraint is not None:
        return (
            np.asarray(frame.constraint.center, dtype=complex),
            np.asarray(frame.constraint.radii, dtype=float),
        )
    return np.zeros(frame.dim, dtype=complex), None


def _dip_log(frame, center, degree: int, mu: float, lhi_vec):
    """Log-shape P of one two-level dip seed.

    exp(P) holds near exp(lhi) off a dip arc of measure mu and drops on it,
    with the levels balanced so the constant term is exactly 1; coordinates
    with no offset from the anchor stay put.
    """
    c0, _ = _seed_anchor(frame)
    live = np.abs(center - c0) > 1e-12
    n = np.arange(1, degree + 1)
    step = 2.0 * np.sin(np.pi * mu * n) / (np.pi * n)
    P = np.zeros((degree + 1, frame.dim), dtype=complex)
    for ell in range(frame.dim):
        if live[ell] and lhi_vec[ell] > 1e-12:
            P[1:, ell] = (-lhi_vec[ell] / mu) * step
    return P


def _seed_params(frame, center, coarse: int = 24):
    """(mu, lhi_vec) parameter list for the dip seeds at this center.

    With a window the high level pushes the offset to the wall and mu runs
    over a coarse grid (callers refine around the best); without a window a
    fixed grid of gain/dip pairs supplies both levels.
    """
    c0, radii = _seed_anchor(frame)
    offset = center - c0
    live = np.abs(offset) > 1e-12
    if not live.any():
        return []
    if radii is not None:
        rel = np.ones(frame.dim)
        rel[live] = np.abs(offset[live]) / radii[live]
        lhi_vec = -np.log(np.clip(rel, 3e-4, 1.0))
        if not (lhi_vec > 1e-12).any():
            return []
        return [(i / (coarse + 2), lhi_vec) for i in range(1, coarse + 1)]
    out = []
    for gain, dip in _DIP_LEVELS:
        lhi = np.log(gain)
        out.append((lhi / (lhi - np.log(dip)), np.full(frame.dim, lhi)))
    return out


def _disc_from_log(frame, center, P):
    """Assemble anchor + offset * exp(P) for a stack of log-shapes P.

    P has shape (n, degree+1, dim); the center row of every disc is exact.
    """
    c0, _ = _seed_anchor(frame)
    f = c0 + (center - c0) * _exp_coeffs(P)
    f[:, 0] = center
    return f


def _descend_log(frame, q, b: SearchBudget, P, center, stage_degree: int, iters: int):
    """Coordinate descent on the log-shape P of an exponential-form disc.

    The move loop of ``_descend``, but its trials perturb P and are scored
    through anchor + offset * exp(P), over the columns whose center is off
    the anchor; multiplicative dips widen or deepen smoothly under such
    moves where direct coefficient steps would break the shape.  Returns
    (coeffs, value, accept threshold).
    """
    P = _resize(P, stage_degree, frame.dim)
    start = _score(frame, q, _disc_from_log(frame, center, P[None])[0])
    live = np.abs(center - _seed_anchor(frame)[0]) > 1e-12
    cols = [c for c in range(frame.dim) if live[c]]
    return _move_loop(
        frame, q, b, P, cols, stage_degree, iters, start,
        lambda trials: _disc_from_log(frame, center, trials),
    )


def _arc_cheb_seed(frame, center, degree: int, alpha: float):
    """Seed whose offset from the anchor is small off a gap arc of width alpha.

    Chebyshev polynomial composed with the standard arc-to-interval map,
    evaluated on a fine circle grid and read back off by FFT; degree-graded
    growth on the gap buys the drop everywhere else.  The ratio against its
    own constant term keeps the center row exact.  Needs an even degree >= 2
    and an unbounded window (the gap growth is enormous), else None.
    """
    n = degree - (degree % 2)
    if n < 2 or frame.constraint is not None:
        return None
    c0, _ = _seed_anchor(frame)
    offset = center - c0
    if not (np.abs(offset) > 1e-12).any():
        return None
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
    out = offset[None, :] * rows[:, None]
    out[0] = center
    return out


def _best_arc_seed(frame, q, center, degree: int, incumbent: float):
    """Scan the arc-Chebyshev seeds over gap widths; best (coeffs, value).

    Each scan scores its widths as one stack; the winner is the least value,
    ties going to the smaller width.  None unless the winner beats the incumbent by its own noise threshold,
    so callers spend descent time only on seeds that already lead.
    """
    if frame.constraint is not None or degree < 2:
        return None
    coarse = [0.2 + 0.1 * i for i in range(11)]

    def scan(alphas):
        seeds = [_arc_cheb_seed(frame, center, degree, a) for a in alphas]
        if not seeds or seeds[0] is None:
            return []
        coeffs, values, tols = _score_stack(frame, q, seeds)
        return list(zip(values.tolist(), alphas, coeffs, tols.tolist()))

    scored = scan(coarse)
    if not scored:
        return None
    for spread in (0.01, 0.002):
        best = min(scored, key=lambda s: (s[0], s[1]))
        fine = [best[1] + j * spread for j in range(-8, 9) if j]
        scored += scan([a for a in fine if 0.05 < a < 1.5])
    best = min(scored, key=lambda s: (s[0], s[1]))
    if best[0] >= incumbent - max(best[3], IMPROVE_TOL):
        return None
    return best[2], best[0]


def _best_dip_seed(frame, q, center, degree: int, incumbent: float):
    """Scan the dip-seed family and return its best (P, value), or None.

    Each scan scores its parameter list as one stack, and the first least
    value in list order wins; when the arc measure is the free knob a
    second, finer scan brackets the coarse winner (node-crossing events make
    the value a step function of mu, so descent cannot tune it).  As with
    the arc seeds, a winner that does not beat the incumbent by its noise
    threshold is dropped.
    """
    params = _seed_params(frame, center)
    if not params:
        return None

    def score(plist):
        Ps = [_dip_log(frame, center, degree, mu, lhi) for mu, lhi in plist]
        _, values, tols = _score_stack(
            frame, q, _disc_from_log(frame, center, np.stack(Ps))
        )
        return [
            (v, mu, lhi, P, t)
            for v, (mu, lhi), P, t in zip(values.tolist(), plist, Ps, tols.tolist())
        ]

    scored = score(params)
    best = min(scored, key=lambda s: s[0])
    _, radii = _seed_anchor(frame)
    if radii is not None:
        mu0 = best[1]
        fine = [
            (mu0 + j / 256.0, best[2])
            for j in range(-7, 8)
            if j and 0.0 < mu0 + j / 256.0 < 0.97
        ]
        if fine:
            best = min(scored + score(fine), key=lambda s: s[0])
    if best[0] >= incumbent - max(best[4], IMPROVE_TOL):
        return None
    return best[3], best[0]


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
    value, accept threshold).  The trials are scored together by
    ``_score_stack``, whose values are the ones ``_score`` gives each trial
    alone, so the first trial whose value is below best - max(threshold,
    btol) wins, as it would scored in turn.
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


def _move_loop(frame, q, b: SearchBudget, state, cols, n_rows, iters, start,
               to_coeffs=None):
    """The sweeps both descents run: first improvement over axis steps.

    ``state`` is the (rows, dim) array the moves perturb and ``start`` the
    (coeffs, value, threshold) of the disc it stands for.  Each sweep tries
    the eight steps of ``_steps`` at rows 1..n_rows and the given columns;
    the trials of one row (every column still to try) are mapped to disc
    coefficients by ``to_coeffs`` (None: the state is the disc) and decided
    together by ``_first_improvement``.  A win makes the later columns'
    trials stale, so they are made again from the winner.  The step shrinks
    after a sweep with no accepted move.  Returns (coeffs, value, accept
    threshold of the winning evaluation).
    """
    coeffs, best, btol = start
    if best == float("-inf") or iters <= 0 or not cols:
        return start
    step = b.step_init
    for _ in range(iters):
        improved = False
        deltas = _steps(step)
        n_try = len(deltas)
        for row in range(1, n_rows + 1):
            k = 0
            while k < len(cols):
                trials = np.repeat(state[None], n_try * (len(cols) - k), axis=0)
                for j, c in enumerate(cols[k:]):
                    trials[j * n_try:(j + 1) * n_try, row, c] += deltas
                cands = trials if to_coeffs is None else to_coeffs(trials)
                win = _first_improvement(frame, q, cands, best, btol)
                if win is None:
                    break
                i, coeffs, best, btol = win
                # A repaired winner is the new state of a coefficient
                # descent; a log-shape descent keeps the trial's log-shape.
                state = coeffs if to_coeffs is None else trials[i]
                improved = True
                k += i // n_try + 1
        if not improved:
            step *= b.step_shrink
            if step < 1e-10:
                break
    return coeffs, best, btol


def _descend(frame, q, b: SearchBudget, coeffs, stage_degree: int, iters: int):
    """First-improvement descent over rows 1..stage_degree.

    The start disc is repaired into the window if it leaves it.  Each sweep
    tries additive axis steps in the four complex directions per
    coefficient; the step halves after a sweep with no accepted move.  The
    trials of one row (all its columns) are scored together by
    ``_first_improvement``, which repairs those that leave the window in one
    stacked ``_project`` call (row scaling, center row untouched).  Returns
    (coeffs, value, accept threshold of the winning evaluation).
    """
    start = _score(frame, q, coeffs)
    coeffs = start[0]
    n_rows = min(stage_degree, coeffs.shape[0] - 1)
    return _move_loop(
        frame, q, b, coeffs, list(range(frame.dim)), n_rows, iters, start
    )


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
        cc, cv, ct = _descend(frame, q, cb, warm, cd, cb.descent_iters)
        if cv < fwd_vals[j] - max(ct, fwd_tols[j]):
            kid_coeffs[j] = cc
    kids = [AnalyticDisc(kc) for kc in kid_coeffs]
    n_terms = max(1, max(k.degree for k in kids))
    info["n_terms"] = n_terms

    usable = [k for k in b.k_schedule if k > b.laurent_m]
    if not usable:
        info["skipped"] = "no k above the pole order"
        return coeffs, val, info
    deg_a = min(Mb - 1, stage_degree - (usable[0] * n_terms - b.laurent_m))
    if deg_a < 0:
        info["skipped"] = "no degree room at this stage"
        return coeffs, val, info

    family = BoundaryFamily(base, angles, tuple(kids))
    try:
        lam, resid = fit_laurent(family, b.laurent_m, n_terms, deg_a)
    except IllConditioned as exc:
        info["skipped"] = f"fit ill-conditioned: {exc}"
        return coeffs, val, info
    info["fit_residual"] = resid
    info["deg_a"] = deg_a

    best_val, best_coeffs, best_k, best_pi, best_mean = val, None, None, None, None
    swept = []
    for k in usable:
        if k * n_terms - b.laurent_m + deg_a > stage_degree:
            continue
        phases = [
            compose_rh(base, lam, k, np.exp(2j * np.pi * pi / b.n_phases),
                       degree_cap=stage_degree).coeffs
            for pi in range(b.n_phases)
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
    for si, d in enumerate(b.degree_schedule):
        cands = [_resize(best_c, d, frame.dim)]
        for s in extra_seeds:
            cands.append(_resize(np.asarray(s, dtype=complex), d, frame.dim))
        for ridx in range(b.restarts):
            rng = _rng(key_base + (si, ridx))
            cands.append(_random_coeffs(rng, center, d, b))
        for cand in cands:
            cc, cv, ct = _descend(frame, q, b, cand, d, b.descent_iters)
            if cv < best_v - max(ct, IMPROVE_TOL):
                best_c, best_v = cc, cv
        # Exponential-form pipeline: scan the two-level dip seeds, refine
        # the winner in log space where the dips move smoothly.
        dip = _best_dip_seed(frame, q, center, d, best_v)
        if dip is not None:
            cc, cv, ct = _descend_log(
                frame, q, b, dip[0], center, d, b.descent_iters
            )
            if cv < best_v - max(ct, IMPROVE_TOL):
                best_c, best_v = cc, cv
        # Arc-Chebyshev pipeline (unbounded windows): scan gap widths, then
        # polish the winner with the ordinary descent.
        arc = _best_arc_seed(frame, q, center, d, best_v)
        if arc is not None:
            cc, cv, ct = _descend(frame, q, b, arc[0], d, b.descent_iters)
            if cv < best_v - max(ct, IMPROVE_TOL):
                best_c, best_v = cc, cv
        stages.append({"degree": d, "value": best_v})
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
        cc, cv, ct = _descend(frame, qq, b, coeffs, top_degree, b.descent_iters)
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
    by_branch = {}
    euclid = None
    if space.kind == "curve":
        for p, v in zip(estimate.points, estimate.values):
            for label, t in lift_point(space, p):
                by_branch.setdefault(label, ([], []))
                by_branch[label][0].append(t)
                by_branch[label][1].append(v)
        interps = {
            label: _SliceInterp(np.asarray(ts), vs)
            for label, (ts, vs) in by_branch.items()
        }
    elif space.ambient_dim == 1:
        euclid = _SliceInterp(
            np.asarray([p[0] for p in estimate.points]), estimate.values
        )
    else:
        euclid = _GridLookup(estimate.points, estimate.values)

    reports = []
    for idx, f in enumerate(trial_discs):
        if space.kind == "curve" and f.branch is None:
            raise ValueError("trial discs on a curve space must carry a branch")
        if f.branch is not None:
            if f.branch.label not in interps:
                raise InterpolationOutOfRange(
                    f"no grid values on branch {f.branch.label!r}"
                )
            terp = interps[f.branch.label]
            ring = boundary_from_coeffs(f.coeffs, qq.M)[:, 0]
            center = f.coeffs[0, 0]
            vc = float(terp(np.array([center]))[0])
            boundary = terp(ring)
        else:
            terp = euclid
            ring = f.boundary_values(qq.M)
            center = f.center()
            if space.ambient_dim == 1:
                vc = float(terp(np.array([center[0]]))[0])
                boundary = terp(ring[:, 0])
            else:
                vc = float(terp([center])[0])
                boundary = terp(list(ring))
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
    singular_tol: float = 1e-7,
):
    """Shell maxima of the estimate around p over regular grid points.

    Returns (value, report) where report maps each radius to the max of the
    estimate over grid points within that distance of p, excluding p itself
    and (on curves) anything within singular_tol of the singular-locus hint;
    value is the max at the smallest radius.  Raises EmptyShell when a shell
    contains no usable grid point.
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
        for s in singular_locus_hint(space):
            keep &= np.max(np.abs(pts - s[None, :]), axis=1) > singular_tol
    report = {}
    for r in radii:
        shell = keep & (dist <= r)
        if not shell.any():
            raise EmptyShell(f"no regular grid points within {r} of the point")
        report[r] = float(np.max(vals[shell]))
    return report[radii[0]], report
