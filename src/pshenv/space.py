"""Model spaces: euclidean windows and normalized polynomial curves.

A space is either a euclidean domain in C^N (optionally restricted to a
polydisc window) or a curve presented by finitely many polynomial branch
maps t -> C^N.  Branch maps play the role of a normalization: membership,
lifting, and envelope searches on a curve all reduce to the parameter line.
Seminormality of the presented curve is the caller's responsibility; nothing
here checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NotApplicable, PointNotOnSpace

__all__ = [
    "BranchMap",
    "DomainConstraint",
    "SpaceModel",
    "polydisc",
    "euclidean_space",
    "curve_space",
    "contains",
    "lift_point",
    "singular_locus_hint",
]

_ROOT_CLUSTER_TOL = 1e-9


def _trim(coeffs) -> np.ndarray:
    """Coefficient vector (low degree first) with trailing zeros dropped."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    nz = np.nonzero(np.abs(c) > 0.0)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1].copy()


@dataclass(frozen=True)
class BranchMap:
    """Polynomial map t -> C^N given by per-component coefficient vectors."""

    label: str
    components: tuple  # tuple of complex ndarray, low degree first

    def __post_init__(self):
        comps = tuple(_trim(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("branch map needs at least one component")
        if all(len(c) == 1 for c in comps):
            raise ValueError(f"branch {self.label!r} is constant")

    @property
    def ambient_dim(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int:
        return max(len(c) - 1 for c in self.components)

    def eval(self, t):
        """Ambient values at parameter(s) t; shape (..., N)."""
        t = np.asarray(t, dtype=complex)
        out = np.empty(t.shape + (self.ambient_dim,), dtype=complex)
        for i, c in enumerate(self.components):
            out[..., i] = npoly.polyval(t, c)
        return out


@dataclass(frozen=True)
class DomainConstraint:
    """Per-coordinate polydisc |z_i - center_i| <= radius_i."""

    center: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=complex))
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if c.shape != r.shape:
            raise ValueError("center and radii must have matching length")
        if np.any(r <= 0):
            raise ValueError("constraint radii must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radii", r)

    def satisfied(self, pts, slack: float = 0.0):
        """Boolean mask over points of shape (..., N)."""
        pts = np.asarray(pts, dtype=complex)
        ok = np.abs(pts - self.center) <= self.radii + slack
        return np.all(ok, axis=-1)


@dataclass(frozen=True)
class SpaceModel:
    """Euclidean window in C^N, or a curve given by branch maps."""

    kind: str  # "euclidean" | "curve"
    ambient_dim: int
    branches: tuple = field(default_factory=tuple)
    domain_constraint: DomainConstraint | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "curve"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be >= 1")
        if self.kind == "curve":
            if not self.branches:
                raise ValueError("curve space needs at least one branch map")
            labels = [b.label for b in self.branches]
            if len(set(labels)) != len(labels):
                raise ValueError("branch labels must be unique")
            for b in self.branches:
                if b.ambient_dim != self.ambient_dim:
                    raise ValueError(
                        f"branch {b.label!r} maps into C^{b.ambient_dim}, "
                        f"space is C^{self.ambient_dim}"
                    )
        elif self.branches:
            raise ValueError("euclidean space takes no branch maps")

    @property
    def irreducible(self) -> bool:
        return self.kind == "euclidean" or len(self.branches) <= 1

    def branch(self, label: str) -> BranchMap:
        for b in self.branches:
            if b.label == label:
                return b
        raise KeyError(f"no branch labelled {label!r}")


def polydisc(dim: int, radius, center=None) -> DomainConstraint:
    """The window |z_i - center_i| <= radius_i in C^dim.

    A single radius applies to every coordinate and the center defaults to
    the origin; any other number of radii is a ValueError.
    """
    r = np.atleast_1d(np.asarray(radius, dtype=float))
    if r.size == 1:
        r = np.full(dim, r[0])
    if r.shape != (dim,):
        raise ValueError(f"window radius needs 1 or {dim} values, got {r.size}")
    return DomainConstraint(np.zeros(dim, complex) if center is None else center, r)


def euclidean_space(ambient_dim, center=None, radii=None) -> SpaceModel:
    """C^N, optionally restricted to the polydisc |z_i - center_i| <= radii_i."""
    constraint = None if radii is None else polydisc(ambient_dim, radii, center)
    return SpaceModel("euclidean", ambient_dim, (), constraint)


def curve_space(branches, constraint: DomainConstraint | None = None) -> SpaceModel:
    branches = tuple(branches)
    return SpaceModel("curve", branches[0].ambient_dim, branches, constraint)


def _as_point(space: SpaceModel, p) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    if p.shape != (space.ambient_dim,):
        raise ValueError(f"point must have shape ({space.ambient_dim},)")
    if not np.all(np.isfinite(p.view(float))):
        raise ValueError("point coordinates must be finite")
    return p


def _cluster(roots) -> list:
    """Collapse numerically coincident roots, deterministic order."""
    out = []
    for r in sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12))):
        if not any(abs(r - q) <= _ROOT_CLUSTER_TOL * max(1.0, abs(q)) for q in out):
            out.append(r)
    return out


def _newton_polish(poly, t, iters: int = 60):
    """Drive a root estimate of the coefficient-form polynomial to a float
    fixed point.

    The eigenvalue solver behind polyroots is only good to a few ulp; lifting
    must return the exact parameter whenever the polynomial value at it is
    exactly zero in floats (otherwise round trips through lift/eval cannot be
    reproduced bitwise).  Newton reaches such a point and then stops moving.
    """
    dpoly = npoly.polyder(poly)
    best, best_res = t, abs(npoly.polyval(t, poly))
    for _ in range(iters):
        d = npoly.polyval(t, dpoly)
        if d == 0:
            break
        t_next = t - npoly.polyval(t, poly) / d
        if t_next == t or not np.isfinite(t_next):
            break
        t = t_next
        res = abs(npoly.polyval(t, poly))
        if res < best_res:
            best, best_res = t, res
    return best


def _branch_lifts(branch: BranchMap, p, tol: float) -> list:
    """Parameters t with branch(t) == p within tol (sup norm)."""
    # Solve on the first nonconstant component, verify on the rest.
    pivot = next(i for i, c in enumerate(branch.components) if len(c) > 1)
    poly = branch.components[pivot].copy()
    poly[0] -= p[pivot]
    roots = _cluster(_newton_polish(poly, r) for r in npoly.polyroots(poly))
    hits = []
    for t in roots:
        if np.max(np.abs(branch.eval(t) - p)) <= tol:
            hits.append(complex(t))
    return hits


def contains(space: SpaceModel, p, tol: float = 1e-9) -> bool:
    """Whether p lies on the space (and inside its window, if any)."""
    p = _as_point(space, p)
    if space.domain_constraint is not None:
        if not bool(space.domain_constraint.satisfied(p, slack=tol)):
            return False
    if space.kind == "euclidean":
        return True
    return any(_branch_lifts(b, p, tol) for b in space.branches)


def lift_point(space: SpaceModel, p, tol: float = 1e-9) -> list:
    """All branch preimages of p as (label, parameter) pairs.

    Raises PointNotOnSpace when no branch reproduces p within tol.  Points on
    several branches (or with several preimages on one branch) return every
    lift, in branch order.
    """
    p = _as_point(space, p)
    if space.kind != "curve":
        raise NotApplicable("lift_point applies to curve spaces only")
    lifts = []
    for b in space.branches:
        for t in _branch_lifts(b, p, tol):
            lifts.append((b.label, t))
    if not lifts:
        raise PointNotOnSpace(f"point {p} is not on any branch within tol={tol}")
    return lifts


# ---------------------------------------------------------------------------
# Singular locus hint: derivative zeros, cross/self intersections.

def _poly2_eval_s(P, t):
    """Bivariate coeff array P[a,b] (t^a s^b) evaluated at scalar t -> poly in s."""
    tp = t ** np.arange(P.shape[0])
    return _trim(tp @ P)


def _sylvester_det(p, q) -> complex:
    n, m = len(p) - 1, len(q) - 1
    if n < 1 or m < 1:
        # A constant equation: resultant degenerates; treat nonzero constant
        # as "no common root" and zero constant as identically solvable.
        const = p if n < 1 else q
        return complex(const[0]) ** max(m, n, 1)
    S = np.zeros((n + m, n + m), dtype=complex)
    for i in range(m):
        S[i, i : i + n + 1] = p[::-1]
    for i in range(n):
        S[m + i, i : i + m + 1] = q[::-1]
    return complex(np.linalg.det(S))


def _resultant_t_roots(P, Q) -> list:
    """Roots in t of Res_s(P, Q) for bivariate coeff arrays, by sampling.

    Evaluates the resultant at enough sample points on a circle and
    interpolates; degree bound deg_t(P)*deg_s(Q) + deg_t(Q)*deg_s(P).
    """
    dtP, dsP = P.shape[0] - 1, P.shape[1] - 1
    dtQ, dsQ = Q.shape[0] - 1, Q.shape[1] - 1
    bound = dtP * dsQ + dtQ * dsP
    if bound < 1:
        return []
    K = bound + 1
    samples = 1.37 * np.exp(2j * np.pi * (np.arange(K) + 0.31) / K)
    vals = np.array([_sylvester_det(_poly2_eval_s(P, t), _poly2_eval_s(Q, t))
                     for t in samples])
    if np.max(np.abs(vals)) <= 1e-12:
        return []  # resultant vanishes identically; no isolated solutions
    V = np.vander(samples, K, increasing=True)
    coeffs = np.linalg.solve(V, vals)
    return _cluster(npoly.polyroots(_trim(coeffs)))


def _pair_system(b1: BranchMap, b2: BranchMap) -> list:
    """Coeff arrays for b1_i(t) - b2_i(s), one per ambient coordinate."""
    eqs = []
    for c1, c2 in zip(b1.components, b2.components):
        P = np.zeros((len(c1), len(c2)), dtype=complex)
        P[:, 0] += c1
        P[0, :] -= c2
        eqs.append(P)
    return eqs


def _divided_difference_system(b: BranchMap) -> list:
    """Coeff arrays for (b_i(t) - b_i(s)) / (t - s)."""
    eqs = []
    for c in b.components:
        d = len(c) - 1
        if d < 1:
            continue
        P = np.zeros((d, d), dtype=complex)
        for k in range(1, d + 1):
            for a in range(k):
                P[a, k - 1 - a] += c[k]
        eqs.append(P)
    return eqs


def _solve_pair(eqs, verify, tol: float) -> list:
    """Solutions (t, s) of a bivariate polynomial system, brute elimination."""
    t_cands = []
    # Equations independent of s pin t directly.
    direct = [P for P in eqs if P.shape[1] == 1 and P.shape[0] > 1]
    in_s = [P for P in eqs if P.shape[1] > 1]
    if direct:
        t_cands = _cluster(npoly.polyroots(_trim(direct[0][:, 0])))
    elif len(in_s) >= 2:
        t_cands = _resultant_t_roots(in_s[0], in_s[1])
    if not t_cands or not in_s:
        return []
    sols = []
    for t in t_cands:
        s_poly = _poly2_eval_s(in_s[0], t)
        if len(s_poly) < 2:
            continue
        for s in _cluster(npoly.polyroots(s_poly)):
            if verify(t, s, tol):
                sols.append((complex(t), complex(s)))
    return sols


def singular_locus_hint(space: SpaceModel, tol: float = 1e-7) -> list:
    """Candidate singular ambient points of a curve space.

    Collects branch-derivative zeros, pairwise branch intersections, and
    self-intersections (via divided differences).  This is a hint: points are
    candidates found by resultant/root computations, deduplicated, in a
    deterministic order.  Raises NotApplicable on euclidean spaces.
    """
    if space.kind != "curve":
        raise NotApplicable("singular_locus_hint applies to curve spaces only")
    points = []

    def push(p):
        p = np.asarray(p, dtype=complex)
        for q in points:
            if np.max(np.abs(p - q)) <= 10 * tol * max(1.0, float(np.max(np.abs(q)))):
                return
        points.append(p)

    for b in space.branches:
        derivs = [_trim(npoly.polyder(c)) for c in b.components]
        pivot = next((d for d in derivs if len(d) > 1 or abs(d[0]) > 0), None)
        if pivot is None or len(pivot) == 1:
            # All derivative components constant; a zero requires them all ~ 0.
            if all(abs(d[0]) <= tol for d in derivs):
                pass  # degenerate presentation; nothing isolated to report
        else:
            for t in _cluster(npoly.polyroots(pivot)):
                if all(abs(npoly.polyval(t, d)) <= tol for d in derivs):
                    push(b.eval(t))

    if space.ambient_dim >= 2:
        for b in space.branches:
            eqs = _divided_difference_system(b)
            if len(eqs) >= 1:
                def verify_self(t, s, tol, _b=b):
                    if abs(t - s) <= 1e-7:
                        return False
                    return float(np.max(np.abs(_b.eval(t) - _b.eval(s)))) <= tol
                for t, _s in _solve_pair(eqs, verify_self, tol):
                    push(b.eval(t))
        for i, b1 in enumerate(space.branches):
            for b2 in space.branches[i + 1 :]:
                eqs = _pair_system(b1, b2)
                def verify_cross(t, s, tol, _b1=b1, _b2=b2):
                    return float(np.max(np.abs(_b1.eval(t) - _b2.eval(s)))) <= tol
                for t, _s in _solve_pair(eqs, verify_cross, tol):
                    push(b1.eval(t))

    points.sort(key=lambda p: tuple((round(z.real, 9), round(z.imag, 9)) for z in p))
    return points
