"""Model spaces: euclidean windows and normalized polynomial curves.

A space is either a euclidean domain in C^N (optionally restricted to a
polydisc window) or a curve presented by finitely many polynomial branch
maps t -> C^N.  Branch maps play the role of a normalization: membership,
lifting, and envelope searches on a curve all reduce to the parameter line.
Each lift of a point is one local germ of the curve through it, so p is
locally irreducible when ``len(lift_point(space, p)) == 1``; ``is_regular``
asks in addition that the branch be immersed at that lift.  Whether the
presentation is a normalization (distinct parameters of a branch give
distinct germs) is the caller's responsibility.
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
    "is_regular",
]

_ROOT_CLUSTER_TOL = 1e-9
_LIFT_TOL = 1e-9
_EPS = np.finfo(float).eps


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


def _horner(c: list, t: complex):
    """c'(t) and a bound on the rounding error of c(t) by Horner's rule.

    The bound is the running error bound of Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 5.1, widened from u to 4 eps
    per step to cover complex products; it scales with |c(t)|, not with a
    fixed unit.
    """
    y, dy, mu = c[-1], 0j, abs(c[-1])
    for a in c[-2::-1]:
        dy = t * dy + y
        y = t * y + a
        mu = abs(t) * mu + abs(y)
    return dy, 4.0 * _EPS * mu


def _branch_lifts(branch: BranchMap, p, tol: float) -> list:
    """(t, excess) for the parameters t with branch(t) == p within tol.

    excess is t's largest residual beyond what rounding explains: the
    evaluation error of each component at t plus the pivot's error carried
    through the root, doubled for the rounding already in p.  A root that
    matches p only within tol, like the sibling roots t*exp(2 pi i/3) of a
    cusp point (t^3, t^2) at small t, has a positive excess.
    """
    # Solve on the first nonconstant component, verify on the rest.
    comps = branch.components
    pivot = next(i for i, c in enumerate(comps) if len(c) > 1)
    poly = comps[pivot].copy()
    poly[0] -= p[pivot]
    roots = _cluster(_newton_polish(poly, r) for r in npoly.polyroots(poly))
    hits = []
    for t in roots:
        res = np.abs(branch.eval(t) - p)
        if np.max(res) > tol:
            continue
        t = complex(t)
        slope, err = zip(*(_horner(c.tolist(), t) for c in comps))
        # A root off by err[pivot] / |pivot'(t)| moves each component by up
        # to its own |c'(t)| times that.
        carry = err[pivot] / abs(slope[pivot]) if slope[pivot] else np.inf
        allow = [2.0 * (e + (abs(d) * carry if d else 0.0))
                 for d, e in zip(slope, err)]
        hits.append((t, float(np.max(res - allow))))
    return hits


def contains(space: SpaceModel, p, tol: float = _LIFT_TOL) -> bool:
    """Whether p lies on the space (and inside its window, if any)."""
    p = _as_point(space, p)
    if space.domain_constraint is not None:
        if not bool(space.domain_constraint.satisfied(p, slack=tol)):
            return False
    if space.kind == "euclidean":
        return True
    return any(_branch_lifts(b, p, tol) for b in space.branches)


def lift_point(space: SpaceModel, p, tol: float = _LIFT_TOL) -> list:
    """All branch preimages of p as (label, parameter) pairs.

    Raises PointNotOnSpace when no branch reproduces p within tol.  Among
    the parameters that do, the lifts are those that reproduce p up to the
    rounding of their own evaluation, or, when p is off the curve by more
    than that, up to the best one's excess.  Points on several branches (or
    with several preimages on one branch) return every lift, in branch
    order.
    """
    p = _as_point(space, p)
    if space.kind != "curve":
        raise NotApplicable("lift_point applies to curve spaces only")
    found = [(b.label, t, excess) for b in space.branches
             for t, excess in _branch_lifts(b, p, tol)]
    if not found:
        raise PointNotOnSpace(f"point {p} is not on any branch within tol={tol}")
    cut = max(0.0, min(excess for _, _, excess in found))
    return [(label, t) for label, t, excess in found if excess <= cut]


def is_regular(space: SpaceModel, p) -> bool:
    """Whether the curve is smooth at p, judged by p's own lifts.

    p is regular when it has exactly one lift and, at that parameter, some
    component of the branch has a derivative of modulus above lift_point's
    tolerance.  Several lifts mean several local germs through p (a node, a
    tangency, a crossing); a single lift with a vanishing derivative is a
    cusp.  Raises NotApplicable on euclidean spaces and PointNotOnSpace for
    points off the curve.
    """
    lifts = lift_point(space, p)
    if len(lifts) != 1:
        return False
    ((label, t),) = lifts
    comps = space.branch(label).components
    return any(abs(npoly.polyval(t, npoly.polyder(c))) > _LIFT_TOL for c in comps)
