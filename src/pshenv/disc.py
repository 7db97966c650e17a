"""Polynomial analytic discs and Riemann-Hilbert style composition.

Discs are polynomial maps of the closed unit disc, stored as coefficient
rows (low degree first).  A disc either lives in ambient C^N directly or in
the 1-dimensional parameter space of a curve branch, in which case ambient
values are the branch pushforward of the parameter polynomial.

The composition machinery takes a base disc f together with a family of
discs attached to its boundary points, compresses the family into a Laurent
correction lam(zeta, z) = sum_j A_j(zeta) z^j with zeta-coefficients divided
by zeta^m, and produces h(zeta) = f(zeta) + lam(zeta, c zeta^k).  For k > m
the correction has no constant term, so h keeps the center of f exactly, at
the coefficient level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import DegreeOverflow, IllConditioned
from .functional import arc_functional
from .space import BranchMap

__all__ = [
    "AnalyticDisc",
    "LaurentFamily",
    "BoundaryFamily",
    "constant_disc",
    "fit_laurent",
    "compose_rh",
    "choose_phase",
    "disc_to_json",
    "disc_from_json",
    "unit_roots",
    "circle_powers",
    "stacked_boundaries",
]

DEGREE_CAP = 256
COND_LIMIT = 1e12


@lru_cache(maxsize=64)
def unit_roots(M: int) -> np.ndarray:
    """The M equispaced boundary nodes e^{2 pi i j / M}, read-only."""
    z = np.exp(2j * np.pi * np.arange(M) / M)
    z.flags.writeable = False
    return z


@lru_cache(maxsize=64)
def circle_powers(M: int, degree: int) -> np.ndarray:
    """Powers matrix P[j, i] = zeta_i^j on the M-node grid, shape (degree+1, M)."""
    z = unit_roots(M)
    P = z[None, :] ** np.arange(degree + 1)[:, None]
    P.flags.writeable = False
    return P


def boundary_from_coeffs(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Raw polynomial values on the M-node boundary grid, shape (M, width).

    Single canonical evaluation path: the envelope search and
    poisson_functional must agree bit-for-bit on disc boundary values.
    """
    P = circle_powers(M, coeffs.shape[0] - 1)
    return (coeffs.T @ P).T


def stacked_boundaries(coeffs: np.ndarray, M: int, out: np.ndarray) -> np.ndarray:
    """boundary_from_coeffs of every disc in a stack, bit for bit.

    coeffs has shape (n, degree+1, width), out shape (n, M, width) with
    unit stride along M.  numpy makes one BLAS call per disc with the
    operand layout boundary_from_coeffs uses, so each disc gets the values
    boundary_from_coeffs gives it; out is returned.
    """
    coeffs = np.ascontiguousarray(coeffs)
    P = circle_powers(M, coeffs.shape[1] - 1)
    np.matmul(coeffs.transpose(0, 2, 1), P, out=out.transpose(0, 2, 1))
    return out


def _coeff_matrix(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim == 1:
        c = c[:, None]
    if c.ndim != 2 or c.shape[0] < 1:
        raise ValueError("coefficients must have shape (degree+1, width)")
    return c


def _trim_rows(c: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.max(np.abs(c), axis=1) > 0.0)[0]
    last = nz[-1] if nz.size else 0
    return c[: last + 1]


@dataclass(frozen=True)
class AnalyticDisc:
    """Polynomial disc; coeffs shape (degree+1, width), low degree first.

    width is the ambient dimension, or 1 for a disc in a branch parameter.
    """

    coeffs: np.ndarray
    branch: BranchMap | None = None

    def __post_init__(self):
        c = _trim_rows(_coeff_matrix(self.coeffs))
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("disc coefficients must be finite")
        if self.branch is not None and c.shape[1] != 1:
            raise ValueError("branch discs live in a 1-dimensional parameter")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def width(self) -> int:
        return self.coeffs.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.branch.ambient_dim if self.branch else self.width

    def eval(self, zeta):
        """Raw polynomial values (parameter space for branch discs)."""
        zeta = np.asarray(zeta, dtype=complex)
        powers = zeta[..., None] ** np.arange(self.coeffs.shape[0])
        return powers @ self.coeffs

    def ambient(self, zeta):
        """Ambient values; identity for euclidean discs, pushforward otherwise."""
        vals = self.eval(zeta)
        if self.branch is None:
            return vals
        return self.branch.eval(vals[..., 0])

    def center(self) -> np.ndarray:
        return self.ambient(np.asarray(0j))

    def boundary_values(self, M: int) -> np.ndarray:
        """Ambient values on the M equispaced boundary nodes, shape (M, N)."""
        vals = boundary_from_coeffs(self.coeffs, M)
        if self.branch is None:
            return vals
        return self.branch.eval(vals[:, 0])


def constant_disc(point, branch: BranchMap | None = None) -> AnalyticDisc:
    p = np.atleast_1d(np.asarray(point, dtype=complex))
    return AnalyticDisc(p[None, :], branch)


@dataclass(frozen=True)
class LaurentFamily:
    """Correction lam(zeta, z) = zeta^{-m} sum_{j=1}^{n} A_j(zeta) z^j.

    coeffs has shape (n_terms, deg_a+1, width); coeffs[j-1, r] is the
    zeta^r coefficient of A_j.  There is no j=0 term, so lam(zeta, 0) = 0.
    """

    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[0] < 1:
            raise ValueError("coeffs must have shape (n_terms, deg_a+1, width)")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def n_terms(self) -> int:
        return self.coeffs.shape[0]

    @property
    def deg_a(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def width(self) -> int:
        return self.coeffs.shape[2]

    def eval(self, zeta, z):
        """lam at broadcastable (zeta, z); zeta must avoid 0 when m > 0."""
        zeta = np.asarray(zeta, dtype=complex)
        z = np.asarray(z, dtype=complex)
        A = np.tensordot(zeta[..., None] ** np.arange(self.deg_a + 1),
                         self.coeffs, axes=([-1], [1]))  # (..., n_terms, width)
        zpow = z[..., None] ** np.arange(1, self.n_terms + 1)
        out = np.einsum("...jw,...j->...w", A, zpow)
        return out * (zeta[..., None] ** (-self.m))


@dataclass(frozen=True)
class BoundaryFamily:
    """Discs g_t attached to boundary points of a base disc f.

    angles are the attachment angles t_j; discs[j] is centred at
    f(e^{i t_j}) within center_tol.  All members share the base's branch.
    """

    base: AnalyticDisc
    angles: np.ndarray
    discs: tuple
    center_tol: float = 1e-8

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        if ang.ndim != 1 or ang.size != len(self.discs):
            raise ValueError("angles and discs must have matching length")
        base_pts = self.base.eval(np.exp(1j * ang))
        for j, g in enumerate(self.discs):
            if g.width != self.base.width or (g.branch is not self.base.branch):
                raise ValueError("family members must match the base disc")
            err = float(np.max(np.abs(g.eval(np.asarray(0j)) - base_pts[j])))
            if err > self.center_tol:
                raise ValueError(
                    f"family disc {j} misses its boundary point by {err:.3e}"
                )
        ang = ang.copy()
        ang.flags.writeable = False
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "discs", tuple(self.discs))


def fit_laurent(family: BoundaryFamily, m: int, n_terms: int, deg_a: int,
                z_samples: int | None = None, cond_limit: float = COND_LIMIT):
    """Least-squares Laurent fit of a boundary family.

    Samples lam(zeta_j, z) = g_j(z) - f(zeta_j) over the family's angles and a
    z-grid of roots of unity, and solves for the A_j coefficient polynomials
    with a column-pivoted orthogonal factorization.  Returns
    ``(LaurentFamily, residual)`` with the achieved sup-norm residual on the
    sample grid.  Raises IllConditioned when the condition estimate of the
    normal equations exceeds cond_limit.
    """
    if n_terms < 1 or deg_a < 0 or m < 0:
        raise ValueError("need n_terms >= 1, deg_a >= 0, m >= 0")
    L = z_samples or max(2 * n_terms, 8)
    zeta = np.exp(1j * family.angles)           # (B,)
    zg = unit_roots(L)                          # (L,)
    B, width = zeta.size, family.base.width

    base_vals = family.base.eval(zeta)          # (B, width)
    data = np.empty((B, L, width), dtype=complex)
    for j, g in enumerate(family.discs):
        data[j] = g.eval(zg) - base_vals[j]

    # Design: rows (j, l), columns (term, r) -> zeta_j^{r-m} z_l^{term}.
    zeta_pow = zeta[:, None] ** (np.arange(deg_a + 1)[None, :] - m)   # (B, R)
    z_pow = zg[:, None] ** np.arange(1, n_terms + 1)[None, :]         # (L, T)
    design = (z_pow[None, :, :, None] * zeta_pow[:, None, None, :])
    design = design.reshape(B * L, n_terms * (deg_a + 1))

    sing = np.linalg.svd(design, compute_uv=False)
    cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf
    if cond * cond > cond_limit:
        raise IllConditioned(
            f"normal equations condition estimate {cond * cond:.3e} "
            f"exceeds {cond_limit:.3e}"
        )

    rhs = data.reshape(B * L, width)
    sol, _, _, _ = scipy.linalg.lstsq(design, rhs, lapack_driver="gelsy")
    lam = LaurentFamily(m, sol.reshape(n_terms, deg_a + 1, width))
    resid = float(np.max(np.abs(design @ sol - rhs))) if rhs.size else 0.0
    return lam, resid


def compose_rh(f: AnalyticDisc, lam: LaurentFamily, k: int, c: complex,
               degree_cap: int = DEGREE_CAP) -> AnalyticDisc:
    """h(zeta) = f(zeta) + lam(zeta, c zeta^k), by exact coefficient algebra.

    Requires integer k > lam.m and |c| = 1 (up to 1e-9).  The correction
    contributes rows k*j - m + r >= k - m >= 1 only, so h(0) == f(0) holds
    bit-exactly.  Raises DegreeOverflow if deg h would exceed degree_cap.
    """
    if int(k) != k or k <= lam.m:
        raise ValueError(f"need integer k > m = {lam.m}")
    k = int(k)
    if abs(abs(c) - 1.0) > 1e-9:
        raise ValueError("phase c must be unimodular")
    if lam.width != f.width:
        raise ValueError("family width does not match the disc")
    top = k * lam.n_terms - lam.m + lam.deg_a
    if max(f.degree, top) > degree_cap:
        raise DegreeOverflow(
            f"composed degree {max(f.degree, top)} exceeds cap {degree_cap}"
        )
    out = np.zeros((max(f.degree, top) + 1, f.width), dtype=complex)
    out[: f.degree + 1] = f.coeffs
    cj = 1.0 + 0j
    for j in range(1, lam.n_terms + 1):
        cj = cj * c
        lo = k * j - lam.m
        out[lo : lo + lam.deg_a + 1] += cj * lam.coeffs[j - 1]
    return AnalyticDisc(out, f.branch)


def choose_phase(f: AnalyticDisc, lam: LaurentFamily, k: int, u, arcs,
                 n_phases: int, q):
    """Best winding phase for the composition, by argmin over a phase grid.

    Evaluates c = e^{2 pi i idx / n_phases} for idx = 0..n_phases-1 and
    returns ``(c, value)`` minimizing the summed arc functionals of u along
    the composed disc.  Ties keep the smallest phase angle.  The minimum is
    at most the grid average of the candidate values.
    """
    if n_phases < 1:
        raise ValueError("need n_phases >= 1")
    best_c, best_val = None, np.inf
    for idx in range(n_phases):
        c = np.exp(2j * np.pi * idx / n_phases)
        h = compose_rh(f, lam, k, c)
        val = 0.0
        for arc in arcs:
            val += arc_functional(u, h, q, arc)
        if val < best_val:
            best_c, best_val = c, float(val)
    return best_c, best_val


def disc_to_json(f: AnalyticDisc) -> dict:
    obj = {
        "degree": f.degree,
        "width": f.width,
        "coeffs": [[[float(v.real), float(v.imag)] for v in row]
                   for row in f.coeffs],
    }
    if f.branch is not None:
        obj["branch"] = f.branch.label
    return obj


def disc_from_json(obj: dict, space=None) -> AnalyticDisc:
    coeffs = np.array([[complex(re, im) for re, im in row]
                       for row in obj["coeffs"]], dtype=complex)
    if coeffs.ndim != 2:
        coeffs = coeffs.reshape(obj["degree"] + 1, obj["width"])
    branch = None
    if obj.get("branch") is not None:
        if space is None:
            raise ValueError("branch disc needs the space to resolve its label")
        branch = space.branch(obj["branch"])
    return AnalyticDisc(coeffs, branch)
