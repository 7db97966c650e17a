"""Polynomial analytic discs and Riemann-Hilbert style composition.

Discs are polynomial maps of the closed unit disc, stored as coefficient
rows (low degree first).  A disc either lives in ambient C^N directly or in
the 1-dimensional parameter space of a curve branch, in which case ambient
values are the branch pushforward of the parameter polynomial.

Values on the M equispaced boundary nodes all come from one routine,
``stacked_boundaries``, which has two branches: a product with the powers
matrix ``circle_powers`` below degree 24, an inverse FFT of the
coefficients from degree 24 up.  The product is one BLAS gemm for a whole
stack, at every width.  A disc gets the same bits in any stack, with or
without zero top rows, as alone in ``boundary_from_coeffs``, which
``poisson_functional`` recomputes the search's values with.

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
    "complex_to_json",
    "complex_from_json",
    "disc_to_json",
    "disc_from_json",
    "unit_roots",
    "circle_powers",
    "stacked_boundaries",
    "boundary_error_bound",
]

DEGREE_CAP = 256
COND_LIMIT = 1e12
# Discs of degree _FFT_ROWS - 1 and up get their boundary values from an
# inverse FFT, lower ones from a product with circle_powers (see
# stacked_boundaries): per stack, the FFT's cost hardly grows with the
# degree while the product's grows linearly.  With one gemm per stack the
# two are about even at degree 32 at every width (at M = 512, 16 x 33 x 1:
# 50 us against 55 us; 16 x 33 x 2: 81 against 82 us); at psh_grid's
# degree 8 (16 x 9 x 2) the product takes 38 us, the FFT 85 us.  The
# threshold stays where one product per one-column disc put it, because
# moving it would move the bits of every disc of degree 24 to 31.
_FFT_ROWS = 25


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

    ``stacked_boundaries`` on a stack of one, so a disc gets the same bits
    here, where ``poisson_functional`` takes them, as in any stack the
    envelope search scores it in.
    """
    c = np.asarray(coeffs)
    out = np.empty((1, c.shape[1], M), dtype=complex).transpose(0, 2, 1)
    return stacked_boundaries(c[None], M, out)[0]


def stacked_boundaries(coeffs: np.ndarray, M: int, out: np.ndarray) -> np.ndarray:
    """Values of every disc of a stack on the M-node boundary grid.

    coeffs has shape (n, rows, width), out shape (n, M, width) with unit
    stride along M and (n, width, M) or (width, n, M) as its memory order;
    out is returned.  This is the one routine that computes disc
    boundaries.  Each disc takes one of two branches by its degree with zero
    top rows dropped, the degree ``AnalyticDisc`` gives it, so padding a
    disc with zero rows never moves it to the other branch:

    - below degree _FFT_ROWS - 1, a product with ``circle_powers``: one
      BLAS gemm for the whole stack, its n * width rows in out's memory
      order, so written straight into out;
    - from there up, the inverse DFT of the coefficients: rows are folded
      mod M (zeta^M = 1), zero-padded to M and transformed one disc row at
      a time.

    Either branch gives a disc the bits ``boundary_from_coeffs`` gives its
    trimmed coefficients alone, wherever it sits in the stack and whatever
    zero top rows it carries.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[1] < _FFT_ROWS:
        return _matmul_boundaries(coeffs, M, out)
    if coeffs[:, -1].all():  # no zero in the top row: the usual stack
        return _fft_boundaries(coeffs, M, out)
    high = coeffs[:, _FFT_ROWS - 1:].any(axis=(1, 2))
    for pick, branch, c in ((high, _fft_boundaries, coeffs),
                            (~high, _matmul_boundaries, coeffs[:, :_FFT_ROWS - 1])):
        if pick.any():
            part = np.empty((int(pick.sum()), coeffs.shape[2], M), dtype=complex)
            out[pick] = branch(c[pick], M, part.transpose(0, 2, 1))
    return out


def boundary_error_bound(rows: int, M: int) -> float:
    """How far a value of ``stacked_boundaries`` may be from exact.

    For a disc of at most ``rows`` rows a_j, each value the routine
    computes at a node zeta is within ``boundary_error_bound(rows, M) * S``
    of the exact sum_j a_j zeta^j, S = sum_j |a_j|, on whichever branch the
    disc takes.  A change to either branch or to _FFT_ROWS must update it.
    Notation: u = 2^-53, K = rows.

    - The node powers.  ``unit_roots`` rounds the angle 2 pi k / M three
      times and exp once, so each node is within 21u of exact; numpy
      raises it to the power j by repeated squaring (j < 100) or by
      exp(j log z), so ``unit_roots(M)[k] ** j``, each entry of
      ``circle_powers``, is within 40 j u <= 40 K u of zeta^j.
    - The product branch, for K < _FFT_ROWS or a disc trimmed below it, is
      a complex dot of length K with those powers, within sqrt(2)
      gamma_{K+1} of its exact value: (42 K + 2) u S.
    - The FFT branch folds rows mod M (at most K u S) and transforms; a
      radix-2 FFT of length M (a power of two) with accurate twiddles is
      within 7 u log2(M) of exact in the 2-norm (Higham, Accuracy and
      Stability, Thm 24.2), and its output has 2-norm <= sqrt(M) S:
      (8 log2(M) sqrt(M) + K) u S.
    """
    u = 2.0**-53
    product = 42 * rows + 2
    if rows < _FFT_ROWS:
        return product * u
    return max(product, 8 * np.log2(M) * np.sqrt(M) + rows) * u


def _matmul_boundaries(coeffs, M, out):
    # Seen as (n, width, M), out is one (n * width, M) matrix in either
    # memory order, (n, width, M) or (width, n, M): the stack makes one gemm
    # with its rows in that order, written straight into out.  A gemm row
    # does not depend on the other rows or on zero top rows; a lone row gets
    # a zero row appended, since numpy sends a one-row product through gemv,
    # which rounds it otherwise.
    rows = coeffs.shape[1]
    a, vals = coeffs.transpose(0, 2, 1), out.transpose(0, 2, 1)
    if vals.strides[1] > vals.strides[0]:
        a, vals = a.transpose(1, 0, 2), vals.transpose(1, 0, 2)
    a, vals = a.reshape(-1, rows), vals.reshape((-1, M), copy=False)
    P = circle_powers(M, rows - 1)
    if len(a) > 1:
        np.matmul(np.ascontiguousarray(a), P, out=vals)
    else:
        vals[:] = np.matmul(np.concatenate([a, np.zeros_like(a)]), P)[:1]
    return out


def _fft_boundaries(coeffs, M, out):
    # out, seen as (n, width, M), takes the folded and zero-padded spectrum
    # and is transformed in place.
    spec = out.transpose(0, 2, 1)
    c = coeffs.transpose(0, 2, 1)
    head = min(c.shape[2], M)
    spec[..., :head] = c[..., :head]
    spec[..., head:] = 0
    for lo in range(M, c.shape[2], M):
        part = c[..., lo:lo + M]
        spec[..., :part.shape[2]] += part
    np.fft.ifft(spec, axis=-1, norm="forward", out=spec)
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
        # A copy of its own: a view would keep the whole array it was cut
        # from (a search's stack of trials, say) alive with the disc.
        c = np.array(_trim_rows(_coeff_matrix(self.coeffs)))
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


def fit_laurent(family: BoundaryFamily, m: int, n_terms: int, deg_a: int):
    """Least-squares Laurent fit of a boundary family.

    Samples lam(zeta_j, z) = g_j(z) - f(zeta_j) over the family's angles and a
    z-grid of roots of unity, and solves for the A_j coefficient polynomials
    by one SVD-based least-squares solve; the z-grid has
    max(2 * n_terms, 8) points.  Returns
    ``(LaurentFamily, residual)`` with the achieved sup-norm residual on the
    sample grid.  Raises IllConditioned when the condition estimate of the
    normal equations exceeds COND_LIMIT.
    """
    if n_terms < 1 or deg_a < 0 or m < 0:
        raise ValueError("need n_terms >= 1, deg_a >= 0, m >= 0")
    L = max(2 * n_terms, 8)
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

    rhs = data.reshape(B * L, width)
    sol, _, _, sing = np.linalg.lstsq(design, rhs, rcond=None)
    cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf
    if cond * cond > COND_LIMIT:
        raise IllConditioned(
            f"normal equations condition estimate {cond * cond:.3e} "
            f"exceeds {COND_LIMIT:.3e}"
        )
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


def complex_to_json(v) -> list:
    """A complex vector in the JSON layout of every output file: [[re, im], ...]."""
    return [[float(z.real), float(z.imag)] for z in np.ravel(v)]


def complex_from_json(obj) -> np.ndarray:
    """Inverse of complex_to_json."""
    return np.array([complex(re, im) for re, im in obj], dtype=complex)


def disc_to_json(f: AnalyticDisc) -> dict:
    obj = {
        "degree": f.degree,
        "width": f.width,
        "coeffs": [complex_to_json(row) for row in f.coeffs],
    }
    if f.branch is not None:
        obj["branch"] = f.branch.label
    return obj


def disc_from_json(obj: dict, space=None) -> AnalyticDisc:
    coeffs = np.array([complex_from_json(row) for row in obj["coeffs"]],
                      dtype=complex)
    branch = None
    if obj.get("branch") is not None:
        if space is None:
            raise ValueError("branch disc needs the space to resolve its label")
        branch = space.branch(obj["branch"])
    return AnalyticDisc(coeffs, branch)
