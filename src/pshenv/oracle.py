"""Brute-force reference solvers, independent of the disc machinery.

Two oracles:

* ``subharmonic_minorant`` solves the discrete obstacle problem on a square
  grid over a 1-dimensional complex slice: the largest grid function that is
  below the obstacle and satisfies the five-point submean inequality at
  interior nodes.  Projected successive over-relaxation (Cryer 1971) in
  red/black checkerboard order, with Young's optimal factor for the
  five-point Laplacian; it shares no code with the envelope search it
  cross-checks.

* ``radial_envelope`` computes the largest convex nondecreasing minorant of
  radial samples in t = log r (the classical shape of radial subharmonic
  functions), via a lower convex hull plus monotone flattening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .functional import ScalarField

__all__ = [
    "GridDomain",
    "grid_domain",
    "field_on_grid",
    "subharmonic_minorant",
    "interp_bilinear",
    "RadialEnvelope",
    "radial_envelope",
]


@dataclass(frozen=True)
class GridDomain:
    """Square n x n grid with spacing h and an active-node mask.

    mask[i, j] is the node (x[j], y[i]); interior nodes are active nodes all
    of whose 4-neighbors are active; active non-interior nodes are boundary
    and hold obstacle values throughout relaxation.
    """

    x: np.ndarray
    y: np.ndarray
    h: float
    mask: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "mask"):
            frozen = np.array(getattr(self, name))
            frozen.flags.writeable = False
            object.__setattr__(self, name, frozen)
        n = self.x.size
        if n < 33:
            raise ValueError("oracle grids need n >= 33 nodes per side")
        if self.y.size != n or self.mask.shape != (n, n):
            raise ValueError("grid arrays must be square and consistent")
        if not _connected(self.mask):
            raise ValueError("active mask must be 4-connected")

    @property
    def n(self) -> int:
        return self.x.size

    def interior(self) -> np.ndarray:
        m = self.mask
        inner = np.zeros_like(m)
        inner[1:-1, 1:-1] = (m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1]
                             & m[1:-1, :-2] & m[1:-1, 2:])
        return inner

    def points(self) -> np.ndarray:
        """Complex node coordinates, shape (n, n)."""
        return self.x[None, :] + 1j * self.y[:, None]


def _connected(mask: np.ndarray) -> bool:
    """Whether the active nodes form one 4-connected set.

    Grows the set reached from the first active node by its four shifted
    copies, kept inside the mask, until it stops growing.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return False
    seen = np.zeros_like(mask)
    seen.flat[np.argmax(mask)] = True
    while True:
        grown = seen.copy()
        grown[1:, :] |= seen[:-1, :]
        grown[:-1, :] |= seen[1:, :]
        grown[:, 1:] |= seen[:, :-1]
        grown[:, :-1] |= seen[:, 1:]
        grown &= mask
        if np.array_equal(grown, seen):
            return np.array_equal(seen, mask)
        seen = grown


def grid_domain(n: int, rect=(-1.0, 1.0, -1.0, 1.0), mask: str = "rect",
                inner: float = 0.0) -> GridDomain:
    """Build a square grid over rect with a rect/disc/annulus active mask;
    inner is the annulus's inner radius and stays 0 for the other masks."""
    xlo, xhi, ylo, yhi = map(float, rect)
    hx = (xhi - xlo) / (n - 1)
    hy = (yhi - ylo) / (n - 1)
    if abs(hx - hy) > 1e-12 * max(abs(hx), abs(hy)):
        raise ValueError("grid cells must be square (match rect aspect to n)")
    x = xlo + hx * np.arange(n)
    y = ylo + hy * np.arange(n)
    if mask == "rect":
        m = np.ones((n, n), dtype=bool)
    elif mask in ("disc", "annulus"):
        cx, cy = (xlo + xhi) / 2, (ylo + yhi) / 2
        r = min(xhi - xlo, yhi - ylo) / 2
        d = np.hypot(x[None, :] - cx, y[:, None] - cy)
        m = d <= r * (1 + 1e-12)
        if mask == "annulus":
            if not (0 < inner < r):
                raise ValueError("annulus needs 0 < inner < outer radius")
            m &= d >= inner * (1 - 1e-12)
    else:
        raise ValueError(f"unknown mask kind {mask!r}")
    if inner != 0 and mask != "annulus":
        raise ValueError(f"inner = {inner!r} needs mask = 'annulus', got {mask!r}")
    return GridDomain(x, y, hx, m)


def field_on_grid(u: ScalarField, domain: GridDomain) -> np.ndarray:
    """Obstacle values on active nodes (NaN off the mask).

    The grid lives in one variable, so a field that reads z2 or beyond
    raises ValueError before any evaluation.
    """
    u.check_dimension(1)
    z = domain.points()
    vals = u.values(z.reshape(-1, 1)).reshape(z.shape)
    out = np.where(domain.mask, vals, np.nan)
    return out


def subharmonic_minorant(u_grid: np.ndarray, domain: GridDomain,
                         tol: float = 1e-10, max_iters: int = 10 ** 6) -> np.ndarray:
    """Largest grid function <= u with the five-point submean property.

    Projected SOR in red/black order: at each interior node of a colour the
    Gauss-Seidel step is gs = min(u, four-neighbor average), and the node
    takes min(u, v + omega * (average - v)) instead, with Young's
    omega = 2 / (1 + sin(pi / (n - 1))) for the n x n grid (gs where that
    value is NaN, at an infinite node or average).  The solve stops after
    the first sweep in which gs moves no node by tol, so tol bounds the
    last plain Gauss-Seidel step, not the distance to the discrete fixed
    point: on the 129-node annulus at tol 1e-10 the result lies 1.69e-9
    from it.  Boundary nodes hold u.  Raises NotConverged
    (with the last iterate attached) when max_iters is hit, and ValueError
    unless tol is finite and > 0 and max_iters >= 1.
    """
    if u_grid.shape != domain.mask.shape:
        raise ValueError("obstacle grid shape does not match the domain")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"relaxation tol must be finite and > 0, got {tol!r}")
    if max_iters < 1:
        raise ValueError(f"relaxation max_iters must be >= 1, got {max_iters!r}")
    n = domain.n
    omega = 2.0 / (1.0 + np.sin(np.pi / (n - 1)))
    iy, ix = np.nonzero(domain.interior())
    red = ((iy + ix) % 2 == 0)
    # Per colour: flat node indices k = iy*n + ix, the flat indices of the
    # up/down/left/right neighbours, and the obstacle values at the nodes.
    groups = []
    for sel in (red, ~red):
        k = iy[sel] * n + ix[sel]
        groups.append((k, k - n, k + n, k - 1, k + 1, u_grid[iy[sel], ix[sel]]))
    v = np.array(u_grid, dtype=float, order="C")
    v[~domain.mask] = np.nan
    vf = v.reshape(-1)  # a view: writes through vf update v
    for it in range(1, max_iters + 1):
        delta = 0.0
        for k, up, dn, lf, rt, uk in groups:
            vk = vf[k]
            avg = 0.25 * (vf[up] + vf[dn] + vf[lf] + vf[rt])
            gs = np.minimum(uk, avg)
            # An infinite node or average gives inf - inf = NaN, the only
            # invalid arithmetic possible here: fmax skips it as a zero
            # step, and the node takes the Gauss-Seidel value instead.
            with np.errstate(invalid="ignore"):
                change = np.abs(gs - vk)
                new = np.minimum(uk, vk + omega * (avg - vk))
            delta = max(delta, float(np.fmax.reduce(change, initial=0.0)))
            vf[k] = np.where(np.isnan(new), gs, new)
        if delta < tol:
            return v
    raise NotConverged(
        f"obstacle relaxation did not reach tol={tol} in {max_iters} sweeps",
        iterate=v,
    )


def interp_bilinear(domain: GridDomain, grid: np.ndarray, z) -> float:
    """Bilinear interpolation of a grid function at a complex point of the
    grid's closed rectangle; ValueError off it or next to an inactive node."""
    z = complex(z)
    fx = (z.real - domain.x[0]) / domain.h
    fy = (z.imag - domain.y[0]) / domain.h
    n = domain.n
    if not (0 <= fx <= n - 1 and 0 <= fy <= n - 1):
        raise ValueError(f"point {z} outside the oracle grid")
    jx, jy = min(int(fx), n - 2), min(int(fy), n - 2)
    if np.isnan(grid[jy : jy + 2, jx : jx + 2]).any():
        raise ValueError(f"point {z} touches inactive oracle nodes")
    return float(_bilinear(grid, np.array([fx]), np.array([fy]))[0])


def _bilinear(grid: np.ndarray, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Bilinear values of grid at fractional node coordinates (fx, fy).

    grid[i, j] is the node (j, i), and callers keep 0 <= fx <= columns - 1
    and 0 <= fy <= rows - 1.  A point takes the cell whose low corner is
    (floor(fx), floor(fy)), or the last cell on the last column or row.  A
    node of weight 0 (the point is on a grid line) is left out, so that
    -inf there does not turn into 0 * -inf = NaN.
    """
    rows, cols = grid.shape
    jx = np.minimum(np.floor(fx), cols - 2).astype(np.intp)
    jy = np.minimum(np.floor(fy), rows - 2).astype(np.intp)
    ax, ay = fx - jx, fy - jy
    wx = np.stack([1 - ax, ax], axis=-1)
    wy = np.stack([1 - ay, ay], axis=-1)
    patch = grid[jy[:, None, None] + [[0], [1]], jx[:, None, None] + [0, 1]]
    unused = (wy == 0)[:, :, None] | (wx == 0)[:, None, :]
    p = np.where(unused & np.isinf(patch), 0.0, patch)
    return (wy[:, 0] * (wx[:, 0] * p[:, 0, 0] + wx[:, 1] * p[:, 0, 1])
            + wy[:, 1] * (wx[:, 0] * p[:, 1, 0] + wx[:, 1] * p[:, 1, 1]))


@dataclass(frozen=True)
class RadialEnvelope:
    """Piecewise-linear convex nondecreasing function given by knots."""

    knots_t: np.ndarray
    knots_y: np.ndarray

    def value(self, t):
        """Evaluate at arbitrary t: flat left extension, last-slope right."""
        t = np.asarray(t, dtype=float)
        kt, ky = self.knots_t, self.knots_y
        out = np.interp(t, kt, ky)
        if kt.size >= 2:
            slope = (ky[-1] - ky[-2]) / (kt[-1] - kt[-2])
            right = t > kt[-1]
            out = np.where(right, ky[-1] + slope * (t - kt[-1]), out)
        return out if out.ndim else float(out)


def radial_envelope(t_samples, y_samples) -> RadialEnvelope:
    """Largest convex nondecreasing minorant of samples in t = log r.

    Lower convex hull of the sample points, then any decreasing initial
    stretch is flattened to the hull minimum (the largest nondecreasing
    minorant of a convex function is its running forward minimum).
    """
    t = np.asarray(t_samples, dtype=float)
    y = np.asarray(y_samples, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or t.size < 2:
        raise ValueError("need matching 1-d sample arrays with >= 2 points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("samples must be sorted with strictly increasing t")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("samples must be finite")

    hull = []
    for p in zip(t, y):
        while len(hull) >= 2:
            (t0, y0), (t1, y1) = hull[-2], hull[-1]
            if (t1 - t0) * (p[1] - y0) - (p[0] - t0) * (y1 - y0) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    ht = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])

    imin = int(np.argmin(hy))
    if imin > 0:
        ht = np.concatenate(([ht[0]], ht[imin:]))
        hy = np.concatenate(([hy[imin]], hy[imin:]))
    return RadialEnvelope(ht, hy)
