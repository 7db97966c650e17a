"""Hull-membership certificates via analytic discs.

A point x belongs to the hull of a compact set K (with respect to the fields
the envelope machinery handles) when discs through x can keep all but an
arbitrarily small measure of their boundary inside any neighborhood U of K.
``hull_membership`` searches for such a disc by minimizing the boundary
average of -1_U and converts a success into a HullCertificate;
``verify_certificate`` re-checks a certificate against test fields through
the two-sided estimate that makes the criterion sound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .disc import AnalyticDisc, complex_from_json, complex_to_json
from .disc import disc_from_json, disc_to_json
from .envelope import SearchBudget, envelope_at
from .errors import SchemaMismatch
from .functional import (
    DistanceIndicator,
    Op,
    QuadratureSpec,
    ScalarField,
    _at_the_end,
    _edge_slack,
    boundary_means,
    eval_field,
    parse_field,
    poisson_functional,
)
from .space import DomainConstraint, SpaceModel, polydisc

TWO_PI = 2.0 * np.pi

# The range in which CompactSet.within decides from its product:
# ||x||^2, ||y_b||^2 and (r_b + U)^2 at most _SCREEN_MAX, so nothing in
# either computation overflows, and U at least _SCREEN_MIN_RADIUS, so
# (r_b + U)^2 >= 2^-960 and underflow adds less than u * 2^-60 times it.
# Outside that range within() is distance() < U outright.
_SCREEN_MAX = 2.0**1000
_SCREEN_MIN_RADIUS = 2.0**-480
# The most values CompactSet.distance's (points, balls, N) temporary holds.
_DISTANCE_CHUNK = 2**15


def _screen_slack(N: int) -> float:
    """Relative slack of CompactSet.within's screen in C^N: 2 (6N + 27) u.

    Notation: u = 2^-53, gamma_k = k u / (1 - k u); x, y_b in R^{2N} are
    the real vectors of a point p and of a ball's centre c_b; T_b =
    ||x - y_b||^2 and t_b = (r_b + U)^2 exactly, U > 0; all inside the
    range above.

    The exact rule.  distance(p) < U holds iff some ball has
    e_b = fl(fl(sqrt(S_b)) - r_b) < U (max(0, e) < U iff e < U, since
    U > 0; boxes are tested apart), where S_b sums fl(h_j^2) over the N
    coordinates and h_j = hypot(fl(Re p_j - Re c_j), fl(Im p_j - Im c_j))
    is within one ulp (2u relative).  Each term carries 7 relative errors
    of u (two from the differences, two from hypot, all squared, and the
    square's rounding), the sum N - 1 more and underflow one, so
    S_b = T_b (1 + theta) with |theta| <= gamma_{N+7}.  With k = N + 7:
      - e_b < U gives either d = fl(sqrt(S_b)) = sqrt(S_b)(1 + eps) <= r_b,
        or d < r_b + U / (1 - u) <= (r_b + U) / (1 - u); either way
        T_b = d^2 / ((1 + theta)(1 + eps)^2) < t_b / ((1 - u)^4 (1 - gamma_k))
            <= t_b (1 + kappa u);
      - e_b >= U gives d >= r_b + U / (1 + u) >= (r_b + U) / (1 + u), so
        T_b >= t_b / ((1 + u)^4 (1 + gamma_k)) >= t_b (1 - kappa u);
    with kappa = 2(k + 4) = 2N + 22, valid while (N + 11) u <= 1/10.  So
    the rule says "inside" for ball b whenever T_b - t_b < -kappa u t_b,
    and "outside" whenever T_b - t_b >= kappa u t_b.

    The screen.  With w_b = fl(fl(||y_b||^2) - fl(fl(r_b + U)^2)), it
    computes s_b = fl(<(2 y_b, w_b), (x, -1)>), a dot of length 2N + 1 in
    any order, and q = fl(||x||^2).  Then q - s_b approximates
    D_b = T_b - t_b = ||x||^2 - 2 <y_b, x> + ||y_b||^2 - t_b (the product
    form of the squared distance) with
      |(q - s_b) - D_b| <= gamma_{2N} ||x||^2 + gamma_{2N+1} (||x||^2
                           + ||y_b||^2 + |w_b|) + |w_b - ||y_b||^2 + t_b|,
    which is (4N + 1) u ||x||^2 + (6N + 3) u ||y_b||^2 + (2N + 5) u t_b
    to first order.  The decisions are fl(q + delta) < max_b s_b
    ("inside": the maximizing ball has D_b < -kappa u t_b) and
    fl(q - delta) >= max_b s_b ("outside": every ball has
    D_b >= kappa u t_b).  Each is sound when delta covers the error
    above, the comparison's own rounding u q and kappa u t_b, which is
    (4N + 2) u ||x||^2 + (6N + 3) u ||y_b||^2 + (4N + 27) u t_b to first
    order, at most (6N + 27) u (||x||^2 + max ||y_b||^2 + max t_b).
    delta is twice that: while (6N + 27) u <= 1/100, the factor 2 covers
    the second-order terms, the rounding of delta itself, and underflow's
    absolute errors, below (4N + 4) 2^-1075 << u * 2^-960 <= u t_b.
    """
    return 2.0 * (6 * N + 27) * 2.0**-53


@dataclass(frozen=True)
class CompactSet:
    """Finite union of closed balls and boxes in C^N.

    Balls are (center, radius) with the euclidean norm on C^N ~ R^{2N}; a box
    is (lo, hi) meaning the product of rectangles [Re lo_j, Re hi_j] x
    [Im lo_j, Im hi_j].  Membership and distance are exact in the descriptor.
    """

    balls: tuple = ()
    boxes: tuple = ()

    def __post_init__(self):
        balls = []
        for center, radius in self.balls:
            c = np.atleast_1d(np.array(center, dtype=complex))
            r = float(radius)
            if not 0 <= r < np.inf:
                raise ValueError("ball radius must be finite and >= 0")
            if not np.all(np.isfinite(c)):
                raise ValueError("ball center must be finite")
            c.flags.writeable = False
            balls.append((c, r))
        boxes = []
        for lo, hi in self.boxes:
            lo = np.atleast_1d(np.array(lo, dtype=complex))
            hi = np.atleast_1d(np.array(hi, dtype=complex))
            if lo.shape != hi.shape:
                raise ValueError("box corners must have matching length")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError("box corners must be finite")
            if np.any(hi.real < lo.real) or np.any(hi.imag < lo.imag):
                raise ValueError("box needs lo <= hi in both re and im")
            lo.flags.writeable = False
            hi.flags.writeable = False
            boxes.append((lo, hi))
        if not balls and not boxes:
            raise ValueError("compact set needs at least one ball or box")
        dims = {c.size for c, _ in balls} | {lo.size for lo, _ in boxes}
        if len(dims) != 1:
            raise ValueError("all parts must share one ambient dimension")
        object.__setattr__(self, "balls", tuple(balls))
        object.__setattr__(self, "boxes", tuple(boxes))
        # The screen of within() takes each ball's real centre vector
        # y_b = (Re c_b, Im c_b), doubled (exactly), and ||y_b||^2.
        (dim,) = dims
        cs = np.array([c for c, _ in balls], dtype=complex).reshape(-1, dim)
        y = np.concatenate([cs.real, cs.imag], axis=1)
        with np.errstate(over="ignore"):
            object.__setattr__(self, "_y2", 2.0 * y)
            object.__setattr__(self, "_yy", np.einsum("ij,ij->i", y, y))
        object.__setattr__(self, "_centers", cs)
        object.__setattr__(self, "_radii", np.array([r for _, r in balls]))

    @classmethod
    def from_points(cls, points, blow_radius: float = 0.0) -> "CompactSet":
        """Point cloud fattened by a common radius."""
        return cls(balls=tuple((p, blow_radius) for p in points))

    @property
    def ambient_dim(self) -> int:
        if self.balls:
            return self.balls[0][0].size
        return self.boxes[0][0].size

    def distance(self, pts) -> np.ndarray:
        """Euclidean distance to the set; exactly 0.0 on it.

        The exact reference: ``contains``, ``within``'s fallback and the
        sample clouds of ``verify_certificate`` use it.  The hull fields ask
        only whether the distance is below a radius, and ``within`` answers
        that faster.

        Each ball b gives sqrt(sum_j |p_j - c_bj|^2) - r_b, floored at 0,
        and the least over the balls from +inf; all balls at once, over
        chunks of points that keep the (points, balls, N) temporary within
        _DISTANCE_CHUNK values.
        """
        pts = np.asarray(pts, dtype=complex)
        flat = pts.reshape(-1, pts.shape[-1])
        best = np.full(len(flat), np.inf)
        step = max(1, _DISTANCE_CHUNK // max(1, self._centers.size))
        for i in range(0, len(flat), step):
            d = np.add.reduce(np.abs(flat[i:i + step, None] - self._centers) ** 2,
                              axis=-1)
            np.minimum.reduce(np.maximum(0.0, np.sqrt(d) - self._radii), axis=-1,
                              initial=np.inf, out=best[i:i + step])
        return self._box_distance(flat, best).reshape(pts.shape[:-1])

    def _box_distance(self, pts, best):
        """best lowered, elementwise, to the distance to each box."""
        for lo, hi in self.boxes:
            dre = np.maximum(np.maximum(lo.real - pts.real, pts.real - hi.real), 0.0)
            dim = np.maximum(np.maximum(lo.imag - pts.imag, pts.imag - hi.imag), 0.0)
            best = np.minimum(best, np.sqrt(np.sum(dre**2 + dim**2, axis=-1)))
        return best

    def within(self, pts, radius) -> np.ndarray:
        """Exactly ``distance(pts) < radius``, element for element.

        pts has shape (..., N) in any memory layout; the result is a bool
        array of shape pts.shape[:-1].  One real product scores every point
        against every ball at once (see _screen_slack); the points that
        product cannot decide under its rounding bound, and non-finite
        points, get ``distance``.  Boxes are tested exactly, as in
        ``distance``.
        """
        pts = np.asarray(pts, dtype=complex)
        radius = float(radius)
        if not (self.balls and radius >= _SCREEN_MIN_RADIUS):
            return self.distance(pts) < radius
        t = (self._radii + radius) ** 2
        reach = self._yy.max() + t.max()
        if not reach <= _SCREEN_MAX:
            return self.distance(pts) < radius
        N = self.ambient_dim
        flat = pts.reshape(-1, N)
        n = len(flat)
        # X = (Re p; Im p; -1), shape (2N + 1, n), against Y's rows
        # (2 y_b, ||y_b||^2 - t_b): the constant enters each score through
        # the same dot.
        X = np.empty((2 * N + 1, n))
        X[:N] = flat.real.T
        X[N:-1] = flat.imag.T
        X[-1] = -1.0
        Y = np.concatenate([self._y2, (self._yy - t)[:, None]], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            # s = max_b 2<y_b, x> - ||y_b||^2 + t_b, so that
            # q - s = min_b (|x - y_b|^2 - t_b).  With the balls on axis 0
            # the reduce takes whole rows at a time; in the (n, B) layout,
            # reduced along its last axis, it cost more than the old loop.
            s = np.maximum.reduce(Y @ X, axis=0)
            q = np.einsum("ij,ij->j", X[:-1], X[:-1])
            slack = _screen_slack(N) * (q + reach)
            fine = q <= _SCREEN_MAX  # False at NaN and inf
            inside = fine & (q + slack < s)
            unsure = ~(inside | (fine & (q - slack >= s)))
        out = inside
        if unsure.any():
            idx = np.flatnonzero(unsure)
            out[idx] = self.distance(flat[idx]) < radius
        if self.boxes:
            out |= self._box_distance(flat, np.full(n, np.inf)) < radius
        return out.reshape(pts.shape[:-1])

    def clearance(self, pts, radius, way: int = 0) -> np.ndarray:
        """How far each point may move before ``within(pts, radius)`` can
        change: _edge_slack of g = ``distance(p)`` against U = radius, with
        extra = R, the largest ball radius (0 without balls).  For way -1,
        how far before it can turn from True to False, and for +1 from
        False to True: +inf where it is False, or True, already.  ``within``
        answers exactly g < radius, the test that decides this.

        pts has shape (..., N); the result has shape pts.shape[:-1].
        Notation: u = 2^-53, G = dist(p, K) exactly, which is 1-Lipschitz,
        and eps = (N + 12) u as in _edge_slack, whose conditions this
        derives.  For ball b, with rho_b = |p - c_b|, ``distance`` computes
        d_b = fl(sqrt(S_b)), where S_b sums the N squared moduli:
        S_b = rho_b^2 (1 + theta), |theta| <= gamma_{N+7} (as in
        _screen_slack), so d_b = rho_b (1 + eta) with |eta| <= (N + 9) u / 2,
        and e_b = fl(d_b - r_b) = (d_b - r_b)(1 + u').  Its part distance
        max(0, e_b) is within |eta| r_b + (|eta| + u) |rho_b - r_b|
        <= eps (G_b + R) of the exact max(0, rho_b - r_b) = G_b
        (|rho_b - r_b| <= G_b + r_b; max(0, .) moves nothing further).  A
        box's distance carries only relative errors, below (N + 3) u.  So
        g, the least part distance, lies within eps (G + R) of G: the
        least exact part gives the upper side, and every computed part is
        at least G (1 - eps) - eps R.  With U >= 2^-480, underflow's
        absolute errors, below sqrt(N + 1) 2^-536, stay far below eps U.
        With G <= 2^502 and R <= 2^500 the least exact part's differences
        stay below 2^503 and do not overflow; a farther part may overflow,
        but only to inf, which keeps the lower side.  ``within`` answers
        exactly ``distance(pts) < radius``, so it says "inside" where
        G (1 + eps) + eps R < U and "outside" where
        G (1 - eps) - eps R >= U, as _edge_slack asks.  At a point with a
        non-finite coordinate g is inf or NaN, so the clearance is 0.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.distance(pts)
        R = self._radii.max() if self.balls else 0.0
        s = _edge_slack(g, float(radius), self.ambient_dim, R)
        return _at_the_end(s, g < float(radius), way)

    def contains(self, p) -> bool:
        return float(self.distance(np.atleast_1d(np.asarray(p, complex)))) == 0.0

    def bounding_ball(self):
        """(center, radius) of a ball covering the set (not the smallest)."""
        centers, spreads = [], []
        for c, r in self.balls:
            centers.append(c)
            spreads.append(r)
        for lo, hi in self.boxes:
            centers.append((lo + hi) / 2.0)
            spreads.append(float(np.sqrt(np.sum(np.abs(hi - lo) ** 2))) / 2.0)
        center = np.mean(centers, axis=0)
        radius = max(
            float(np.sqrt(np.sum(np.abs(c - center) ** 2))) + s
            for c, s in zip(centers, spreads)
        )
        return center, radius

    def sample(self, n_per_part: int, seed: int = 0, pad: float = 0.0) -> np.ndarray:
        """Deterministic sample cloud of the set fattened by pad."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,))))
        N = self.ambient_dim
        out = []
        for c, r in self.balls:
            dirs = rng.standard_normal((n_per_part, N, 2))
            dirs = dirs[..., 0] + 1j * dirs[..., 1]
            norms = np.sqrt(np.sum(np.abs(dirs) ** 2, axis=-1, keepdims=True))
            radii = (r + pad) * rng.random(n_per_part) ** (1.0 / (2 * N))
            out.append(c + dirs / norms * radii[:, None])
            out.append(c[None, :])
        for lo, hi in self.boxes:
            re = lo.real - pad + (hi.real - lo.real + 2 * pad) * rng.random((n_per_part, N))
            im = lo.imag - pad + (hi.imag - lo.imag + 2 * pad) * rng.random((n_per_part, N))
            out.append(re + 1j * im)
            out.append(((lo + hi) / 2.0)[None, :])
        return np.concatenate(out, axis=0)


@dataclass(frozen=True)
class HullCertificate:
    """Witness that x is (numerically) in the hull of K.

    exceptional_measure is 2*pi times the fraction of boundary nodes whose
    distance to K is >= U_radius; value is the boundary average of -1_U along
    the disc, recomputable from the stored data.
    """

    x: np.ndarray
    disc: AnalyticDisc
    U_radius: float
    exceptional_measure: float
    M: int
    window: DomainConstraint
    value: float
    eps: float


@dataclass(frozen=True)
class NotFound:
    """Search failure: no disc reached the certificate threshold.

    Not a disproof of membership; best_value records how close the search
    got (the threshold is -1 + eps/(2*pi)).
    """

    x: np.ndarray
    best_value: float
    threshold: float
    witness: AnalyticDisc
    diagnostics: dict


def _check_U(U_radius) -> float:
    """U_radius as a float; the neighborhood U needs a finite radius > 0."""
    U = float(U_radius)
    if not 0 < U < np.inf:
        raise ValueError(f"U_radius must be finite and > 0, got {U_radius!r}")
    return U


def membership_field(K: CompactSet, U_radius: float) -> ScalarField:
    """-1 on the open neighborhood {dist(.,K) < U_radius}, 0 elsewhere.

    The field asks ``K.within`` for each batch of points, and
    ``K.clearance`` for the slack the descent screens its trials with.
    Raises ValueError unless U_radius is finite and > 0.
    """
    return ScalarField(Op("neg", (DistanceIndicator(K, _check_U(U_radius)),)))


def exceptional_nodes(K: CompactSet, nodes, U_radius: float):
    """The boundary nodes of a disc that U = {dist(., K) < U_radius} misses.

    nodes holds the disc's values at its M equispaced boundary nodes, shape
    (M, N).  Returns (mask, measure): which nodes lie at distance >=
    U_radius from K, and the exceptional measure 2*pi * (their number) / M
    that a certificate records.  Raises ValueError unless U_radius is
    finite and > 0 and there is at least one node.
    """
    U = _check_U(U_radius)
    nodes = np.asarray(nodes, dtype=complex)
    if len(nodes) == 0:
        raise ValueError("exceptional_nodes needs at least one boundary node")
    bad = ~K.within(nodes, U)
    # At a non-finite node the distance can be NaN, which is neither < U
    # nor >= U; such a node keeps the answer of distance >= U.
    odd = ~np.isfinite(nodes).all(axis=-1)
    if odd.any():
        bad[odd] = K.distance(nodes[odd]) >= U
    return bad, TWO_PI * int(np.count_nonzero(bad)) / len(nodes)


def default_window(K: CompactSet) -> DomainConstraint:
    """Polydisc around K's bounding ball with twice its radius."""
    center, radius = K.bounding_ball()
    return polydisc(K.ambient_dim, 2.0 * max(radius, 1e-9), center)


def _window_holds(K: CompactSet, window: DomainConstraint) -> bool:
    for c, r in K.balls:
        if np.any(np.abs(c - window.center) + r > window.radii + 1e-12):
            return False
    for lo, hi in K.boxes:
        corners = np.stack(
            [
                lo.real + 1j * lo.imag,
                hi.real + 1j * lo.imag,
                lo.real + 1j * hi.imag,
                hi.real + 1j * hi.imag,
            ]
        )
        if not np.all(window.satisfied(corners, slack=1e-12)):
            return False
    return True


def hull_membership(
    K: CompactSet,
    x,
    U_radius: float,
    eps: float,
    window: DomainConstraint | None = None,
    budget: SearchBudget | None = None,
    q: QuadratureSpec | None = None,
):
    """Search for a certificate disc; HullCertificate or NotFound.

    Minimizes the boundary average of -1_U over discs centered at x inside
    the window; a value below -1 + eps/(2*pi) means at most an eps-measure
    of the boundary leaves U, which is the certificate condition.
    """
    _check_U(U_radius)
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    if x.size != K.ambient_dim:
        raise ValueError("point dimension does not match the compact set")
    if window is None:
        window = default_window(K)
    if not _window_holds(K, window):
        raise ValueError("the window must contain the compact set")
    qq = q if q is not None else QuadratureSpec()
    space = SpaceModel("euclidean", K.ambient_dim, (), window)
    u = membership_field(K, U_radius)
    value, witness, diag = envelope_at(u, space, x, budget, qq)
    _, exceptional = exceptional_nodes(K, witness.boundary_values(qq.M), U_radius)
    threshold = -1.0 + eps / TWO_PI
    if value < threshold:
        return HullCertificate(
            x=x,
            disc=witness,
            U_radius=float(U_radius),
            exceptional_measure=exceptional,
            M=qq.M,
            window=window,
            value=value,
            eps=float(eps),
        )
    return NotFound(
        x=x, best_value=value, threshold=threshold, witness=witness, diagnostics=diag
    )


# Size of the sample cloud of the window V in verify_certificate; the cloud
# of the neighborhood U has a quarter as many points.
_VERIFY_SAMPLES = 512


def verify_certificate(
    cert: HullCertificate,
    K: CompactSet,
    rho_list,
    q: QuadratureSpec | None = None,
    tol: float = 1e-6,
) -> dict:
    """Re-check a certificate against a list of test fields.

    For each field rho the chain is: rho at the center <= boundary average
    of rho along the disc <= sup_V rho * |E|/(2 pi) + sup_U rho + tol, where
    the sups are taken over deterministic sample clouds of the window V and
    the neighborhood U (augmented by the disc's own boundary nodes, so the
    second inequality cannot fail through under-sampling).  A failing chain
    flags either a bad certificate or a test field that is not
    plurisubharmonic.

    The certificate's value and exceptional measure are recomputed at cert.M
    too; ``all_ok`` also needs both to equal the stored numbers bit for bit.
    """
    value = poisson_functional(
        membership_field(K, cert.U_radius), cert.disc, QuadratureSpec(M=cert.M)
    )
    _, exceptional = exceptional_nodes(
        K, cert.disc.boundary_values(cert.M), cert.U_radius
    )
    M = q.M if q is not None else cert.M
    nodes = cert.disc.boundary_values(M)
    bad, _ = exceptional_nodes(K, nodes, cert.U_radius)
    bad_frac = float(np.count_nonzero(bad)) / M

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7,))))
    w = cert.window
    v_cloud = w.center + w.radii * (
        (2 * rng.random((_VERIFY_SAMPLES, w.center.size)) - 1)
        + 1j * (2 * rng.random((_VERIFY_SAMPLES, w.center.size)) - 1)
    ) / np.sqrt(2.0)
    v_cloud = v_cloud[np.asarray(w.satisfied(v_cloud), bool)]
    u_cloud = K.sample(_VERIFY_SAMPLES // 4, seed=11, pad=0.9 * cert.U_radius)
    u_cloud = u_cloud[K.distance(u_cloud) < cert.U_radius]

    entries = []
    for i, rho in enumerate(rho_list):
        rho_x = eval_field(rho, cert.x)
        vals = rho.values(nodes)
        disc_avg = float(boundary_means(vals[None])[0])
        sup_v = float(np.max(rho.values(v_cloud))) if len(v_cloud) else -np.inf
        sup_v = max(sup_v, float(np.max(vals)))
        sup_u = float(np.max(rho.values(u_cloud))) if len(u_cloud) else -np.inf
        if np.any(~bad):
            sup_u = max(sup_u, float(np.max(vals[~bad])))
        bound = sup_v * bad_frac + sup_u + tol
        ok = (rho_x <= disc_avg + tol) and (disc_avg <= bound)
        entries.append(
            {
                "index": i,
                "value_at_center": rho_x,
                "disc_average": disc_avg,
                "sup_window": sup_v,
                "sup_neighborhood": sup_u,
                "bound": bound,
                "ok": bool(ok),
            }
        )
    value_match = value == cert.value
    exceptional_match = exceptional == cert.exceptional_measure
    return {
        "all_ok": value_match and exceptional_match and all(e["ok"] for e in entries),
        "exceptional_fraction": bad_frac,
        "M": M,
        "fields": entries,
        "value_match": value_match,
        "stored_value": cert.value,
        "recomputed_value": value,
        "exceptional_match": exceptional_match,
    }


def bundled_psh_corpus(dim: int) -> list:
    """Stock test fields for verify_certificate: pluriharmonic parts of
    polynomials, log-moduli of affine maps, squared moduli, and maxima of
    those (all plurisubharmonic by construction)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    texts = [
        "0",
        "re(z1)",
        "im(z1)",
        "re(z1 * z1)",
        "abs2(z1)",
        "log(abs(z1))",
        "log(abs(z1 - 2))",
        "log(abs(z1 + 2))",
        "max(log(abs(z1 - 2)), log(abs(z1 + 2)))",
        "max(re(z1), abs2(z1) - 1)",
    ]
    if dim >= 2:
        texts += [
            "re(z2)",
            "re(z1 * z2)",
            "abs2(z2)",
            "log(abs(z2 - 0.5))",
            "max(re(z1), im(z2))",
        ]
    return [parse_field(t) for t in texts]


# ---------------------------------------------------------------------------
# Serialization: certificates round-trip through JSON for the verify command.


def certificate_to_json(cert: HullCertificate) -> dict:
    return {
        "schema": "hull-certificate/1",
        "x": complex_to_json(cert.x),
        "disc": disc_to_json(cert.disc),
        "U_radius": cert.U_radius,
        "exceptional_measure": cert.exceptional_measure,
        "M": cert.M,
        "window": {
            "center": complex_to_json(cert.window.center),
            "radii": [float(r) for r in cert.window.radii],
        },
        "value": cert.value,
        "eps": cert.eps,
    }


def certificate_from_json(obj: dict) -> HullCertificate:
    if obj.get("schema") != "hull-certificate/1":
        raise SchemaMismatch(f"unknown certificate schema {obj.get('schema')!r}")
    try:
        window = DomainConstraint(
            complex_from_json(obj["window"]["center"]),
            np.array([float(r) for r in obj["window"]["radii"]]),
        )
        return HullCertificate(
            x=complex_from_json(obj["x"]),
            disc=disc_from_json(obj["disc"]),
            U_radius=float(obj["U_radius"]),
            exceptional_measure=float(obj["exceptional_measure"]),
            M=int(obj["M"]),
            window=window,
            value=float(obj["value"]),
            eps=float(obj["eps"]),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"malformed certificate: {exc}") from exc


def save_certificate(cert: HullCertificate, path) -> None:
    with open(path, "w") as fh:
        json.dump(certificate_to_json(cert), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_certificate(path) -> HullCertificate:
    with open(path) as fh:
        return certificate_from_json(json.load(fh))
