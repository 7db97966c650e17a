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

from .disc import AnalyticDisc, disc_from_json, disc_to_json
from .envelope import SearchBudget, envelope_at
from .errors import SchemaMismatch
from .functional import (
    DistanceIndicator,
    Neg,
    QuadratureSpec,
    ScalarField,
    boundary_means,
    eval_field,
    parse_field,
)
from .space import DomainConstraint, SpaceModel

TWO_PI = 2.0 * np.pi


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
            if r < 0:
                raise ValueError("ball radius must be >= 0")
            c.flags.writeable = False
            balls.append((c, r))
        boxes = []
        for lo, hi in self.boxes:
            lo = np.atleast_1d(np.array(lo, dtype=complex))
            hi = np.atleast_1d(np.array(hi, dtype=complex))
            if lo.shape != hi.shape:
                raise ValueError("box corners must have matching length")
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
        """Euclidean distance to the set; exactly 0.0 on it."""
        pts = np.asarray(pts, dtype=complex)
        best = np.full(pts.shape[:-1], np.inf)
        for c, r in self.balls:
            d = np.sqrt(np.sum(np.abs(pts - c) ** 2, axis=-1))
            best = np.minimum(best, np.maximum(0.0, d - r))
        for lo, hi in self.boxes:
            dre = np.maximum(np.maximum(lo.real - pts.real, pts.real - hi.real), 0.0)
            dim = np.maximum(np.maximum(lo.imag - pts.imag, pts.imag - hi.imag), 0.0)
            best = np.minimum(best, np.sqrt(np.sum(dre**2 + dim**2, axis=-1)))
        return best

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


def membership_field(K: CompactSet, U_radius: float) -> ScalarField:
    """-1 on the open neighborhood {dist(.,K) < U_radius}, 0 elsewhere."""
    return ScalarField(Neg(DistanceIndicator(K.distance, float(U_radius))))


def exceptional_nodes(K: CompactSet, nodes, U_radius: float):
    """The boundary nodes of a disc that U = {dist(., K) < U_radius} misses.

    nodes holds the disc's values at its M equispaced boundary nodes, shape
    (M, N).  Returns (mask, measure): which nodes lie at distance >=
    U_radius from K, and the exceptional measure 2*pi * (their number) / M
    that a certificate records.
    """
    bad = K.distance(nodes) >= U_radius
    return bad, TWO_PI * int(np.count_nonzero(bad)) / len(nodes)


def default_window(K: CompactSet) -> DomainConstraint:
    """Polydisc around K's bounding ball with twice its radius."""
    center, radius = K.bounding_ball()
    return DomainConstraint(center, np.full(K.ambient_dim, 2.0 * max(radius, 1e-9)))


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
    if U_radius <= 0 or eps <= 0:
        raise ValueError("U_radius and eps must be positive")
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


def verify_certificate(
    cert: HullCertificate,
    K: CompactSet,
    rho_list,
    q: QuadratureSpec | None = None,
    tol: float = 1e-6,
    n_samples: int = 512,
) -> dict:
    """Re-check a certificate against a list of test fields.

    For each field rho the chain is: rho at the center <= boundary average
    of rho along the disc <= sup_V rho * |E|/(2 pi) + sup_U rho + tol, where
    the sups are taken over deterministic sample clouds of the window V and
    the neighborhood U (augmented by the disc's own boundary nodes, so the
    second inequality cannot fail through under-sampling).  A failing chain
    flags either a bad certificate or a test field that is not
    plurisubharmonic.
    """
    M = q.M if q is not None else cert.M
    nodes = cert.disc.boundary_values(M)
    bad, _ = exceptional_nodes(K, nodes, cert.U_radius)
    bad_frac = float(np.count_nonzero(bad)) / M

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7,))))
    w = cert.window
    v_cloud = w.center + w.radii * (
        (2 * rng.random((n_samples, w.center.size)) - 1)
        + 1j * (2 * rng.random((n_samples, w.center.size)) - 1)
    ) / np.sqrt(2.0)
    v_cloud = v_cloud[np.asarray(w.satisfied(v_cloud), bool)]
    u_cloud = K.sample(max(8, n_samples // 4), seed=11, pad=0.9 * cert.U_radius)
    u_cloud = u_cloud[K.distance(u_cloud) < cert.U_radius]

    entries = []
    for i, rho in enumerate(rho_list):
        rho_x = eval_field(rho, cert.x)
        vals = rho.values(nodes)
        disc_avg = float(boundary_means(vals[None])[0][0])
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
    return {
        "all_ok": all(e["ok"] for e in entries),
        "exceptional_fraction": bad_frac,
        "M": M,
        "fields": entries,
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
        "x": [[float(z.real), float(z.imag)] for z in cert.x],
        "disc": disc_to_json(cert.disc),
        "U_radius": cert.U_radius,
        "exceptional_measure": cert.exceptional_measure,
        "M": cert.M,
        "window": {
            "center": [[float(z.real), float(z.imag)] for z in cert.window.center],
            "radii": [float(r) for r in cert.window.radii],
        },
        "value": cert.value,
        "eps": cert.eps,
    }


def certificate_from_json(obj: dict) -> HullCertificate:
    if obj.get("schema") != "hull-certificate/1":
        raise SchemaMismatch(f"unknown certificate schema {obj.get('schema')!r}")
    try:
        x = np.array([complex(re, im) for re, im in obj["x"]])
        window = DomainConstraint(
            np.array([complex(re, im) for re, im in obj["window"]["center"]]),
            np.array([float(r) for r in obj["window"]["radii"]]),
        )
        return HullCertificate(
            x=x,
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
