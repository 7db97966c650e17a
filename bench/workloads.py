"""The benchmark's workloads: seeded inputs, one timed pass, result checks.

Each workload builds its inputs from the workload seed in ``__init__`` (this
is the set-up that ``setup_s`` times), lists the steps of one pass in
``steps``, each a call (or a short chain of calls) into pshenv that ``run``
makes in order and the loop in ``run.py`` times and repeats, and checks what
the pass produced in ``check``, outside any timed or traced interval.  Every check is one operation: it passes only if all of its
conditions hold, and ``failed``/``attempted`` count them.

The seed sets the seed of the search budgets and moves the query points,
except for the hull refusals (see HullCert).  Where the problem is symmetric
under rotation (the obstacle and Liouville balls, the hull circle) the points
are rotated by a seeded angle, which changes every number the program sees
but not the exact answer or the difficulty; the psh fixed points, which have
no such symmetry, are jittered around two anchors.  The work of a pass
(objective evaluations) then stays within 0.2% from seed to seed, so the
spread the benchmark reports is mostly the machine's, not the input
generator's.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

import pshenv
from pshenv import cli, hull

# Feasibility slack the search itself uses for windows (envelope._FEAS_SLACK).
WINDOW_SLACK = 1e-12

PSH_FIELDS = (
    "re(z1)",
    "abs2(z1) + abs2(z2)",
    "max(re(z1), re(z2))",
    "log(0.001 + abs2(z1))",
)
OBSTACLE = "-indicator(ball(0, 0; 0.25))"
REFUSAL_SEED = 3
UNIT_BALL = "-indicator(ball(0, 0; 1))"


def _fmt_complex(z: complex) -> str:
    """Config text that parses back to exactly z."""
    return "%.17g%+.17gj" % (z.real, z.imag)


def witness_problems(u, q, x, value, witness, window=None):
    """Reasons a search result is not backed by its witness disc.

    The value must recompute bit for bit through poisson_functional, the
    disc must be centred exactly at x, and in a windowed space all M
    boundary nodes must lie inside the window.  Returns a list of reasons,
    empty when the result holds.
    """
    out = []
    again = pshenv.poisson_functional(u, witness, q)
    if again != value:
        out.append(f"value {value!r} recomputes to {again!r}")
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    if not np.array_equal(witness.center(), x):
        out.append(f"centre {witness.center()} is not x = {x}")
    if window is not None:
        nodes = witness.boundary_values(q.M)
        if not np.all(window.satisfied(nodes, slack=WINDOW_SLACK)):
            out.append("boundary nodes leave the window")
    return out


class Outcome:
    """What one pass produced: values, witnesses and written bytes."""

    def __init__(self):
        self.values = []
        self.witnesses = []
        self.blobs = []
        self.extra = {}

    def digest(self) -> str:
        """sha256 over the values, witness coefficients and file bytes."""
        h = hashlib.sha256()
        h.update(np.asarray(self.values, dtype=np.float64).tobytes())
        for w in self.witnesses:
            c = np.ascontiguousarray(w.coeffs, dtype=np.complex128)
            h.update(np.asarray(c.shape, dtype=np.int64).tobytes())
            h.update(c.tobytes())
        for b in self.blobs:
            h.update(b)
        return h.hexdigest()


class Workload:
    """Base class.

    Subclasses set name, take (seed, workdir, tiny=False), where tiny shrinks
    every size for the harness self-tests, and implement steps and check.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.rng = np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def jitter(self, anchor, half_width):
        """anchor plus a uniform offset in [-half_width, half_width]."""
        anchor = np.asarray(anchor, dtype=float)
        return anchor + self.rng.uniform(-half_width, half_width, anchor.shape)

    def turn(self):
        """A seeded unit complex number, for rotating symmetric inputs."""
        return complex(np.exp(2j * np.pi * self.rng.random()))

    def prepare(self):
        """Untimed work before each pass (clearing output directories)."""

    def collect(self, out: Outcome):
        """Untimed work after each pass (reading written files)."""

    def steps(self, out: Outcome) -> list:
        """(label, step) pairs of one pass, in call order.

        Each step is one call (or a short chain of calls) into pshenv and
        stores what it produced in out.
        """
        raise NotImplementedError

    def run(self, timer=None) -> Outcome:
        """One pass; timer(label, step), when given, makes each step's call."""
        out = Outcome()
        for label, step in self.steps(out):
            if timer is None:
                step()
            else:
                timer(label, step)
        return out

    def check(self, out: Outcome) -> list:
        """List of (operation, ok, detail)."""
        raise NotImplementedError


class PshGrid(Workload):
    name = "psh_grid"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed)
        self.space = pshenv.euclidean_space(2)
        self.q = pshenv.QuadratureSpec(M=128 if tiny else 512)
        self.budget = pshenv.SearchBudget(
            degree_schedule=(2,) if tiny else (8,),
            restarts=1 if tiny else 8,
            descent_iters=2 if tiny else 6,
            seed=self.seed,
        )
        # Two anchors from the acceptance lattice linspace(-0.8, 0.8, 10).
        anchors = [(-0.4444, 0.6222), (0.6222, -0.2667)]
        self.fields = []
        for text in PSH_FIELDS:
            pts = [self.jitter(a, 0.02) for a in anchors]
            self.fields.append(
                (text, pshenv.parse_field(text),
                 [np.asarray(p, dtype=complex) for p in pts])
            )
        (self.curve, self.curve_u, self.curve_grid, self.curve_budget,
         self.curve_q, self.curve_trials) = cli.counterexample_scenario()

    def steps(self, out):
        ests = out.extra["ests"] = []

        def field(u, pts):
            ests.append(pshenv.envelope_grid(u, self.space, pts, self.budget,
                                             self.q))

        def curve():
            out.extra["curve_est"] = pshenv.envelope_grid(
                self.curve_u, self.curve, self.curve_grid, self.curve_budget,
                self.curve_q)

        def submean():
            out.extra["reports"] = pshenv.check_submean(
                out.extra["curve_est"], self.curve, self.curve_trials,
                self.curve_q)

        return ([(f"envelope_grid {text}",
                  lambda u=u, pts=pts: field(u, pts))
                 for text, u, pts in self.fields]
                + [("envelope_grid curve", curve),
                   ("check_submean curve", submean)])

    def collect(self, out):
        for est in out.extra["ests"] + [out.extra["curve_est"]]:
            out.values += [float(v) for v in est.values]
            out.witnesses += list(est.witnesses)

    def check(self, out):
        ops = []
        for (text, u, _), est in zip(self.fields, out.extra["ests"]):
            for x, v, w in zip(est.points, est.values, est.witnesses):
                bad = witness_problems(u, self.q, x, v, w)
                gap = abs(v - pshenv.eval_field(u, x))
                if not gap < 1e-6:
                    bad.append(f"|value - u(x)| = {gap:.3e} >= 1e-6")
                ops.append((f"{text} at {x}", not bad, "; ".join(bad)))
        cest = out.extra["curve_est"]
        for x, v, w in zip(cest.points, cest.values, cest.witnesses):
            bad = witness_problems(self.curve_u, self.curve_q, x, v, w)
            ops.append((f"curve point {x}", not bad, "; ".join(bad)))
        n = len(out.extra["reports"])
        ops.append(("check_submean flags the curve grid", n >= 1,
                    f"{n} flag(s)"))
        return ops


class ObstacleCli(Workload):
    name = "obstacle_cli"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed)
        self.dir = os.path.join(workdir, "obstacle")
        os.makedirs(self.dir, exist_ok=True)
        self.u = pshenv.parse_field(OBSTACLE)
        self.M = 128
        self.q = pshenv.QuadratureSpec(M=self.M)
        self.window = pshenv.DomainConstraint(np.zeros(1, complex),
                                              np.ones(1))
        # One point inside the obstacle ball, then one outside it, in grid
        # order, so the warm sweep carries the first witness to the second.
        turn = self.turn()
        self.points = [0.15 * turn, 0.75 * turn]
        self.env_cfg = os.path.join(self.dir, "envelope.cfg")
        self.oracle_cfg = os.path.join(self.dir, "oracle.cfg")
        self.env_out = os.path.join(self.dir, "envelope_out")
        self.oracle_out = os.path.join(self.dir, "oracle_out")
        with open(self.env_cfg, "w") as fh:
            fh.write(
                "[run]\nmode = envelope\n\n"
                "[space]\nkind = euclidean\ndim = 1\nradius = 1.0\n\n"
                f"[field]\nexpr = {OBSTACLE}\n\n"
                "[grid]\nkind = points\npoints = "
                + " ; ".join(_fmt_complex(z) for z in self.points) + "\n\n"
                f"[budget]\nseed = {self.seed}\ndegrees = 16 32\n"
                "restarts = 1\n"
                f"descent_iters = {3 if tiny else 4}\n\n"
                f"[quadrature]\nm = {self.M}\n"
            )
        with open(self.oracle_cfg, "w") as fh:
            fh.write(
                "[run]\nmode = oracle\n\n"
                f"[oracle]\nexpr = {OBSTACLE}\nn = 65\n"
                "rect = -1 1 -1 1\nmask = disc\n"
                f"compare = {os.path.join(self.env_out, 'results.json')}\n"
            )

    def prepare(self):
        for d in (self.env_out, self.oracle_out):
            shutil.rmtree(d, ignore_errors=True)

    def steps(self, out):
        def run_cli(key, mode, cfg, dest):
            out.extra[key] = cli.main([mode, "--config", cfg, "--out", dest,
                                       "--threads", "1", "--quiet"])

        return [
            ("pshenv envelope", lambda: run_cli(
                "env_code", "envelope", self.env_cfg, self.env_out)),
            ("pshenv oracle", lambda: run_cli(
                "oracle_code", "oracle", self.oracle_cfg, self.oracle_out)),
        ]

    def collect(self, out):
        """Read the written files into the outcome (untimed)."""
        written = 0
        for d in (self.env_out, self.oracle_out):
            for f in sorted(os.listdir(d)) if os.path.isdir(d) else []:
                written += os.path.getsize(os.path.join(d, f))
        out.extra["bytes_written"] = written
        path = os.path.join(self.env_out, "results.json")
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            blob = fh.read()
        out.blobs.append(blob)
        points = json.loads(blob)["points"]
        out.extra["points"] = points
        for p in points:
            out.values.append(float(p["value"]))
            out.witnesses.append(pshenv.disc_from_json(p["witness"]))
        comp = os.path.join(self.oracle_out, "comparison.csv")
        if os.path.exists(comp):
            with open(comp) as fh:
                rows = fh.read().splitlines()[1:]
            out.extra["diffs"] = [float(r.split(",")[-1]) for r in rows]

    def check(self, out):
        ops = [
            ("pshenv envelope exits 0", out.extra["env_code"] == 0,
             f"exit {out.extra['env_code']}"),
            ("pshenv oracle exits 0", out.extra["oracle_code"] == 0,
             f"exit {out.extra['oracle_code']}"),
        ]
        points = out.extra.get("points", [])
        ops.append(("results.json holds every point",
                    len(points) == len(self.points), f"{len(points)} points"))
        for p, v, w in zip(points, out.values, out.witnesses):
            x = np.array([complex(re, im) for re, im in p["x"]])
            bad = witness_problems(self.u, self.q, x, v, w, self.window)
            ops.append((f"obstacle point {x}", not bad, "; ".join(bad)))
        diffs = out.extra.get("diffs", [])
        worst = max((abs(d) for d in diffs), default=float("nan"))
        ops.append(("comparison.csv rows within 0.05",
                    len(diffs) == len(self.points) and worst <= 0.05,
                    f"{len(diffs)} rows, worst {worst:.4f}"))
        return ops


class HullCert(Workload):
    name = "hull_cert"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed)
        self.dir = os.path.join(workdir, "hull")
        os.makedirs(self.dir, exist_ok=True)
        self.cert_path = os.path.join(self.dir, "certificate.json")
        n = 16 if tiny else 32
        ang = 2 * np.pi * (np.arange(n) + self.rng.random()) / n
        circle = np.stack([np.exp(1j * ang), np.zeros(n, complex)], axis=1)
        self.K = pshenv.CompactSet.from_points(circle)
        self.x = np.zeros(2, complex)
        self.U = 0.3 if tiny else 0.1
        self.q = pshenv.QuadratureSpec(M=128 if tiny else 256)
        self.budget = pshenv.SearchBudget(
            degree_schedule=(1, 2), restarts=2,
            descent_iters=4 if tiny else 8, seed=self.seed)
        self.corpus = pshenv.bundled_psh_corpus(2)
        # The refusals keep the acceptance test's points (+-2) and budget
        # seed (3) whatever the workload seed: turning the points or seeding
        # the restarts moved the third refusal's feasibility tests between
        # 14,700 and 32,800 over ten seeds, so wall_s would have measured the
        # input generator more than the program.
        self.K2 = pshenv.CompactSet(balls=(((-2 + 0j,), 0.0),
                                           ((2 + 0j,), 0.0)))
        self.q2 = pshenv.QuadratureSpec(M=64 if tiny else 128)
        s = REFUSAL_SEED
        if tiny:
            self.refusals = [pshenv.SearchBudget(
                degree_schedule=(2,), restarts=1, descent_iters=2, seed=s)]
        else:
            self.refusals = [
                pshenv.SearchBudget(degree_schedule=(2,), restarts=2,
                                    descent_iters=6, seed=s),
                pshenv.SearchBudget(degree_schedule=(2, 4), restarts=4,
                                    descent_iters=10, seed=s),
                pshenv.SearchBudget(degree_schedule=(2, 4, 8), restarts=2,
                                    descent_iters=6, rh_rounds=1,
                                    boundary_points=4, seed=s),
            ]

    def prepare(self):
        if os.path.exists(self.cert_path):
            os.remove(self.cert_path)

    def steps(self, out):
        refusals = out.extra["refusals"] = []

        def membership():
            out.extra["cert"] = pshenv.hull_membership(
                self.K, self.x, U_radius=self.U, eps=0.3, budget=self.budget,
                q=self.q)

        def certificate():
            cert = out.extra["cert"]
            if isinstance(cert, pshenv.HullCertificate):
                pshenv.save_certificate(cert, self.cert_path)
                loaded = pshenv.load_certificate(self.cert_path)
                out.extra["loaded"] = loaded
                out.extra["report"] = pshenv.verify_certificate(
                    loaded, self.K, self.corpus)

        def refusal(b):
            refusals.append(pshenv.hull_membership(
                self.K2, [0j], U_radius=0.1, eps=0.3, budget=b, q=self.q2))

        return ([("hull_membership circle", membership),
                 ("certificate save, load, verify", certificate)]
                + [(f"hull_membership refusal {i}", lambda b=b: refusal(b))
                   for i, b in enumerate(self.refusals)])

    def collect(self, out):
        cert = out.extra["cert"]
        if isinstance(cert, pshenv.HullCertificate):
            out.values.append(cert.value)
            out.witnesses.append(cert.disc)
        for r in out.extra["refusals"]:
            if isinstance(r, pshenv.NotFound):
                out.values.append(r.best_value)
                out.witnesses.append(r.witness)

    def check(self, out):
        ops = []
        cert = out.extra["cert"]
        if isinstance(cert, pshenv.HullCertificate):
            u = pshenv.membership_field(self.K, self.U)
            bad = witness_problems(u, self.q, self.x, cert.value, cert.disc,
                                   cert.window)
            if cert.exceptional_measure != 0.0:
                bad.append(f"exceptional measure {cert.exceptional_measure}")
            ops.append(("circle certificate", not bad, "; ".join(bad)))
            rep = out.extra["report"]
            ops.append(("verify_certificate all_ok", bool(rep["all_ok"]),
                        f"{sum(not e['ok'] for e in rep['fields'])} fields fail"))
            loaded = out.extra["loaded"]
            same = (loaded.value == cert.value
                    and np.array_equal(loaded.disc.coeffs, cert.disc.coeffs)
                    and pshenv.poisson_functional(u, loaded.disc, self.q)
                    == loaded.value)
            ops.append(("reloaded certificate matches", same, ""))
        else:
            ops.append(("circle certificate", False,
                        f"not found, best {cert.best_value}"))
        window = hull.default_window(self.K2)
        u2 = pshenv.membership_field(self.K2, 0.1)
        for i, r in enumerate(out.extra["refusals"]):
            if not isinstance(r, pshenv.NotFound):
                ops.append((f"refusal {i}", False, "a certificate was issued"))
                continue
            bad = witness_problems(u2, self.q2, [0j], r.best_value, r.witness,
                                   window)
            if not r.best_value >= -0.5:
                bad.append(f"best value {r.best_value} < -0.5")
            ops.append((f"refusal {i}", not bad, "; ".join(bad)))
        return ops


class Liouville(Workload):
    name = "liouville"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed)
        self.u = pshenv.parse_field(UNIT_BALL)
        self.space = pshenv.euclidean_space(1)
        self.q = pshenv.QuadratureSpec(M=64 if tiny else 512)
        self.budget = pshenv.SearchBudget(
            degree_schedule=(4, 8) if tiny else (8, 16, 32, 64),
            restarts=1, descent_iters=2 if tiny else 4,
            rh_rounds=1 if tiny else 2, child_degree=2 if tiny else 4,
            boundary_points=4, seed=self.seed)
        # |x| = 2 is the acceptance point; its value is -0.869140625.  The
        # second centre, |x| = 3, lies further out along the same direction.
        turn = self.turn()
        self.points = [np.array([r * turn]) for r in (2.0, 3.0)]

    def steps(self, out):
        stages = out.extra["stages"] = []

        def search(x):
            v, w, d = pshenv.envelope_at(self.u, self.space, x, self.budget,
                                         self.q)
            out.values.append(v)
            out.witnesses.append(w)
            stages.append([s["value"] for s in d["stages"]])

        return [(f"envelope_at |x| = {abs(x[0]):.0f}", lambda x=x: search(x))
                for x in self.points]

    def check(self, out):
        ops = []
        for x, v, w, st in zip(self.points, out.values, out.witnesses,
                               out.extra["stages"]):
            bad = witness_problems(self.u, self.q, x, v, w)
            if not all(b <= a + 1e-12 for a, b in zip(st, st[1:])):
                bad.append(f"stage values increase: {st}")
            ops.append((f"liouville x = {x[0]!r}", not bad, "; ".join(bad)))
        return ops


WORKLOADS = {w.name: w for w in (PshGrid, ObstacleCli, HullCert, Liouville)}
