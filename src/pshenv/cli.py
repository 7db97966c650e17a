"""Command-line front end: config-driven runs with deterministic outputs.

Config files are INI-style text (sections of ``key = value``).  Unknown
sections or keys are hard errors, every [budget] needs an explicit seed, and
the JSON/CSV emitters write each float as the shortest text that reads back
to the same double, so a config pins its output byte-for-byte (thread count
included: parallel grid passes are keyed per point, not per worker).

Exit codes: 0 success, 2 config/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .disc import AnalyticDisc, complex_from_json, complex_to_json, disc_to_json
from .envelope import EnvelopeEstimate, SearchBudget, check_submean, envelope_grid
from .errors import ConfigError, PshenvError, SchemaMismatch
from .functional import QuadratureSpec, parse_field
from .hull import (
    CompactSet,
    HullCertificate,
    bundled_psh_corpus,
    hull_membership,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from .oracle import field_on_grid, grid_domain, interp_bilinear, subharmonic_minorant
from .space import BranchMap, SpaceModel, curve_space, euclidean_space, polydisc

# ---------------------------------------------------------------------------
# The config schema.  A reader turns the text of one value into its type and
# raises ValueError on a malformed value.


def _floats(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split()])


def _ints(text: str) -> tuple:
    return tuple(int(t) for t in text.split())


def _complexes(text: str) -> np.ndarray:
    return np.array([complex(t) for t in text.split()], dtype=complex)


def _complex_lists(text: str) -> list:
    """`;`-separated complex lists; empty ones are skipped."""
    return [_complexes(part) for part in text.split(";") if part.strip()]


def _range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected lo:hi:count")
    count = int(parts[2])
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.linspace(float(parts[0]), float(parts[1]), count)


@dataclasses.dataclass(frozen=True)
class _Section:
    """One config section: a reader per key, the keys it cannot do without,
    the values of keys left out, and keys that only make sense with another
    (key -> the key it needs).  A key ``prefix.*`` admits every
    ``prefix.<label>`` key."""

    readers: dict
    required: tuple = ()
    defaults: dict = dataclasses.field(default_factory=dict)
    needs: dict = dataclasses.field(default_factory=dict)

    def reader(self, key: str):
        prefix, dot, _ = key.partition(".")
        return self.readers.get(prefix + ".*" if dot else key)


# [budget] keys: one per SearchBudget field, under the field's own name
# except degree_schedule, which configs call degrees.
_BUDGET_FIELDS = {
    ("degrees" if f.name == "degree_schedule" else f.name): f
    for f in dataclasses.fields(SearchBudget)
}

_SET_KEYS = {"balls": _complex_lists, "boxes": _complex_lists,
             "points": _complex_lists, "blow_radius": float}
_SET_DEFAULTS = {"balls": (), "boxes": (), "points": (), "blow_radius": 0.0}

_SCHEMA = {
    "run": _Section({"mode": str}, required=("mode",)),
    "space": _Section(
        {"kind": str, "dim": int, "center": _complexes, "radius": _floats,
         "branch.*": _complex_lists},
        required=("kind",), needs={"center": "radius"}),
    "field": _Section({"expr": str}, required=("expr",)),
    "grid": _Section(
        {"kind": str, "points": _complex_lists, "coord": int, "base": _complexes,
         "re": _range, "im": _range, "r": _range, "angle": float},
        required=("kind",), defaults={"coord": 1, "angle": 0.0}),
    "budget": _Section(
        {key: _ints if isinstance(f.default, tuple) else int
         for key, f in _BUDGET_FIELDS.items()},
        required=("seed",)),
    "quadrature": _Section(
        {"m": int}, defaults={"m": QuadratureSpec.M}),
    "hull": _Section(
        {**_SET_KEYS, "x": _complexes, "u_radius": float, "eps": float,
         "window_center": _complexes, "window_radius": _floats},
        required=("x", "u_radius", "eps"), defaults=_SET_DEFAULTS,
        needs={"window_center": "window_radius"}),
    "oracle": _Section(
        {"expr": str, "n": int, "rect": _floats, "mask": str, "inner": float,
         "tol": float, "max_iters": int, "compare": str},
        required=("expr",),
        defaults={"n": 129, "rect": (-1.0, 1.0, -1.0, 1.0), "mask": "rect",
                  "inner": 0.0, "tol": 1e-10, "max_iters": 10**6}),
    "verify": _Section(
        {**_SET_KEYS, "certificate": str, "tol": float},
        required=("certificate",), defaults={**_SET_DEFAULTS, "tol": 1e-6}),
}

_MODE_SECTIONS = {
    "envelope": {"run", "space", "field", "grid", "budget", "quadrature"},
    "hull": {"run", "hull", "budget", "quadrature"},
    "oracle": {"run", "oracle"},
    "verify": {"run", "verify"},
    "counterexample": {"run"},
}


class _Values(dict):
    """The values of one section; reading a key it lacks is a config error."""

    def __init__(self, name: str, values: dict):
        super().__init__(values)
        self.name = name

    def __missing__(self, key):
        raise _missing(key, self.name)


def _missing(key: str, name: str) -> ConfigError:
    return ConfigError(f"missing required key {key!r} in section [{name}]")


def _section(cp: configparser.ConfigParser, name: str) -> _Values:
    """Section [name] read through _SCHEMA, defaults filled in; a section
    that is left out reads as empty."""
    spec = _SCHEMA[name]
    sec = cp[name] if name in cp else {}
    values = _Values(name, spec.defaults)
    for key, text in sec.items():
        reader = spec.reader(key)
        if reader is None:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        try:
            values[key] = reader(text)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key}: cannot read {text!r}: {exc}") from exc
    for key in spec.required:
        if key not in sec:
            raise _missing(key, name)
    for key, need in spec.needs.items():
        if key in sec and need not in sec:
            raise ConfigError(f"[{name}] {key} needs {need}")
    return values


def _load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if cp.defaults():
        raise ConfigError("top-level keys outside a section are not allowed")
    return cp


def _validate_config(cp: configparser.ConfigParser, mode: str) -> None:
    """Check every section and key against the schema and read every value."""
    for name in cp.sections():
        if name not in _MODE_SECTIONS[mode]:
            raise ConfigError(f"unknown section [{name}] for mode {mode}")
        _section(cp, name)
    cfg_mode = _section(cp, "run")["mode"]
    if cfg_mode != mode:
        raise ConfigError(f"config mode {cfg_mode!r} does not match command {mode!r}")


# ---------------------------------------------------------------------------
# Section -> domain object parsers.


def _parse_space(cp) -> SpaceModel:
    sec = _section(cp, "space")
    kind, center, radius = sec["kind"], sec.get("center"), sec.get("radius")
    if kind == "euclidean":
        return euclidean_space(sec["dim"], center, radius)
    if kind == "curve":
        branches = sorted(
            (
                BranchMap(key[len("branch.") :], tuple(comps))
                for key, comps in sec.items()
                if key.startswith("branch.")
            ),
            key=lambda b: b.label,
        )
        if not branches:
            raise ConfigError("curve space needs at least one branch.<label> key")
        dim = branches[0].ambient_dim
        window = None if radius is None else polydisc(dim, radius, center)
        return curve_space(branches, window)
    raise ConfigError(f"space kind must be euclidean or curve, got {kind!r}")


def _parse_field(sec, dim: int):
    """The field of [field] or [oracle], for points of dim coordinates."""
    try:
        u = parse_field(sec["expr"])
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] expr: bad field expression: {exc}") from exc
    try:
        u.check_dimension(dim)
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] expr: {exc}") from exc
    return u


def _parse_grid(cp, space: SpaceModel) -> list:
    sec = _section(cp, "grid")
    kind, N = sec["kind"], space.ambient_dim
    if kind == "points":
        out = sec["points"]
        for p in out:
            if p.size != N:
                raise ConfigError(
                    f"grid point {p} has {p.size} coordinates, expected {N}"
                )
        if not out:
            raise ConfigError("grid kind=points lists no points")
        return out
    coord = sec["coord"]
    if not 1 <= coord <= N:
        raise ConfigError(f"grid coord must be in 1..{N}")
    base = sec.get("base", np.zeros(N, dtype=complex))
    if base.size != N:
        raise ConfigError(f"grid base needs {N} coordinates")
    if kind == "lattice":
        offsets = [a + 1j * b for a in sec["re"] for b in sec["im"]]
    elif kind == "radial":
        phase = np.exp(1j * sec["angle"])
        offsets = [r * phase for r in sec["r"]]
    else:
        raise ConfigError(f"grid kind must be points, lattice or radial, got {kind!r}")
    out = []
    for z in offsets:
        x = base.copy()
        x[coord - 1] = z
        out.append(x)
    return out


def _parse_budget(cp) -> SearchBudget:
    sec = _section(cp, "budget")
    try:
        return SearchBudget(**{_BUDGET_FIELDS[key].name: v for key, v in sec.items()})
    except ValueError as exc:
        raise ConfigError(f"bad [budget]: {exc}") from exc


def _parse_quadrature(cp) -> QuadratureSpec:
    sec = _section(cp, "quadrature")
    try:
        return QuadratureSpec(M=sec["m"])
    except ValueError as exc:
        raise ConfigError(f"bad [quadrature]: {exc}") from exc


def _parse_search(cp) -> tuple:
    """(budget, quadrature) of a search; its discs need degree below M."""
    budget, q = _parse_budget(cp), _parse_quadrature(cp)
    top = budget.degree_schedule[-1]
    if top >= q.M:
        raise ConfigError(
            f"[budget] degrees: top degree {top} must be below [quadrature] m = {q.M}"
        )
    return budget, q


def _parse_compact_set(sec) -> CompactSet:
    balls, boxes = [], []
    for toks in sec["balls"]:
        if toks.size < 2 or toks[-1].imag != 0:
            raise ConfigError(
                f"[{sec.name}] balls: each ball is its center coordinates, then "
                f"a real radius; got {toks}"
            )
        balls.append((toks[:-1], float(toks[-1].real)))
    for toks in sec["boxes"]:
        if toks.size % 2 != 0:
            raise ConfigError(
                f"[{sec.name}] boxes: each box needs lo then hi corner coordinates"
            )
        half = toks.size // 2
        boxes.append((toks[:half], toks[half:]))
    balls += [(p, sec["blow_radius"]) for p in sec["points"]]
    try:
        return CompactSet(balls=tuple(balls), boxes=tuple(boxes))
    except ValueError as exc:
        raise ConfigError(f"bad compact set: {exc}") from exc


# ---------------------------------------------------------------------------
# Deterministic emitters: numbers as json writes them, sorted keys.

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt(x: float) -> str:
    """x as json writes it: the shortest text that reads back to the same
    double (-0.0 kept), or NaN, Infinity, -Infinity."""
    text = repr(float(x))
    return _NONFINITE.get(text, text)


def _write_json(path: str, obj) -> None:
    """obj, which holds Python scalars only, as sorted, indented json."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: str, rows) -> None:
    """A header line, then one line per row: numbers through _fmt, text as is."""
    lines = [header]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _results_payload(est: EnvelopeEstimate, manifest: dict) -> dict:
    points = []
    for p, v, w, d in zip(est.points, est.values, est.witnesses, est.diagnostics):
        points.append(
            {
                "x": complex_to_json(p),
                "value": float(v),
                "witness": disc_to_json(w),
                "rounds": [float(r) for r in d["rounds"]],
            }
        )
    return {"manifest": manifest, "points": points}


def _write_results(outdir: str, est: EnvelopeEstimate, manifest: dict) -> None:
    """results.json, and results.csv with one line per point."""
    _write_json(os.path.join(outdir, "results.json"), _results_payload(est, manifest))
    dim = est.points[0].size if est.points else 0
    cols = [f"x{j}_{part}" for j in range(1, dim + 1) for part in ("re", "im")]
    rows = []
    for p, v, w, d in zip(est.points, est.values, est.witnesses, est.diagnostics):
        xs = [t for z in np.ravel(p) for t in (z.real, z.imag)]
        rows.append(xs + [float(v), str(w.degree), str(len(d["rounds"]))])
    _write_csv(
        os.path.join(outdir, "results.csv"),
        ",".join(cols + ["value", "witness_degree", "p_rounds"]),
        rows,
    )


def _manifest(config_path: str, mode: str) -> dict:
    """The run's manifest; a runner that searches sets its seed."""
    with open(config_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "config_hash": digest,
        "seed": None,
        "version": __version__,
        "mode": mode,
    }


# ---------------------------------------------------------------------------
# The built-in reducible-axes counterexample scenario.


def counterexample_scenario():
    """The two-axes model zw=0 with a field that kills upper semicontinuity.

    The field is 1 everywhere on the curve except on the punctured z-axis,
    where it is 0.  Envelopes: 0 on the whole z-axis (a nonconstant disc
    beats the origin's value 1), 1 on the punctured w-axis.  The resulting
    grid fails the submean inequality along w-branch discs near the origin.
    Returns (space, field, grid points, budget, quadrature, trial discs).
    """
    z_axis = BranchMap("zaxis", (np.array([0, 1], complex), np.array([0], complex)))
    w_axis = BranchMap("waxis", (np.array([0], complex), np.array([0, 1], complex)))
    space = curve_space((w_axis, z_axis))
    u = parse_field("1 - min(1, 1000000000000 * abs2(z1))")
    ticks = np.linspace(-0.5, 0.5, 5)
    grid = []
    for a in ticks:
        for b in ticks:
            grid.append(np.array([a + 1j * b, 0.0], dtype=complex))
    for a in ticks:
        for b in ticks:
            w = a + 1j * b
            if w != 0:
                grid.append(np.array([0.0, w], dtype=complex))
    budget = SearchBudget(degree_schedule=(1,), restarts=2, descent_iters=6, seed=7)
    q = QuadratureSpec(M=64)
    # Centered on the first w-axis tick, boundary through the origin: the
    # interpolated boundary average picks up the origin's low value while the
    # center sits at 1, which is exactly the semicontinuity defect.
    trial = AnalyticDisc(np.array([[0.25 + 0j], [0.25 + 0j]]), w_axis)
    return space, u, grid, budget, q, [trial]


# ---------------------------------------------------------------------------
# Mode runners.


def _run_envelope(cp, args, manifest) -> int:
    space = _parse_space(cp)
    u = _parse_field(_section(cp, "field"), space.ambient_dim)
    grid = _parse_grid(cp, space)
    budget, q = _parse_search(cp)
    manifest["seed"] = budget.seed
    est = envelope_grid(u, space, grid, budget, q, threads=args.threads)
    _write_results(args.out, est, manifest)
    lo, hi = min(est.values), max(est.values)
    _say(args, f"envelope: {len(est)} points, values in [{_fmt(lo)}, {_fmt(hi)}]")
    return 0


def _run_hull(cp, args, manifest) -> int:
    sec = _section(cp, "hull")
    K = _parse_compact_set(sec)
    window = None
    if "window_radius" in sec:
        window = polydisc(K.ambient_dim, sec["window_radius"], sec.get("window_center"))
    budget, q = _parse_search(cp)
    manifest["seed"] = budget.seed
    result = hull_membership(
        K, sec["x"], sec["u_radius"], sec["eps"], window, budget, q
    )
    if isinstance(result, HullCertificate):
        save_certificate(result, os.path.join(args.out, "certificate.json"))
        _say(
            args,
            "hull: certificate found, exceptional measure "
            f"{_fmt(result.exceptional_measure)}",
        )
    else:
        _write_json(
            os.path.join(args.out, "notfound.json"),
            {
                "x": complex_to_json(result.x),
                "best_value": result.best_value,
                "threshold": result.threshold,
                "witness": disc_to_json(result.witness),
            },
        )
        _say(
            args,
            f"hull: no certificate (best {_fmt(result.best_value)} vs "
            f"threshold {_fmt(result.threshold)})",
        )
    return 0


def _read_compare(path: str) -> list:
    """(point, value) pairs of a results file in one variable."""
    try:
        with open(path) as fh:
            stored = json.load(fh)
        pairs = []
        for entry in stored["points"]:
            x = complex_from_json(entry["x"])
            if x.size != 1:
                raise ValueError(
                    f"a point has {x.size} coordinates; the oracle works in one"
                )
            pairs.append((complex(x[0]), float(entry["value"])))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"[oracle] compare: {path} is not a results file of one variable: {exc!r}"
        ) from exc
    return pairs


def _run_oracle(cp, args, manifest) -> int:
    sec = _section(cp, "oracle")
    u = _parse_field(sec, 1)
    rect = sec["rect"]
    if len(rect) != 4:
        raise ConfigError("[oracle] rect needs four numbers: re_lo re_hi im_lo im_hi")
    domain = grid_domain(sec["n"], tuple(rect), mask=sec["mask"], inner=sec["inner"])
    stored = _read_compare(sec["compare"]) if "compare" in sec else None
    u_grid = field_on_grid(u, domain)
    v = subharmonic_minorant(u_grid, domain, tol=sec["tol"], max_iters=sec["max_iters"])
    ii, jj = np.nonzero(domain.mask)
    _write_csv(
        os.path.join(args.out, "oracle.csv"),
        "x_re,y_im,u,minorant",
        zip(domain.x[jj], domain.y[ii], u_grid[ii, jj], v[ii, jj]),
    )
    _say(args, f"oracle: {domain.n}x{domain.n} grid solved")
    if stored is not None:
        rows = []
        worst = 0.0
        for z, value in stored:
            ov = interp_bilinear(domain, v, z)
            dv = value - ov
            # np.maximum keeps a NaN difference (both values -inf, say),
            # which max() would drop.
            worst = float(np.maximum(worst, abs(dv)))
            rows.append((z.real, z.imag, value, ov, dv))
        _write_csv(
            os.path.join(args.out, "comparison.csv"),
            "x_re,x_im,envelope,oracle,diff",
            rows,
        )
        _say(args, f"oracle: comparison written, max |diff| = {_fmt(worst)}")
    return 0


def _run_verify(cp, args, manifest) -> int:
    sec = _section(cp, "verify")
    try:
        cert = load_certificate(sec["certificate"])
    except (OSError, ValueError, SchemaMismatch) as exc:
        raise ConfigError(f"[verify] certificate: {exc}") from exc
    K = _parse_compact_set(sec)
    if K.ambient_dim != cert.x.size:
        raise ConfigError("compact set dimension does not match the certificate")
    report = verify_certificate(
        cert, K, bundled_psh_corpus(K.ambient_dim), tol=sec["tol"]
    )
    _write_json(os.path.join(args.out, "verify.json"), report)
    _say(args, f"verify: {'ok' if report['all_ok'] else 'FAILED'}")
    return 0 if report["all_ok"] else 3


def _run_counterexample(cp, args, manifest) -> int:
    space, u, grid, budget, q, trials = counterexample_scenario()
    est = envelope_grid(u, space, grid, budget, q, threads=args.threads)
    violations = check_submean(est, space, trials, q, tol=1e-6)
    manifest["seed"] = budget.seed
    _write_json(
        os.path.join(args.out, "results.json"), _results_payload(est, manifest)
    )
    _write_json(
        os.path.join(args.out, "usc_report.json"),
        {
            "violations": [
                {**v, "center": complex_to_json(v["center"])} for v in violations
            ]
        },
    )
    if not violations:
        print("counterexample: expected a submean violation, found none",
              file=sys.stderr)
        return 3
    worst = max(v["excess"] for v in violations)
    _say(args, f"counterexample: {len(violations)} violation(s), max excess {_fmt(worst)}")
    return 0


def _same_number(a, b, tol: float) -> bool:
    """Whether two numeric leaves agree: both NaN, or within a positive tol,
    or at tol 0 equal with the same sign, so 0.0 and -0.0 differ."""
    fa, fb = float(a), float(b)
    if math.isnan(fa) or math.isnan(fb):
        return math.isnan(fa) and math.isnan(fb)
    if tol > 0:
        return a == b or abs(fa - fb) <= tol
    return a == b and math.copysign(1.0, fa) == math.copysign(1.0, fb)


def _leaf_diffs(a, b, path, tol, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                out.append(f"{path}.{k}: only in one run")
            else:
                _leaf_diffs(a[k], b[k], f"{path}.{k}", tol, out)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _leaf_diffs(x, y, f"{path}[{i}]", tol, out)
        return
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if not _same_number(a, b, tol):
            out.append(f"{path}: {a!r} vs {b!r}")
        return
    if a != b:
        out.append(f"{path}: {a!r} vs {b!r}")


def diff_runs(path_a: str, path_b: str, tol: float = 0.0) -> list:
    """Field-by-field comparison of two results files; list of differences."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for side, obj in (("a", a), ("b", b)):
        if not isinstance(obj, dict) or "manifest" not in obj:
            raise SchemaMismatch(f"run {side} is not a results file (no manifest)")
    out = []
    _leaf_diffs(a, b, "", tol, out)
    return out


def _run_diff(args) -> int:
    diffs = diff_runs(args.run_a, args.run_b, tol=args.tol)
    if not diffs:
        _say(args, "diff: runs identical within tolerance")
        return 0
    for d in diffs[:200]:
        print(f"diff: {d}", file=sys.stderr)
    if len(diffs) > 200:
        print(f"diff: ... and {len(diffs) - 200} more", file=sys.stderr)
    return 3


# ---------------------------------------------------------------------------
# Entry point.


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pshenv",
        description="Disc envelopes, hull certificates, and oracles.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for mode in ("envelope", "hull", "oracle", "verify", "counterexample"):
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--threads", type=int, default=1, help="worker threads (0 = auto)"
        )
        p.add_argument("--quiet", action="store_true")
    p = sub.add_parser("diff")
    p.add_argument("run_a", help="first results.json")
    p.add_argument("run_b", help="second results.json")
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--quiet", action="store_true")
    return ap


_RUNNERS = {
    "envelope": _run_envelope,
    "hull": _run_hull,
    "oracle": _run_oracle,
    "verify": _run_verify,
    "counterexample": _run_counterexample,
}


def _command(args) -> int:
    if args.command == "diff":
        return _run_diff(args)
    if args.threads < 0:
        raise ConfigError("--threads must be >= 0")
    if args.threads == 0:
        args.threads = os.cpu_count() or 1
    start = time.perf_counter()
    cp = _load_config(args.config)
    _validate_config(cp, args.command)
    os.makedirs(args.out, exist_ok=True)
    manifest = _manifest(args.config, args.command)
    code = _RUNNERS[args.command](cp, args, manifest)
    wall = time.perf_counter() - start
    _write_json(
        os.path.join(args.out, "manifest.json"),
        {**manifest, "wall_time_s": wall, "threads": args.threads},
    )
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _command(args)
    except (ConfigError, SchemaMismatch, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PshenvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
