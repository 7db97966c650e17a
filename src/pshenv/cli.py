"""Command-line front end: config-driven runs with deterministic outputs.

Config files are INI-style text (sections of ``key = value``).  Unknown
sections or keys are hard errors, every [budget] needs an explicit seed, and
the JSON/CSV emitters format floats with 17 significant digits, so a config
pins its output byte-for-byte (thread count included: parallel grid passes
are keyed per point, not per worker).

Exit codes: 0 success, 2 config/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .disc import AnalyticDisc, disc_to_json
from .envelope import EnvelopeEstimate, SearchBudget, check_submean, envelope_grid
from .errors import ConfigError, PshenvError, SchemaMismatch
from .functional import (
    QuadratureSpec,
    decreasing_approximation,
    parse_field,
    poisson_functional,
)
from .hull import (
    CompactSet,
    HullCertificate,
    bundled_psh_corpus,
    exceptional_nodes,
    hull_membership,
    load_certificate,
    membership_field,
    save_certificate,
    verify_certificate,
)
from .oracle import field_on_grid, grid_domain, interp_bilinear, subharmonic_minorant
from .space import (
    BranchMap,
    DomainConstraint,
    SpaceModel,
    curve_space,
    euclidean_space,
)

# [budget] keys: one per SearchBudget field, under the field's own name
# except degree_schedule, which configs call degrees.
_BUDGET_FIELDS = {
    ("degrees" if f.name == "degree_schedule" else f.name): f
    for f in dataclasses.fields(SearchBudget)
}

_SECTION_KEYS = {
    "run": {"mode"},
    "space": {"kind", "dim", "center", "radius"},
    "field": {"expr", "truncate"},
    "grid": {"kind", "points", "coord", "re", "im", "r", "angle", "base"},
    "budget": set(_BUDGET_FIELDS),
    "quadrature": {"m", "clip"},
    "hull": {
        "balls",
        "boxes",
        "points",
        "blow_radius",
        "x",
        "u_radius",
        "eps",
        "window_center",
        "window_radius",
    },
    "oracle": {
        "expr",
        "truncate",
        "n",
        "rect",
        "mask",
        "inner",
        "tol",
        "max_iters",
        "compare",
    },
    "verify": {"certificate", "balls", "boxes", "points", "blow_radius", "tol"},
}

_MODE_SECTIONS = {
    "envelope": {"run", "space", "field", "grid", "budget", "quadrature"},
    "hull": {"run", "hull", "budget", "quadrature"},
    "oracle": {"run", "oracle"},
    "verify": {"run", "verify"},
    "counterexample": {"run"},
}


# ---------------------------------------------------------------------------
# Low-level value parsing.


def _complex_list(text: str, key: str) -> np.ndarray:
    try:
        return np.array([complex(tok) for tok in text.split()], dtype=complex)
    except ValueError as exc:
        raise ConfigError(f"bad complex list for {key}: {exc}") from exc


def _float_of(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad number for {key}: {text!r}") from exc


def _int_of(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"bad integer for {key}: {text!r}") from exc


def _int_list(text: str, key: str) -> tuple:
    return tuple(_int_of(tok, key) for tok in text.split())


def _linspace_spec(text: str, key: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{key} must be lo:hi:count, got {text!r}")
    lo, hi = _float_of(parts[0], key), _float_of(parts[1], key)
    n = _int_of(parts[2], key)
    if n < 1:
        raise ConfigError(f"{key} count must be >= 1")
    return np.linspace(lo, hi, n)


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
    allowed_sections = _MODE_SECTIONS[mode]
    for section in cp.sections():
        if section not in allowed_sections:
            raise ConfigError(f"unknown section [{section}] for mode {mode}")
        allowed = _SECTION_KEYS[section]
        for key in cp[section]:
            if key in allowed:
                continue
            if section == "space" and key.startswith("branch."):
                continue
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if "run" not in cp or "mode" not in cp["run"]:
        raise ConfigError("missing required key 'mode' in section [run]")
    cfg_mode = cp["run"]["mode"].strip()
    if cfg_mode != mode:
        raise ConfigError(f"config mode {cfg_mode!r} does not match command {mode!r}")


# ---------------------------------------------------------------------------
# Section -> domain object parsers.


def _parse_space(cp) -> SpaceModel:
    if "space" not in cp:
        raise ConfigError("missing required section [space]")
    sec = cp["space"]
    kind = sec.get("kind", "").strip()
    center = _complex_list(sec["center"], "center") if "center" in sec else None
    radius = (
        np.array([_float_of(t, "radius") for t in sec["radius"].split()])
        if "radius" in sec
        else None
    )
    if kind == "euclidean":
        if "dim" not in sec:
            raise ConfigError("missing required key 'dim' in section [space]")
        dim = _int_of(sec["dim"], "dim")
        if radius is not None and radius.size == 1:
            radius = np.full(dim, radius[0])
        return euclidean_space(dim, center, radius)
    if kind == "curve":
        branches = []
        for key in sec:
            if not key.startswith("branch."):
                continue
            label = key[len("branch.") :]
            comps = tuple(
                _complex_list(part, key) for part in sec[key].split(";")
            )
            branches.append(BranchMap(label, comps))
        if not branches:
            raise ConfigError("curve space needs at least one branch.<label> key")
        branches.sort(key=lambda b: b.label)
        constraint = None
        if radius is not None:
            dim = branches[0].ambient_dim
            if center is None:
                center = np.zeros(dim, dtype=complex)
            if radius.size == 1:
                radius = np.full(dim, radius[0])
            constraint = DomainConstraint(center, radius)
        return curve_space(branches, constraint)
    raise ConfigError(f"space kind must be euclidean or curve, got {kind!r}")


def _parse_field_section(sec):
    if "expr" not in sec:
        raise ConfigError("missing required key 'expr' in field section")
    try:
        u = parse_field(sec["expr"])
    except ValueError as exc:
        raise ConfigError(f"bad field expression: {exc}") from exc
    if "truncate" in sec:
        u = decreasing_approximation(u, _float_of(sec["truncate"], "truncate"))
    return u


def _parse_grid(cp, space: SpaceModel) -> list:
    if "grid" not in cp:
        raise ConfigError("missing required section [grid]")
    sec = cp["grid"]
    kind = sec.get("kind", "").strip()
    N = space.ambient_dim
    if kind == "points":
        if "points" not in sec:
            raise ConfigError("grid kind=points needs a 'points' key")
        out = []
        for chunk in sec["points"].split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            p = _complex_list(chunk, "points")
            if p.size != N:
                raise ConfigError(
                    f"grid point {chunk!r} has {p.size} coordinates, expected {N}"
                )
            out.append(p)
        if not out:
            raise ConfigError("grid kind=points lists no points")
        return out
    coord = _int_of(sec.get("coord", "1"), "coord")
    if not 1 <= coord <= N:
        raise ConfigError(f"grid coord must be in 1..{N}")
    base = (
        _complex_list(sec["base"], "base")
        if "base" in sec
        else np.zeros(N, dtype=complex)
    )
    if base.size != N:
        raise ConfigError(f"grid base needs {N} coordinates")
    if kind == "lattice":
        if "re" not in sec or "im" not in sec:
            raise ConfigError("grid kind=lattice needs 're' and 'im' ranges")
        res = _linspace_spec(sec["re"], "re")
        ims = _linspace_spec(sec["im"], "im")
        out = []
        for a in res:
            for b in ims:
                x = base.copy()
                x[coord - 1] = a + 1j * b
                out.append(x)
        return out
    if kind == "radial":
        if "r" not in sec:
            raise ConfigError("grid kind=radial needs an 'r' range")
        rs = _linspace_spec(sec["r"], "r")
        angle = _float_of(sec.get("angle", "0"), "angle")
        phase = np.exp(1j * angle)
        out = []
        for r in rs:
            x = base.copy()
            x[coord - 1] = r * phase
            out.append(x)
        return out
    raise ConfigError(f"grid kind must be points, lattice or radial, got {kind!r}")


def _parse_budget(cp) -> SearchBudget:
    if "budget" not in cp:
        raise ConfigError("missing required section [budget]")
    sec = cp["budget"]
    if "seed" not in sec:
        raise ConfigError("missing required key 'seed' in section [budget]")
    # A field is parsed as its default is typed: int or int list.
    parse = {int: _int_of, tuple: _int_list}
    kw = {
        f.name: parse[type(f.default)](sec[key], key)
        for key, f in _BUDGET_FIELDS.items()
        if key in sec
    }
    try:
        return SearchBudget(**kw)
    except ValueError as exc:
        raise ConfigError(f"bad [budget]: {exc}") from exc


def _parse_quadrature(cp) -> QuadratureSpec:
    if "quadrature" not in cp:
        return QuadratureSpec()
    sec = cp["quadrature"]
    kw = {}
    if "m" in sec:
        kw["M"] = _int_of(sec["m"], "M")
    if "clip" in sec and sec["clip"].strip().lower() != "none":
        kw["clip"] = _float_of(sec["clip"], "clip")
    try:
        return QuadratureSpec(**kw)
    except ValueError as exc:
        raise ConfigError(f"bad [quadrature]: {exc}") from exc


def _parse_compact_set(sec) -> CompactSet:
    balls, boxes = [], []
    if "balls" in sec:
        for chunk in sec["balls"].split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            toks = _complex_list(chunk, "balls")
            if toks.size < 2:
                raise ConfigError("each ball needs center coordinates then a radius")
            balls.append((toks[:-1], float(toks[-1].real)))
    if "boxes" in sec:
        for chunk in sec["boxes"].split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            toks = _complex_list(chunk, "boxes")
            if toks.size % 2 != 0 or toks.size == 0:
                raise ConfigError("each box needs lo then hi corner coordinates")
            half = toks.size // 2
            boxes.append((toks[:half], toks[half:]))
    if "points" in sec:
        blow = _float_of(sec.get("blow_radius", "0"), "blow_radius")
        for chunk in sec["points"].split(";"):
            chunk = chunk.strip()
            if chunk:
                balls.append((_complex_list(chunk, "points"), blow))
    try:
        return CompactSet(balls=tuple(balls), boxes=tuple(boxes))
    except ValueError as exc:
        raise ConfigError(f"bad compact set: {exc}") from exc


# ---------------------------------------------------------------------------
# Deterministic emitters: 17-significant-digit floats, sorted keys.


def _fmt(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return "%.17g" % x


def _json_text(obj, indent: int = 0) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad} {json.dumps(str(k))}: {_json_text(obj[k], indent + 1)}'
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad} {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(obj))
        fh.write("\n")


def _point_json(p) -> list:
    return [[float(z.real), float(z.imag)] for z in np.ravel(p)]


def _results_payload(est: EnvelopeEstimate, manifest: dict) -> dict:
    points = []
    for p, v, w, d in zip(est.points, est.values, est.witnesses, est.diagnostics):
        points.append(
            {
                "x": _point_json(p),
                "value": float(v),
                "witness": disc_to_json(w),
                "rounds": [float(r) for r in d["rounds"]],
            }
        )
    return {"manifest": manifest, "points": points}


def _write_results_csv(path: str, est: EnvelopeEstimate) -> None:
    dim = est.points[0].size if est.points else 0
    cols = []
    for j in range(1, dim + 1):
        cols += [f"x{j}_re", f"x{j}_im"]
    cols += ["value", "witness_degree", "p_rounds"]
    lines = [",".join(cols)]
    for p, v, w, d in zip(est.points, est.values, est.witnesses, est.diagnostics):
        row = []
        for z in np.ravel(p):
            row += [_fmt(z.real), _fmt(z.imag)]
        row += [_fmt(float(v)), str(w.degree), str(len(d["rounds"]))]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _manifest(config_path: str, mode: str, seed) -> dict:
    with open(config_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "config_hash": digest,
        "seed": seed,
        "version": __version__,
        "mode": mode,
    }


def _write_run_manifest(outdir, manifest, wall, threads) -> None:
    obj = dict(manifest)
    obj["wall_time_s"] = wall
    obj["threads"] = threads
    _write_json(os.path.join(outdir, "manifest.json"), obj)


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


def _run_envelope(cp, args) -> int:
    space = _parse_space(cp)
    if "field" not in cp:
        raise ConfigError("missing required section [field]")
    u = _parse_field_section(cp["field"])
    grid = _parse_grid(cp, space)
    budget = _parse_budget(cp)
    q = _parse_quadrature(cp)
    est = envelope_grid(u, space, grid, budget, q, threads=args.threads)
    manifest = _manifest(args.config, "envelope", budget.seed)
    _write_json(
        os.path.join(args.out, "results.json"), _results_payload(est, manifest)
    )
    _write_results_csv(os.path.join(args.out, "results.csv"), est)
    lo, hi = min(est.values), max(est.values)
    _say(args, f"envelope: {len(est)} points, values in [{_fmt(lo)}, {_fmt(hi)}]")
    return 0


def _run_hull(cp, args) -> int:
    if "hull" not in cp:
        raise ConfigError("missing required section [hull]")
    sec = cp["hull"]
    K = _parse_compact_set(sec)
    for key in ("x", "u_radius", "eps"):
        if key not in sec:
            raise ConfigError(f"missing required key {key!r} in section [hull]")
    x = _complex_list(sec["x"], "x")
    window = None
    if "window_radius" in sec:
        center = (
            _complex_list(sec["window_center"], "window_center")
            if "window_center" in sec
            else np.zeros(K.ambient_dim, dtype=complex)
        )
        radii = np.array(
            [_float_of(t, "window_radius") for t in sec["window_radius"].split()]
        )
        if radii.size == 1:
            radii = np.full(K.ambient_dim, radii[0])
        window = DomainConstraint(center, radii)
    budget = _parse_budget(cp)
    q = _parse_quadrature(cp)
    result = hull_membership(
        K,
        x,
        _float_of(sec["u_radius"], "u_radius"),
        _float_of(sec["eps"], "eps"),
        window,
        budget,
        q,
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
                "x": _point_json(result.x),
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


def _run_oracle(cp, args) -> int:
    if "oracle" not in cp:
        raise ConfigError("missing required section [oracle]")
    sec = cp["oracle"]
    u = _parse_field_section(sec)
    n = _int_of(sec.get("n", "129"), "n")
    rect = tuple(float(t) for t in sec.get("rect", "-1 1 -1 1").split())
    if len(rect) != 4:
        raise ConfigError("oracle rect needs four numbers: re_lo re_hi im_lo im_hi")
    mask = sec.get("mask", "rect").strip()
    inner = _float_of(sec.get("inner", "0"), "inner")
    domain = grid_domain(n, rect, mask=mask, inner=inner)
    tol = _float_of(sec.get("tol", "1e-10"), "tol")
    max_iters = _int_of(sec.get("max_iters", "1000000"), "max_iters")
    u_grid = field_on_grid(u, domain)
    v = subharmonic_minorant(u_grid, domain, tol=tol, max_iters=max_iters)
    lines = ["x_re,y_im,u,minorant"]
    for i in range(n):
        for j in range(n):
            if domain.mask[i, j]:
                lines.append(
                    ",".join(
                        [
                            _fmt(domain.x[j]),
                            _fmt(domain.y[i]),
                            _fmt(u_grid[i, j]),
                            _fmt(v[i, j]),
                        ]
                    )
                )
    with open(os.path.join(args.out, "oracle.csv"), "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    _say(args, f"oracle: {n}x{n} grid solved")
    if "compare" in sec:
        with open(sec["compare"]) as fh:
            stored = json.load(fh)
        rows = ["x_re,x_im,envelope,oracle,diff"]
        worst = 0.0
        for entry in stored["points"]:
            (re, im) = entry["x"][0]
            z = complex(re, im)
            ov = interp_bilinear(domain, v, z)
            dv = entry["value"] - ov
            # np.maximum keeps a NaN difference (both values -inf, say),
            # which max() would drop.
            worst = float(np.maximum(worst, abs(dv)))
            rows.append(
                ",".join(
                    [_fmt(re), _fmt(im), _fmt(entry["value"]), _fmt(ov), _fmt(dv)]
                )
            )
        with open(os.path.join(args.out, "comparison.csv"), "w") as fh:
            fh.write("\n".join(rows))
            fh.write("\n")
        _say(args, f"oracle: comparison written, max |diff| = {_fmt(worst)}")
    return 0


def _run_verify(cp, args) -> int:
    if "verify" not in cp:
        raise ConfigError("missing required section [verify]")
    sec = cp["verify"]
    if "certificate" not in sec:
        raise ConfigError("missing required key 'certificate' in section [verify]")
    cert = load_certificate(sec["certificate"])
    K = _parse_compact_set(sec)
    if K.ambient_dim != cert.x.size:
        raise ConfigError("compact set dimension does not match the certificate")
    tol = _float_of(sec.get("tol", "1e-6"), "tol")
    u = membership_field(K, cert.U_radius)
    value = poisson_functional(u, cert.disc, QuadratureSpec(M=cert.M))
    _, exceptional = exceptional_nodes(
        K, cert.disc.boundary_values(cert.M), cert.U_radius
    )
    report = verify_certificate(cert, K, bundled_psh_corpus(K.ambient_dim), tol=tol)
    report["value_match"] = value == cert.value
    report["stored_value"] = cert.value
    report["recomputed_value"] = value
    report["exceptional_match"] = exceptional == cert.exceptional_measure
    ok = report["all_ok"] and report["value_match"] and report["exceptional_match"]
    report["all_ok"] = ok
    _write_json(os.path.join(args.out, "verify.json"), report)
    _say(args, f"verify: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 3


def _run_counterexample(cp, args) -> int:
    space, u, grid, budget, q, trials = counterexample_scenario()
    est = envelope_grid(u, space, grid, budget, q, threads=args.threads)
    violations = check_submean(est, space, trials, q, tol=1e-6)
    manifest = _manifest(args.config, "counterexample", budget.seed)
    _write_json(
        os.path.join(args.out, "results.json"), _results_payload(est, manifest)
    )
    _write_json(
        os.path.join(args.out, "usc_report.json"),
        {
            "violations": [
                {
                    "disc_index": v["disc_index"],
                    "center": _point_json(v["center"]),
                    "center_value": v["center_value"],
                    "boundary_average": v["boundary_average"],
                    "excess": v["excess"],
                }
                for v in violations
            ]
        },
    )
    if not violations:
        _err(args, "counterexample: expected a submean violation, found none")
        return 3
    worst = max(v["excess"] for v in violations)
    _say(args, f"counterexample: {len(violations)} violation(s), max excess {_fmt(worst)}")
    return 0


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
        if not (a == b or abs(float(a) - float(b)) <= tol):
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
        _err(args, f"diff: {d}")
    if len(diffs) > 200:
        _err(args, f"diff: ... and {len(diffs) - 200} more")
    return 3


# ---------------------------------------------------------------------------
# Entry point.


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _err(args, msg: str) -> None:
    print(msg, file=sys.stderr)


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "diff":
        try:
            return _run_diff(args)
        except SchemaMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.threads < 0:
        print("error: --threads must be >= 0", file=sys.stderr)
        return 2
    if args.threads == 0:
        args.threads = os.cpu_count() or 1
    start = time.perf_counter()
    try:
        cp = _load_config(args.config)
        _validate_config(cp, args.command)
        os.makedirs(args.out, exist_ok=True)
        code = _RUNNERS[args.command](cp, args)
    except (ConfigError, SchemaMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PshenvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    seed = None
    if "budget" in cp and "seed" in cp["budget"]:
        seed = int(cp["budget"]["seed"])
    try:
        _write_run_manifest(
            args.out, _manifest(args.config, args.command, seed), wall, args.threads
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
