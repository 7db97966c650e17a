"""Which pshenv functions the traced run wraps, and the per-layer metrics.

Layers are pshenv's modules, each measured at the public functions other
modules call.  ``targets()`` lists the wrappers; ``metrics()`` turns one
traced pass into the ``<layer>.<what>`` numbers that BENCHMARK.json names,
with the units and directions listed in ``PER_LAYER``.
"""

from __future__ import annotations

from pshenv import cli, disc, envelope, functional, hull, oracle, space

LAYERS = ("functional", "disc", "space", "envelope", "hull", "oracle", "cli",
          "bench")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("functional.values_calls", "count", "lower"),
    ("functional.values_s", "s", "lower"),
    ("functional.us_per_call", "us", "lower"),
    ("hull.distance_calls", "count", "lower"),
    ("hull.distance_s", "s", "lower"),
    ("disc.boundary_calls", "count", "lower"),
    ("disc.boundary_s", "s", "lower"),
    ("disc.boundary_gflop_computed", "gflop", "lower"),
    ("disc.boundary_mb_computed", "MB", "lower"),
    ("disc.fit_laurent_calls", "count", "lower"),
    ("disc.compose_rh_calls", "count", "lower"),
    ("disc.glue_s", "s", "lower"),
    ("space.feasible_calls", "count", "lower"),
    ("space.feasible_s", "s", "lower"),
    ("space.lift_calls", "count", "lower"),
    ("space.lift_s", "s", "lower"),
    ("envelope.evals_per_point", "count", "lower"),
    ("envelope.feasible_per_point", "count", "lower"),
    ("envelope.rh_rounds", "count", "lower"),
    ("envelope.rh_accepted", "count", "higher"),
    ("envelope.rh_accept_ratio", "ratio", "higher"),
    ("envelope.warm_wins", "count", "higher"),
    ("envelope.warm_win_ratio", "ratio", "higher"),
    ("oracle.relax_s", "s", "lower"),
    ("oracle.field_s", "s", "lower"),
    ("oracle.active_nodes", "count", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Innermost coarse spans whose hot calls count as search work per point.
_SEARCH = ("envelope.envelope_at", "envelope.envelope_grid")


def _keep_diag(tr, args, kwargs, result):
    tr.kept["diags"].append(result[2])


def _count_warm(tr, args, kwargs, result):
    tr.counts["envelope.warm_attempts"] += max(0, len(result.points) - 1)


def _boundary_work(tr, args, kwargs, result):
    # (coeffs.T @ P) with coeffs (d+1, w) and P (d+1, M), all complex128:
    # 8 real flops per complex multiply-add; bytes of both operands and the
    # product, as if each moved once.
    rows, width = args[0].shape
    M = args[1]
    tr.counts["disc.boundary_flop"] += 8.0 * rows * width * M
    tr.counts["disc.boundary_bytes"] += 16.0 * (rows * width + rows * M
                                                + M * width)


def _count_nodes(tr, args, kwargs, result):
    tr.counts["oracle.active_nodes"] += int(args[1].mask.sum())


def targets():
    """(owner, attribute, name, coarse, hook) for Tracer.install."""
    return [
        # hot calls: aggregated per enclosing coarse span
        (functional.ScalarField, "values", "functional.values", False, None),
        (disc, "boundary_from_coeffs", "disc.boundary", False,
         _boundary_work),
        (disc, "fit_laurent", "disc.fit_laurent", False, None),
        (disc, "compose_rh", "disc.compose_rh", False, None),
        (space.DomainConstraint, "satisfied", "space.feasible", False, None),
        (space, "lift_point", "space.lift", False, None),
        (hull.CompactSet, "distance", "hull.distance", False, None),
        # coarse calls: one span each
        (envelope, "envelope_at", "envelope.envelope_at", True, _keep_diag),
        (envelope, "envelope_grid", "envelope.envelope_grid", True,
         _count_warm),
        (envelope, "check_submean", "envelope.check_submean", True, None),
        (hull, "hull_membership", "hull.hull_membership", True, None),
        (hull, "verify_certificate", "hull.verify_certificate", True, None),
        (hull, "save_certificate", "hull.save_certificate", True, None),
        (hull, "load_certificate", "hull.load_certificate", True, None),
        (oracle, "field_on_grid", "oracle.field_on_grid", True, _count_nodes),
        (oracle, "subharmonic_minorant", "oracle.subharmonic_minorant", True,
         None),
        (cli, "main", "cli.main", True, None),
    ]


def metrics(tr, wall_s, bytes_written):
    """Per-layer numbers of one traced pass whose root span took wall_s.

    Every name of PER_LAYER except trace.overhead_frac, which needs the
    untraced passes too.
    """
    points = tr.calls("envelope.envelope_at")[0]
    m = {}

    def per_point(n):
        return n / points if points else 0.0

    vc, vs = tr.calls("functional.values")
    m["functional.values_calls"] = vc
    m["functional.values_s"] = vs
    m["functional.us_per_call"] = 1e6 * vs / vc if vc else 0.0
    m["hull.distance_calls"], m["hull.distance_s"] = tr.calls("hull.distance")
    m["disc.boundary_calls"], m["disc.boundary_s"] = tr.calls("disc.boundary")
    m["disc.boundary_gflop_computed"] = tr.counts["disc.boundary_flop"] / 1e9
    m["disc.boundary_mb_computed"] = tr.counts["disc.boundary_bytes"] / 1e6
    fit_n, fit_s = tr.calls("disc.fit_laurent")
    comp_n, comp_s = tr.calls("disc.compose_rh")
    m["disc.fit_laurent_calls"] = fit_n
    m["disc.compose_rh_calls"] = comp_n
    m["disc.glue_s"] = fit_s + comp_s
    m["space.feasible_calls"], m["space.feasible_s"] = tr.calls(
        "space.feasible")
    m["space.lift_calls"], m["space.lift_s"] = tr.calls("space.lift")
    m["envelope.evals_per_point"] = per_point(
        tr.calls("functional.values", within=_SEARCH)[0])
    m["envelope.feasible_per_point"] = per_point(
        tr.calls("space.feasible", within=_SEARCH)[0])
    diags = tr.kept["diags"]
    rounds = sum(len(d["rh"]) for d in diags)
    accepted = sum(bool(r["accepted"]) for d in diags for r in d["rh"])
    m["envelope.rh_rounds"] = rounds
    m["envelope.rh_accepted"] = accepted
    m["envelope.rh_accept_ratio"] = accepted / rounds if rounds else 0.0
    wins = sum(bool(d.get("warm_start")) for d in diags)
    attempts = tr.counts["envelope.warm_attempts"]
    m["envelope.warm_wins"] = wins
    m["envelope.warm_win_ratio"] = wins / attempts if attempts else 0.0
    m["oracle.relax_s"] = tr.calls("oracle.subharmonic_minorant")[1]
    m["oracle.field_s"] = tr.calls("oracle.field_on_grid")[1]
    m["oracle.active_nodes"] = tr.counts["oracle.active_nodes"]
    m["cli.bytes_written"] = bytes_written
    own = tr.self_by_layer()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    m["trace.wall_s"] = wall_s
    return m
