"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py

Tiny passes of every workload must check clean, tampered results must be
counted as failures, and the tracer's self-time arithmetic must be exact.
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import pshenv  # noqa: E402
import reference  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def workdir():
    path = os.path.join(bench_run.WORKDIR, f"selftest-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _tiny_pass(name, workdir, tracer=None, timer=None):
    wl = workloads.WORKLOADS[name](3, workdir, tiny=True)
    wl.prepare()
    if tracer is None:
        out = wl.run(timer)
    else:
        tracer.install(layers.targets())
        try:
            with tracer.span("bench.pass"):
                out = wl.run()
        finally:
            tracer.uninstall()
    wl.collect(out)
    return wl, out


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_tiny_pass_checks_clean(name, workdir):
    labels = []

    def timer(label, step):
        labels.append(label)
        step()

    wl, out = _tiny_pass(name, workdir, timer=timer)
    assert labels and len(set(labels)) == len(labels)
    ops = wl.check(out)
    assert ops
    assert [op for op in ops if not op[1]] == []


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_traced_tiny_pass_splits_into_layers(name, workdir):
    tr = Tracer()
    wl, out = _tiny_pass(name, workdir, tr)
    assert [op for op in wl.check(out) if not op[1]] == []
    root = [s for s in tr.spans if s["name"] == "bench.pass"][0]
    wall = root["end"] - root["start"]
    m = layers.metrics(tr, wall, out.extra.get("bytes_written", 0))
    total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-12)
    if name in ("psh_grid", "liouville"):
        assert m["space.feasible_calls"] == 0
    if name in ("psh_grid", "obstacle_cli"):
        assert m["envelope.rh_rounds"] == 0
    assert (m["hull.distance_calls"] > 0) == (name == "hull_cert")
    assert m["envelope.evals_per_point"] > 0


def test_rescale_puts_a_time_on_the_reference_speed():
    ref = reference.REF_S
    assert reference.rescale(2.0, [ref, ref]) == pytest.approx(2.0)
    # the machine ran at half speed: the kernel took twice as long
    assert reference.rescale(2.0, [2 * ref, 2 * ref]) == pytest.approx(1.0)
    assert reference.rescale(2.0, [ref, 3 * ref]) == pytest.approx(1.0)
    assert reference.kernel_s() > 0


def test_install_restores_every_original():
    before = (pshenv.envelope.boundary_from_coeffs, pshenv.disc.boundary_from_coeffs,
              pshenv.hull.envelope_at, pshenv.functional.ScalarField.values)
    tr = Tracer()
    tr.install(layers.targets())
    try:
        assert pshenv.envelope.boundary_from_coeffs is not before[0]
        assert pshenv.disc.boundary_from_coeffs is not before[1]
        assert pshenv.hull.envelope_at is not before[2]
    finally:
        tr.uninstall()
    after = (pshenv.envelope.boundary_from_coeffs, pshenv.disc.boundary_from_coeffs,
             pshenv.hull.envelope_at, pshenv.functional.ScalarField.values)
    assert all(a is b for a, b in zip(before, after))


def test_tampered_value_or_moved_centre_counts_as_failure(workdir):
    wl, out = _tiny_pass("liouville", workdir)
    assert all(ok for _, ok, _ in wl.check(out))
    good_value, good_witness = out.values[0], out.witnesses[0]

    out.values[0] = float(np.nextafter(good_value, np.inf))
    assert sum(not ok for _, ok, _ in wl.check(out)) == 1

    out.values[0] = good_value
    moved = good_witness.coeffs.copy()
    moved[0, 0] += 1e-12
    out.witnesses[0] = pshenv.AnalyticDisc(moved)
    failed = [op for op in wl.check(out) if not op[1]]
    assert len(failed) == 1 and "centre" in failed[0][2]


def test_window_escape_counts_as_failure():
    u = pshenv.parse_field(workloads.OBSTACLE)
    q = pshenv.QuadratureSpec(M=64)
    window = pshenv.DomainConstraint(np.zeros(1, complex), np.ones(1))
    inside = pshenv.AnalyticDisc(np.array([[0.5], [0.4]], complex))
    outside = pshenv.AnalyticDisc(np.array([[0.5], [0.6]], complex))
    for disc, n_bad in ((inside, 0), (outside, 1)):
        v = pshenv.poisson_functional(u, disc, q)
        assert len(workloads.witness_problems(u, q, [0.5], v, disc,
                                              window)) == n_bad


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_arithmetic_on_nested_spans():
    clock = _FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.t += 1.0

    hot = tr.wrap("disc.leaf", leaf)

    def mid():
        clock.t += 2.0
        hot()
        hot()
        clock.t += 0.5

    coarse = tr.wrap("envelope.mid", mid, coarse=True)
    with tr.span("bench.pass"):
        clock.t += 0.25
        coarse()
        hot()
        clock.t += 0.125

    spans = {s["name"]: s for s in tr.spans}
    root, inner = spans["bench.pass"], spans["envelope.mid"]
    assert root["end"] - root["start"] == 5.875
    assert root["self"] == 0.375
    assert inner["end"] - inner["start"] == 4.5
    assert inner["self"] == 2.5
    assert inner["parent"] == root["id"] and root["parent"] is None
    assert tr.agg[("disc.leaf", "envelope.mid")] == [2, 2.0, 2.0]
    assert tr.agg[("disc.leaf", "bench.pass")] == [1, 1.0, 1.0]
    assert tr.self_by_layer() == {"bench": 0.375, "envelope": 2.5,
                                  "disc": 3.0}
    assert tr.calls("disc.leaf") == (3, 3.0)
    assert tr.calls("disc.leaf", within=("envelope.mid",)) == (2, 2.0)


def test_exception_inside_a_span_keeps_the_books():
    clock = _FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.t += 1.0
        raise ValueError("boom")

    wrapped = tr.wrap("envelope.boom", boom, coarse=True)
    with tr.span("bench.pass"):
        with pytest.raises(ValueError):
            wrapped()
        clock.t += 1.0
    spans = {s["name"]: s for s in tr.spans}
    assert spans["envelope.boom"]["self"] == 1.0
    assert spans["bench.pass"]["self"] == 1.0


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(bench_run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(
        bench_run.WORKLOAD_NAMES)
    assert sorted((m["name"], m["unit"]) for m in spec["end_to_end"]) == \
        sorted(bench_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
