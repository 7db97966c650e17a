#!/usr/bin/env python3
"""Benchmark of pshenv's disc-envelope search.

    python3 bench/run.py --workload psh_grid --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 26 --trace 0

Runs from the root of a source checkout and imports pshenv from its ``src``
directory, nothing installed.  One workload (or ``all`` of them, one after
the other in this process) runs as a closed loop with one caller and
threads=1: the same pass of calls is repeated until the next pass would
overrun ``--seconds`` (but at least three times), and every result of every
pass is checked.  Each call of a pass (a step) is timed on its own.

``--trace 0`` prints the end-to-end metrics (pass wall time, set-up time,
quality, memory); ``--trace 1`` spends half the time untraced and half traced
and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  See
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# BLAS reads its thread count when numpy is first loaded, and reference loads
# numpy, so the variables are set before it is imported.
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

# layers and workloads import pshenv, so they are imported only after
# _import_program has put this checkout's src first on the path.

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
# Passes a --trace 0 run makes even when they overrun --seconds, so that the
# median of a workload with long passes can still drop one slow pass.
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60
# Runs of the reference kernel before the first timed one, so that none of
# them pays for first-call costs.
WARM_KERNEL_RUNS = 3
# Kernel runs a set-up child times after its ready stamp.
SETUP_KERNEL_RUNS = 4
WORKLOAD_NAMES = ("psh_grid", "obstacle_cli", "hull_cert", "liouville")
# (name, unit) of the end-to-end metrics a --trace 0 run reports.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("value_mean_exp", "1"),
              ("peak_rss_mb", "MB"))

# One pass: its wall time (the sum of its steps'), what it produced, its
# tracer (or None), the wall time of each step by label, and the reference
# kernel times taken between its steps (or None).
Pass = namedtuple("Pass", "wall outcome tracer steps kernel")


def _import_program():
    """Import pshenv from this checkout's src, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "pshenv", "__init__.py")):
        print(f"error: no pshenv sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import pshenv

    where = os.path.realpath(pshenv.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: pshenv imported from {where}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _git_commit():
    """Commit of the checkout read from .git, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def run_record(seed):
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "threads": 1,
    }


def _workdir(name, seed):
    path = os.path.join(WORKDIR, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def measure_setup(name, seed):
    """Median set-up time over fresh processes, rescaled, and the samples.

    Each child imports pshenv and builds the workload's inputs, then takes
    the system-wide monotonic clock; CLOCK_MONOTONIC is shared by all
    processes, so the difference to the parent's spawn stamp is the time
    from process start to the first timed call.  After its stamp the child
    times the reference kernel, which rescales its set-up time.  Returns
    (median rescaled s, median measured s, [(measured, rescaled), ...]).
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        measured = child["ready"] - t0
        samples.append((measured,
                        reference.rescale(measured, child["kernel"])))
    return (statistics.median(r for _, r in samples),
            statistics.median(m for m, _ in samples), samples)


def _setup_only(name, seed):
    from workloads import WORKLOADS

    path = _workdir(name, seed)
    WORKLOADS[name](seed, path)
    ready = time.monotonic()
    shutil.rmtree(path, ignore_errors=True)
    for _ in range(WARM_KERNEL_RUNS):
        reference.kernel()
    print(json.dumps({"ready": ready,
                      "kernel": reference.sample(SETUP_KERNEL_RUNS)}))


def _passes(wl, seconds, traced, min_passes=1):
    """Repeat the workload's pass until the next one would overrun seconds.

    Returns a list of Pass, at least min_passes of them.  Untraced passes
    time the reference kernel before every step and after the last one;
    traced passes do not, so that the kernel stays out of the trace.
    """
    import layers

    out = []
    start = time.perf_counter()
    while True:
        wl.prepare()
        tr = None
        if traced:
            tr = Tracer()
            tr.install(layers.targets())
        steps = {}
        kernel = None if traced else []

        def timer(label, step):
            if kernel is not None:
                kernel.extend(reference.sample())
            t0 = time.perf_counter()
            step()
            steps[label] = time.perf_counter() - t0

        t_pass = time.perf_counter()
        try:
            if tr is None:
                res = wl.run(timer)
            else:
                with tr.span("bench.pass"):
                    res = wl.run(timer)
        finally:
            if tr is not None:
                tr.uninstall()
        if kernel is not None:
            kernel.extend(reference.sample())
        t_pass = time.perf_counter() - t_pass
        wl.collect(res)
        out.append(Pass(sum(steps.values()), res, tr, steps, kernel))
        if (len(out) >= min_passes
                and time.perf_counter() - start + t_pass > seconds):
            return out


def _checks(wl, passes):
    """All check operations over all passes, plus pass-to-pass identity."""
    ops = []
    first = passes[0].outcome.digest()
    for i, p in enumerate(passes):
        ops += [(f"pass {i}: {op}", ok, detail)
                for op, ok, detail in wl.check(p.outcome)]
        if i:
            d = p.outcome.digest()
            ops.append((f"pass {i}: digest equals pass 0", d == first, d))
    return ops, first


def run_workload(name, seed, seconds, trace):
    """Run one workload; print its report; return its result object."""
    from workloads import WORKLOADS

    setup = None if trace else measure_setup(name, seed)
    path = _workdir(name, seed)
    try:
        wl = WORKLOADS[name](seed, path)
        if trace:
            plain = _passes(wl, seconds / 2.0, traced=False)
            passes = _passes(wl, seconds / 2.0, traced=True)
        else:
            plain = passes = _passes(wl, seconds, traced=False,
                                     min_passes=MIN_PASSES)
        ops, digest = _checks(wl, plain + passes if trace else passes)
        metrics = {}
        walls = [p.wall for p in plain]
        wall_raw = statistics.median(walls)
        print(f"# record {json.dumps(run_record(seed), sort_keys=True)}")
        print(f"# {name} digest {digest}")
        print(f"# {name} pass walls " + " ".join(f"{w:.4f}" for w in walls))
        if trace:
            ops += _trace_report(name, seed, passes, wall_raw, metrics)
        else:
            wall = statistics.median(
                reference.rescale(p.wall, p.kernel) for p in plain)
            for label in plain[0].steps:
                t = statistics.median(
                    reference.rescale(p.steps[label], p.kernel)
                    for p in plain)
                print(f"# {name} step {label}: {t:.4f} s rescaled")
            values = passes[0].outcome.values
            value_mean = statistics.fmean(values)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            measured = {
                "setup_s": setup[0],
                "wall_s": wall,
                "value_mean_exp": math.exp(value_mean),
                "peak_rss_mb": rss * 1024 / 1e6,
            }
            for key, unit in END_TO_END:
                metrics[key] = (measured[key], unit)
            print(f"# {name} setup samples (measured/rescaled) "
                  + " ".join(f"{m:.4f}/{r:.4f}" for m, r in setup[2]))
            print(f"{name} wall_measured_s {wall_raw:.6g} s (median of "
                  f"{len(walls)} passes, not rescaled)")
            print(f"{name} setup_measured_s {setup[1]:.6g} s (median of "
                  f"{len(setup[2])} set-ups, not rescaled)")
            print(f"{name} value_mean {value_mean:.17g} "
                  f"(mean over {len(values)} queries; lower is better)")
        failed = [o for o in ops if not o[1]]
        for op, _, detail in failed:
            print(f"# FAILED {name} {op}: {detail}")
        for key, (value, unit) in metrics.items():
            extra = ""
            if key == "wall_s":
                extra = f" (median of {len(plain)} passes, rescaled)"
            elif key == "setup_s":
                extra = f" (median of {len(setup[2])} set-ups, rescaled)"
            print(f"{name} {key} {value:.6g} {unit}{extra}")
        print(f"{name} failed_frac {len(failed) / len(ops):.6g} "
              f"({len(failed)} of {len(ops)} operations)")
        return {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _trace_report(name, seed, passes, plain_wall, metrics):
    """Fill metrics with per-layer means over the traced passes.

    Returns the check that the layers' self times and the benchmark's own
    self time add up to each traced pass's wall time.
    """
    import layers

    per_pass = []
    ops = []
    for p in passes:
        root = [s for s in p.tracer.spans if s["name"] == "bench.pass"][0]
        span_wall = root["end"] - root["start"]
        m = layers.metrics(p.tracer, span_wall,
                           p.outcome.extra.get("bytes_written", 0))
        total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
        ok = abs(total - span_wall) <= 1e-9 * max(1.0, span_wall)
        ops.append(("layer self times add up to the traced wall time", ok,
                    f"{total!r} vs {span_wall!r}"))
        per_pass.append(m)
    traced = statistics.median(p.wall for p in passes)
    for m in per_pass:
        m["trace.overhead_frac"] = (traced - plain_wall) / plain_wall
    for key, unit, _ in layers.PER_LAYER:
        metrics[key] = (statistics.fmean(m[key] for m in per_pass), unit)
    os.makedirs(WORKDIR, exist_ok=True)
    passes[-1].tracer.dump(os.path.join(WORKDIR, f"trace-{name}-{seed}.json"),
                       extra={"workload": name, "seed": seed})
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    _import_program()
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for _ in range(WARM_KERNEL_RUNS):
        reference.kernel()
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
