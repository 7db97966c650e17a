"""Call tracer that times pshenv's public functions from outside the package.

The benchmark never edits the program: it replaces names with timing wrappers
for the length of a traced pass and puts the originals back afterwards.
Modules import each other by name (``from .disc import boundary_from_coeffs``),
so a function is replaced in every pshenv module that holds it, not only in
the module that defines it; a method is replaced on its class.

Two kinds of call are recorded:

* coarse calls (a point search, a CLI run, an oracle solve) each get a span
  record: id, parent span id, name, start, end and self time;
* hot calls (field evaluations, boundary matmuls, feasibility tests) run
  millions of times, so only their count, total time and self time are kept,
  keyed by the name of the innermost enclosing coarse span.

The self time of a call is its duration minus the durations of the traced
calls made directly inside it.  Summed over a tree of calls, the self times
add up to the duration of the root, which is how the benchmark splits a
traced pass into layers.  Names are ``<layer>.<what>``; the layer is the
pshenv module the function lives in, or ``bench`` for the benchmark's own
code between calls.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Span and aggregate recorder; single-threaded, like the benchmark."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        # (name, enclosing coarse span name) -> [count, total_s, self_s]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])
        # counters filled by the hooks (flops by shape, bytes, points...)
        self.counts = defaultdict(float)
        # objects the hooks keep for reading after the pass (diagnostics)
        self.kept = defaultdict(list)
        self._stack = []  # one [child_s] cell per active call
        self._open = []  # (span id, name) of the active coarse spans
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name, coarse):
        cell = [0.0]
        if coarse:
            self._open.append((len(self.spans), name))
            self.spans.append(None)  # filled on exit, keeps ids in start order
        self._stack.append(cell)
        return cell

    def _exit(self, name, coarse, cell, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        own = dur - cell[0]
        if self._stack:
            self._stack[-1][0] += dur
        if coarse:
            sid, _ = self._open.pop()
            self.spans[sid] = {
                "id": sid,
                "parent": self._open[-1][0] if self._open else None,
                "name": name,
                "start": t0,
                "end": t1,
                "self": own,
            }
        else:
            a = self.agg[(name, self._open[-1][1] if self._open else None)]
            a[0] += 1
            a[1] += dur
            a[2] += own

    def wrap(self, name, fn, coarse=False, hook=None):
        """Timing wrapper around fn, recorded under name.

        hook(tracer, args, kwargs, result) runs after the call has been
        timed; its own cost lands in the caller's self time.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = self._enter(name, coarse)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, coarse, cell, t0, self.clock())
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Coarse span around a block of the benchmark's own code."""
        cell = self._enter(name, True)
        t0 = self.clock()
        try:
            yield
        finally:
            self._exit(name, True, cell, t0, self.clock())

    # -- installing wrappers -------------------------------------------------

    def install(self, targets):
        """Replace each target by its wrapper until ``uninstall``.

        A target is (owner, attribute, name, coarse, hook).  When owner is a
        class the attribute is replaced on it.  When owner is a module, the
        function it holds is replaced in every loaded pshenv module that
        refers to the same object.
        """
        for owner, attr, name, coarse, hook in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, coarse, hook)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    mod
                    for key, mod in sorted(sys.modules.items())
                    if (key == "pshenv" or key.startswith("pshenv."))
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- reading out ---------------------------------------------------------

    def self_by_layer(self):
        """Summed self time per layer over spans and aggregates."""
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"].split(".")[0]] += s["self"]
        for (name, _), (_, _, own) in self.agg.items():
            out[name.split(".")[0]] += own
        return dict(out)

    def calls(self, name, within=None):
        """(count, total_s) of a traced function, optionally only the calls
        whose innermost enclosing coarse span is named in ``within``."""
        n, tot = 0, 0.0
        for (key, enclosing), (count, total, _) in self.agg.items():
            if key == name and (within is None or enclosing in within):
                n += count
                tot += total
        for s in self.spans:
            if s["name"] == name and within is None:
                n += 1
                tot += s["end"] - s["start"]
        return n, tot

    def dump(self, path, extra=None):
        """Write spans, aggregates and counters as one JSON document."""
        doc = {
            "spans": self.spans,
            "aggregates": [
                {"name": k[0], "enclosing": k[1], "count": v[0],
                 "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.agg.items(), key=lambda kv: str(kv[0]))
            ],
            "counts": {str(k): v for k, v in self.counts.items()},
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
