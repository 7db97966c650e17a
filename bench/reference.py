"""Reference kernel that puts the benchmark's times on one machine speed.

A shared virtual machine runs the same code up to twice as slow, in stretches
from a fraction of a second to minutes, so a wall time alone moves from run
to run even though the work is the same.  The kernel below does a fixed amount
of the kind of work pshenv's search does (a small complex matmul onto boundary
nodes, reductions over them and a short interpreted loop) and never calls
pshenv.  Timed between the steps of a pass, it measures how fast the machine
ran during the pass; the pass's time is then rescaled to the speed at which
the kernel takes ``REF_S`` seconds:

    rescaled = measured * REF_S / (mean kernel time during the pass)

A change to pshenv moves ``measured`` and leaves the kernel alone, so the
rescaled time moves by the same share as the measured one.
"""

from __future__ import annotations

import time

import numpy as np

# A kernel time close to the usual one on the baseline machine
# (bench/README.md); rescaled times are seconds at the speed it stands for.
REF_S = 0.0125

_ROWS, _NODES, _REPEATS = 9, 512, 400
_rng = np.random.default_rng(0)
_COEFFS = _rng.standard_normal((_ROWS, 2)) + 1j * _rng.standard_normal(
    (_ROWS, 2))
_POWERS = np.exp(1j * np.outer(np.arange(_ROWS),
                               np.linspace(0.0, 2.0 * np.pi, _NODES)))


def kernel() -> float:
    """The fixed work; returns a number so that nothing is skipped."""
    s = 0.0
    for _ in range(_REPEATS):
        b = _COEFFS.T @ _POWERS
        s += float(np.mean(np.abs(b[0]) ** 2 + np.abs(b[1]) ** 2))
        s += sum(k * 0.5 for k in range(20))
    return s


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def sample(n: int = 2) -> list:
    """Wall times of n runs of the kernel, back to back."""
    return [kernel_s() for _ in range(n)]


def rescale(measured: float, samples) -> float:
    """measured, in seconds at the speed where the kernel takes REF_S."""
    return measured * REF_S * len(samples) / sum(samples)
