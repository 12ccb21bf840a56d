"""Reference loop for host-speed normalisation.

The shared host that the benchmark runs on changes speed by 20-35% in phases
of seconds to minutes, which is more than any change worth measuring.  So the
benchmark times a short fixed loop before, during and after every suite run,
and reports each run's time scaled by ``REF_NOMINAL_S`` over the mean loop
time measured with it: seconds on a host where the loop takes
``REF_NOMINAL_S``.  The loop uses no valgeo code, so a change to the program
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_NOMINAL_S = 0.002
# Each half of the loop takes about 1 ms on a 2-core x86-64 host.
REF_LOOP = 4_000        # interpreter and small-NumPy iterations
REF_BLOCKS = 6          # blocks of work on the 2048-point array
BRACKET_SAMPLES = 25    # loops timed before and after each suite run
SAMPLE_INTERVAL_S = 0.1  # one loop per interval while a suite runs (about 2%)

_VECS = np.arange(600.0).reshape(200, 3) / 200.0
_MAT = np.eye(4) + 0.01
_POINTS = np.linspace(-1.0, 1.0, 2048 * 3).reshape(2048, 3)
_VERTS = np.linspace(-1.0, 1.0, 12 * 3).reshape(12, 3)


def reference_sample() -> float:
    """Time the loop once.  It mixes what the suites spend their time on:
    interpreter arithmetic, small NumPy calls, and NumPy work on a
    2048-point array against a 12-vertex body, as in the hull-distance
    kernel.  Scaling by either part alone left one workload or another
    noisier (README.md, Steadiness)."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOP):
        acc += i * i % 7
    for i in range(REF_LOOP // 25):
        v = _VECS[i % 200]
        acc += float(np.dot(v, v)) + float(np.linalg.norm(_MAT @ _MAT[0]))
    for _ in range(REF_BLOCKS):
        nearest = np.argmin(_POINTS @ _VERTS.T, axis=1)
        r = _POINTS - _VERTS[nearest]
        acc += float(np.einsum("ij,ij->i", r, r).sum())
    return time.perf_counter() - start


def bracket() -> list[float]:
    return [reference_sample() for _ in range(BRACKET_SAMPLES)]


def scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` measured beside a mean loop time of ``ref_s``, scaled to
    the nominal host."""
    return seconds * REF_NOMINAL_S / ref_s


class RunningSampler:
    """Times the loop every ``SAMPLE_INTERVAL_S`` while code runs, from a
    SIGALRM handler in the main thread, so that long suite runs are scaled
    by the host speed over their whole length.  ``paused_s`` is the time the
    handler took, to be taken off the measured time."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_sample())
        self.paused_s += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.paused_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
