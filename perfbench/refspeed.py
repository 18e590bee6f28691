"""Times sections of work in reference seconds.

A shared VM's speed is not constant: over seconds to minutes it swings
between phases up to 1.5-2x apart, with CPU time equal to wall time, so the
swings are in per-instruction speed rather than in lost time slices.  They
slow BLAS-bound and interpreter-bound code by different factors (about 1.45x
and 1.95x between the phases seen).  A `Clock` times a fixed two-part probe
right before and right after each section: `probe` returns the time of a
BLAS-bound part and of an interpreter-bound part.  A section's slowdown is
the mean of the two probes' parts, each over its nominal time, weighted by
the section's share of interpreter-bound work; its reference time is its
wall time over that slowdown.  Only the probe, which is benchmark code and
the same on every commit, sets the scale; the sections are the program's
work, so a change to the program moves the scaled time as much as the wall
time.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median times of the probe's BLAS-bound and interpreter-bound parts on a
# 2-vCPU VM (numpy 2.4.6, OpenBLAS 0.3.31, 1 thread); any fixed values would
# do, these keep reference seconds near wall seconds
REF_NOMINAL_S = (0.0125, 0.0062)
PROBE_REPS = 3
WARMUP_PROBES = 3
PROBE_REUSE_S = 0.05  # a probe this recent opens the next lap
_ROWS, _BIG_ROWS, _IN, _HIDDEN, _LAYERS, _PASSES = 256, 2000, 130, 128, 3, 2
_STREAMS = 300

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((_ROWS, _IN)) / np.sqrt(_IN)
_X_BIG = _rng.standard_normal((_BIG_ROWS, _IN)) / np.sqrt(_IN)
_WEIGHTS = [_rng.standard_normal((_IN if i == 0 else _HIDDEN, _HIDDEN))
            / np.sqrt(_HIDDEN) for i in range(_LAYERS)]
# every array the kernel writes is allocated here, once, so that its time
# does not depend on the state the program leaves the allocator in
_H = [np.empty((_ROWS, _HIDDEN)) for _ in range(_LAYERS)]
_H_BIG = [np.empty((_BIG_ROWS, _HIDDEN)) for _ in range(_LAYERS)]
_D = np.empty((_ROWS, _HIDDEN))
_G = [np.empty(w.shape) for w in _WEIGHTS]


def _blas_part() -> float:
    """MLP passes at the program's training shape (batch 256, width 128,
    tanh, a weight-gradient product per layer), then one forward pass at
    2000 rows, like its generation batches, whose arrays outgrow the
    caches."""
    start = time.perf_counter()
    for _ in range(_PASSES):
        h = _X
        for w, a, g in zip(_WEIGHTS, _H, _G):
            np.tanh(np.matmul(h, w, out=a), out=a)
            np.multiply(a, a, out=_D)
            np.subtract(1.0, _D, out=_D)
            np.multiply(_D, a, out=_D)
            np.matmul(h.T, _D, out=g)
            h = a
    h = _X_BIG
    for w, a in zip(_WEIGHTS, _H_BIG):
        np.tanh(np.matmul(h, w, out=a), out=a)
        h = a
    return time.perf_counter() - start


def _interpreter_part() -> float:
    """Seeding and drawing from small numpy generators, like the program's
    per-sample random streams."""
    start = time.perf_counter()
    for i in range(_STREAMS):
        np.random.default_rng(np.random.SeedSequence([i, 1])).random(2)
    return time.perf_counter() - start


def probe() -> tuple[float, float]:
    """Median seconds of PROBE_REPS runs of each part: (BLAS-bound,
    interpreter-bound)."""
    return (statistics.median(_blas_part() for _ in range(PROBE_REPS)),
            statistics.median(_interpreter_part()
                              for _ in range(PROBE_REPS)))


class Clock:
    """Laps in wall seconds and in reference seconds.

    ``start()`` probes and starts a lap; each ``lap()`` ends the current lap,
    probes, and starts the next, so consecutive laps share their probe.
    A ``start()`` right after a ``lap()`` reuses that lap's closing probe.
    """

    def __init__(self):
        self._probe = (0.0, 0.0)
        self._t = -math.inf
        self.probes: list[tuple[float, float]] = []  # every probe taken
        for _ in range(WARMUP_PROBES):  # first calls run slow
            probe()

    def start(self) -> None:
        if time.perf_counter() - self._t > PROBE_REUSE_S:
            self._probe = probe()
            self.probes.append(self._probe)
        self._t = time.perf_counter()

    def lap(self, interpreter_share: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the lap just ended, whose
        work is `interpreter_share` interpreter-bound."""
        wall = time.perf_counter() - self._t
        after = probe()
        self.probes.append(after)
        weights = (1.0 - interpreter_share, interpreter_share)
        slowdown = sum(w * 0.5 * (b + a) / nominal for w, b, a, nominal
                       in zip(weights, self._probe, after, REF_NOMINAL_S))
        ref = wall / slowdown
        self._probe = after
        self._t = time.perf_counter()
        return wall, ref
