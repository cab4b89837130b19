"""A fixed job that measures how fast the shared machine runs right now.

On a shared virtual machine the speed drifts with the other tenants: on a
2-vCPU Intel Xeon VM the same pass ran up to 1.6x slower for minutes at a
time, in process CPU time as much as in wall time.  ``probe()`` times a
job that never touches scucnr and does the same kinds of work a pass does
(HiGHS LPs through scipy, numpy and interpreted Python).  The benchmark
runs it before and after each timed operation and scales the operation's
time by ``REF_S`` over the probe's time, which gives the operation's time
on a machine running at the reference speed.  A change to scucnr moves the
scaled time as much as the raw time; a change in the machine's speed moves
both the operation and the probe, and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# The probe's time on a 2-vCPU Intel Xeon VM in a quiet phase.
REF_S = 0.028

_rng = np.random.default_rng(0)
_A = _rng.random((30, 40))
_B = _A.sum(axis=1)
_C = _rng.random(40)


def _job() -> float:
    """Seconds of eight small LPs and an interpreted loop."""
    t0 = time.perf_counter()
    for _ in range(8):
        linprog(_C, A_ub=-_A, b_ub=-_B, bounds=(0, 3), method="highs")
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def probe() -> float:
    """Median of three runs of the job: one run is too short a sample of a
    machine whose speed also flickers within a second."""
    return statistics.median(_job() for _ in range(3))


def settled_probe() -> float:
    """A probe after one untimed run of the job, for a fresh interpreter
    whose first LP still pays one-time costs."""
    _job()
    return probe()
