"""Machine-speed calibration: a fixed yardstick computation timed between operations.

On a shared machine the speed of a core drifts by tens of percent within
seconds and between minutes, as other tenants come and go.  The benchmark
times this yardstick before and after every operation (outside its latency)
and scales the latency by ``NOMINAL_S`` over the mean of those two times.  The
reported times are therefore those of a machine on which the yardstick takes
``NOMINAL_S``, about its time on an idle 2.1 GHz x86-64 core.  A change to
the library leaves the yardstick alone, so on a steady machine it moves the
scaled figures exactly as it moves the wall-clock ones.  The yardstick is the
geometric mean of the times of five components, one for each kind of work the
library does without numba: interpreter loops, small-array numpy calls, small
LAPACK solves, memory-bound array products and JSON rendering.
"""

import json
import math
import statistics
import time

import numpy as np

NOMINAL_S = 3.0e-4
# Yardstick samples per round of operations, and per set-up probe.
SAMPLES = 24


def _interpreter():
    total = 0.0
    for i in range(4000):
        total += i * 0.5


def _small_arrays():
    a = np.linspace(-1.0, 1.0, 32)
    for _ in range(60):
        a = np.where(np.abs(a) < 1e-300, 1.0, a) * 0.999 + 1e-3


def _lapack():
    t = 2.0 * np.eye(24) - np.eye(24, k=1) - np.eye(24, k=-1)
    for _ in range(10):
        np.linalg.eigvalsh(t)


def _memory():
    x = np.ones((8, 64, 64))
    return x @ x[0]


_PAYLOAD = [[0.1 * i + 1e-3 * j for j in range(15)] for i in range(15)]


def _serialize():
    return json.dumps(_PAYLOAD, indent=2)


COMPONENTS = (_interpreter, _small_arrays, _lapack, _memory, _serialize)


def yardstick_seconds(samples=1):
    """Median over ``samples`` of the geometric mean of the component times."""
    values = []
    for _ in range(samples):
        logs = []
        for component in COMPONENTS:
            t0 = time.perf_counter()
            component()
            logs.append(math.log(time.perf_counter() - t0))
        values.append(math.exp(sum(logs) / len(logs)))
    return statistics.median(values)
