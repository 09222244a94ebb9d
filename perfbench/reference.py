"""Reference loops that measure how fast the host runs at the moment.

A shared host's speed drifts by up to 3x over minutes, and a drift lasts
longer than a run.  So each workload times fixed loops of the same kinds of
work as its own, interleaved with that work and outside its timed part,
and scales its wall times by how much slower than nominal the loops ran.
Interpreter work and BLAS work slow down independently of each other, so a
workload that does both weights the two loops by its own mix.  The loops
use numpy only, never softcap, so no change to the program moves them.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np


def python_loop() -> float:
    """Interpreter work on 3-vectors, like the simulator."""
    a = np.arange(3.0)
    s = 0.0
    for i in range(600):
        s += float(np.linalg.norm(np.cross(a, a + i)))
    x = 0
    for i in range(12000):
        x += i * i
    return s + x


def blas_loop(a: np.ndarray, b: np.ndarray) -> float:
    """Dense products of the shapes of a 256-wide layer at a large batch,
    like a batch-1024 SAC update."""
    s = 0.0
    for _ in range(10):
        c = a @ b
        s += float((c.T @ a)[0, 0])
    return s


# Median seconds of one call of each loop on the reference sandbox (2 vCPUs,
# Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31 with 2 threads) in a
# quiet period.  Scaled times read as times on that host at that speed.
NOMINAL_S = {"python": 0.0230, "blas": 0.0200}


class HostSpeed:
    """Samples of the reference loops, taken through a run, for work that is
    ``python_weight`` interpreter work and the rest BLAS.  A loop with no
    weight is not run: a workload that never calls BLAS then starts no BLAS
    threads, whose buffers would add to its peak memory."""

    def __init__(self, python_weight: float):
        self.weights = {"python": python_weight, "blas": 1.0 - python_weight}
        self.samples = {kind: [] for kind, w in self.weights.items() if w > 0.0}

    def sample(self) -> None:
        if "python" in self.samples:
            t0 = time.perf_counter()
            python_loop()
            self.samples["python"].append(time.perf_counter() - t0)
        if "blas" in self.samples:
            rng = np.random.default_rng(0)
            a, b = rng.normal(size=(512, 256)), rng.normal(size=(256, 256))
            t0 = time.perf_counter()
            blas_loop(a, b)
            self.samples["blas"].append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """How many times slower than nominal the host ran."""
        return sum(self.weights[kind] * median(s) / NOMINAL_S[kind]
                   for kind, s in self.samples.items())
