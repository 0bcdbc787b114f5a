"""Machine-speed calibration for the timing metrics.

The shared 2-cpu machine this benchmark was built on changes speed by up to
±25 % over minutes: ten consecutive circle runs gave raw `steps_per_s`
from 237 to 349. Running more trials per run does not remove that, so the
timing metrics are scaled to a reference speed. A fixed kernel, which never
calls manikf, is timed between set-up repetitions and between trials, at
most once a second. Each set-up repetition and each trial is scaled by
REFERENCE_S / (the latest kernel time), and the metrics are taken from the
scaled times. Pairing each time with a kernel sample taken just before it
also cancels the faster swings: on recorded pair trials, the spread of 20-s
medians was 0.096 raw, 0.069 as the ratio of medians and 0.044 as the
median of per-trial ratios.

The kernel mixes what a filter step is made of: a pure-Python loop, numpy
arithmetic on 3-vectors driven from Python, 23x23 products with Cholesky
solves, and the dense product d R d^T of a 200-point update (d 200x600,
R 600x600) that dominates a dense-scan step. Without the dense product the
kernel tracked dense-scan trials poorly: over 700 one-trajectory trials
timed next to the kernel's parts, the spread of 20-trial medians was 0.094
raw, 0.067 scaled by the other parts alone and 0.024 with the dense product
at its weight here; on circle the dense product left that spread at 0.075.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.linalg

# median kernel time on the development machine (Intel Xeon 2.1 GHz, Python 3.11)
REFERENCE_S = 0.106
INTERVAL_S = 1.0  # least time between two kernel samples
DENSE_PRODUCTS = 12

_rng = np.random.default_rng(0)
_D = _rng.standard_normal((200, 600))
_R = np.eye(600) + 0.001 * _rng.standard_normal((600, 600))


def kernel() -> float:
    s = 0
    for i in range(300_000):
        s += (i * i) % 7
    v = np.array([0.3, -0.2, 0.9])
    for _ in range(3000):
        m = np.array([[1.0, -v[2], v[1]], [v[2], 1.0, -v[0]], [-v[1], v[0], 1.0]])
        v = m @ v
        v = v / np.linalg.norm(v)
    rng = np.random.default_rng(0)
    a = 0.001 * rng.standard_normal((23, 23))
    f = np.eye(23) + a
    p = np.eye(23)
    for _ in range(600):
        p = f @ p @ f.T + 0.01 * np.eye(23)
        v = scipy.linalg.cho_solve(scipy.linalg.cho_factor(p), np.ones(23))
    for _ in range(DENSE_PRODUCTS):
        d = _D @ _R @ _D.T
    return s + float(v[0]) + float(d[0, 0])


class Calibrator:
    """Times the kernel at most once per INTERVAL_S of elapsed time."""

    def __init__(self):
        self.samples = []
        self._last = -float("inf")

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            t0 = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)

    def scale(self) -> float:
        """Factor that turns wall seconds into reference seconds, from the
        latest kernel sample."""
        return REFERENCE_S / self.samples[-1]
