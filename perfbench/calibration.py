"""Host-speed calibration for the benchmark's timings.

The benchmark host's shared cores drift in speed by 20-30 % over tens of
seconds, so raw set-up and run times spread by about 20 % between runs
whatever the statistic. Two fixed kernels, each made of the same kinds of
work as one of svdflow's hot paths, slow down with the host in step:

  integrator  2x2 generators built from scalars, one RK2 step each, as in
              seeding and the reference integration (set-up)
  emulator    per-task RNGs, gates on small state tensors, 8x8 solves and
              multinomial draws, as in the factor-flow step (run)

`Clock.time(kind, fn)` runs that kind's kernel before and after `fn` and
returns fn's result and raw seconds. `Clock.scale(kind)` is REFERENCE_S[kind]
over the median of those kernel times: a median of raw times multiplied by
it is in seconds at the host speed where the kernel takes REFERENCE_S. One
kernel time jitters by tens of percent, so one scale per kind and run is
used, not one per sample. The kernels are fixed here, outside svdflow, so no
change to svdflow can move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel times defining the reference host speed: about each kernel's
# fastest time on the 2-vCPU Xeon host the benchmark was tuned on.
REFERENCE_S = {"integrator": 0.008, "emulator": 0.008}


class Clock:
    """Times calls and scales them to the reference host speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        self._skew = (m - m.T) / 2.0
        self._eye = np.eye(8)
        probs = np.abs(rng.standard_normal(16))
        self._probs = probs / probs.sum()
        self.kernel_s = {kind: [] for kind in REFERENCE_S}

    def _integrator(self) -> float:
        w = np.array([1.0, 0.0])
        for i in range(1700):
            k = 1.5e-4 + 8.5 * np.exp(-i * 1e-4 / 0.012)
            a = np.array([[-k, 0.5 * k], [k, -0.5 * k]])
            w = w + 1e-4 * (a @ (w + 5e-5 * (a @ w)))
        return float(w[0])

    def _emulator(self) -> float:
        v = np.full(16, 0.25, dtype=complex)
        for i in range(130):
            rng = np.random.default_rng([1234, i, 0])
            c = np.linalg.solve(self._eye - 0.01 * self._skew,
                                self._eye + 0.01 * self._skew)
            t = np.moveaxis(v.reshape(2, 2, 2, 2), [0, 1], [2, 3]).reshape(-1)
            v = (np.kron(c[:2, :2], np.eye(8)) @ t).astype(complex)
            v /= np.linalg.norm(v)
            rng.multinomial(1000, self._probs)
        return float(abs(v[0]))

    def kernel(self, kind: str) -> None:
        kernel = self._integrator if kind == "integrator" else self._emulator
        start = time.perf_counter()
        kernel()
        self.kernel_s[kind].append(time.perf_counter() - start)

    def time(self, kind: str, fn, *args):
        """(fn(*args), seconds it took), with the kind's kernel on either side."""
        self.kernel(kind)
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        self.kernel(kind)
        return out, elapsed

    def scale(self, kind: str) -> float:
        return REFERENCE_S[kind] / statistics.median(self.kernel_s[kind])
