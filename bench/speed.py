"""Machine-speed sampling for the timed end-to-end metrics.

The machine this benchmark was defined on is a 2-vCPU guest whose speed
drifts by up to 1.6x, in phases from under a second to minutes,
with no steal time to show for it (other tenants share the host's cores
and caches). A median over one run cannot remove a phase that covers the
run, and a calibration timed between passes misses the phases inside
them. So while a pass runs, `SpeedSampler` times a small fixed kernel
every INTERVAL_S of wall time (from a SIGALRM handler, between bytecodes
of the pass), and the pass time is rescaled to the kernel's reference
speed:

    normalised = (wall - time in the kernel) * REFERENCE_S / median kernel time

The kernel mixes what the workloads spend their time on (scalar-indexed
sweeps over a 3x3 block, a 50x50 gemv, a logistic value over 1000
samples, CSV-style float formatting, a 512 KiB array pass) and never
touches hbreset, so no change to the program can move it. No single mix
tracked every workload in every phase on the defining machine (log-log
correlation with pass times 0.5-0.9, differing by workload and by hour),
so it cannot cancel all of the drift, and the bounds stay wide.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# kernel time on the defining machine (Xeon vCPU, Python 3.11.7, numpy
# 2.4.6); only ratios matter, this constant keeps normalised times close
# to raw ones there
REFERENCE_S = 6e-4
INTERVAL_S = 0.03


class SpeedSampler:
    """Context manager: kernel times sampled while its body runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._q = 0.9 * np.eye(50) + 1e-3
        self._x0 = np.ones(50)
        self._feat = np.linspace(-2.0, 2.0, 20 * 1000).reshape(20, 1000)
        self._w = np.full(20, 0.1)
        self._src = np.ones(1 << 16)
        self._block = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
        self._dst = np.empty(1 << 16)
        self._running = False
        self._previous = None

    def kernel(self) -> int:
        # scalar-indexed sweeps over a 3x3 block, like the sdp engine's
        w, acc = self._block.copy(), 0.0
        for it in range(20):
            for p in range(2):
                for q in range(p + 1, 3):
                    theta = (w[q, q] - w[p, p]) / (2.0 * w[p, q])
                    t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    acc += float(w[:, p].copy()[0]) * t
            w = self._block + 1e-3 * it
        # gemv, logistic value, CSV-style formatting, an array pass
        x, rows = self._x0, []
        for k in range(5):
            g = self._q @ x
            acc += 0.5 * float(x @ g)
            x = x - 1e-3 * g
            acc += float(np.logaddexp(0.0, self._feat.T @ self._w).sum())
            for j in range(12):
                rows.append("%d,%.17g,%d,%.17g,%d,%.17g\n"
                            % (j, acc * j, k, g[j], j % 2, x[j]))
        np.multiply(self._src, 1.0001, out=self._dst)
        return len("".join(rows))

    def _time_kernel(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        if self._running:
            return
        self._running = True
        try:
            dt = self._time_kernel()
            self.samples.append(dt)
            self.busy_s += dt
        finally:
            self._running = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, wall_s: float) -> float:
        """wall_s, measured around the body in this process, less the
        kernel's own time, at the reference speed."""
        return (wall_s - self.busy_s) * self.speed_factor()

    def speed_factor(self) -> float:
        """Multiply a time measured during the body by this to get it at
        the reference speed."""
        # a body shorter than one interval has no samples: time one now
        samples = self.samples or [self._time_kernel()]
        return REFERENCE_S / statistics.median(samples)
