"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds as neighbours load the host, and interpreter,
NumPy and SQLite work all slow down together. A fixed calibration kernel
timed right before and after each measurement tracks that drift, and the
benchmark scales each timing to a machine on which the kernel takes
REFERENCE_S. A change to acsql does not touch the kernel, so the scaled
numbers move only when acsql's own speed does.
"""

import sqlite3
import time

import numpy as np

REFERENCE_S = 0.030


class Calibrator:
    def __init__(self):
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (a, b)")
        self._db.executemany("INSERT INTO t VALUES (?, ?)", [(i, i * 0.5) for i in range(20_000)])

    def close(self) -> None:
        self._db.close()

    def kernel_s(self) -> float:
        """Seconds for a fixed mix of interpreter, NumPy and SQLite work.

        The arrays stay small so that the kernel never sets the process's
        peak RSS.
        """
        rng = np.random.Generator(np.random.PCG64(0))
        start = time.perf_counter()
        x = 0
        for j in range(100_000):
            x += j * j % 7
        for _ in range(20):
            (rng.random((5_000, 39)) < 0.5).any(axis=1).mean()
        self._db.execute("SELECT a, b FROM t WHERE a % 3 = 0 ORDER BY b DESC").fetchall()
        return time.perf_counter() - start

    def scale(self, measure):
        """Run measure(); return (its result, slowdown).

        The slowdown is the mean kernel time just before and just after
        the measurement over REFERENCE_S: divide a time by it, or multiply
        a rate by it, to get the value at reference speed.
        """
        before = self.kernel_s()
        result = measure()
        return result, (before + self.kernel_s()) / (2 * REFERENCE_S)


def busy_slowdown(slowdown: float, busy: float) -> float:
    """Slowdown of a measurement that computed for `busy` of its wall time.

    Only the computing share runs at machine speed; waiting on another
    process (the stub endpoint) does not.
    """
    return 1 / (1 - busy + busy / slowdown)
