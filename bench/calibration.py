"""Host-speed calibration: a fixed kernel, timed just before and just after each short op.

On a shared host the CPU's speed moves in phases of seconds to minutes.  On
the 2-vCPU VM this benchmark was tuned on, a fixed pure-Python loop took
0.30 ms in one phase and 0.47 ms in the next.  Phases last about as long as a
run, so the median of millisecond ops mostly reports which phase the run fell
in.  Over eight 30 s runs of `apply_dual` the median op time spread 0.22
(IQR/median); divided op by op by a pure-Python loop timed beside it, it
spread 0.07.  Over eight further runs, the kernel below took a raw spread of
0.06 down to 0.02.

The kernel does the same kinds of work as the program (a Python loop, small
sparse matvecs through gathered indices, and one pass over a vector of
roughly the derived-space length), on fixed inputs that do not depend on the
seed and use no edvs code.  Dividing each op's wall time by the kernel time
measured around it and multiplying by `REFERENCE_S` gives that op's time at
the reference speed.  Ops that take seconds span several phases, which two
samples at their ends do not capture, so the solver workloads are not
calibrated.
"""
from __future__ import annotations

import statistics

import numpy as np
import scipy.sparse as sp

# Median kernel seconds on the 2-vCPU VM (Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1) in its fast phase; only the scale of the normalised times.
REFERENCE_S = 6.6e-4
PASSES = 3  # a sample is the median of this many kernel passes


class Calibration:
    def __init__(self, clock):
        self.clock = clock
        rng = np.random.default_rng(12345)
        m = 32
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        self.laplacian = (sp.kron(line, sp.eye(m)) + sp.kron(sp.eye(m), line)).tocsr()
        self.small = rng.standard_normal(4 * m * m)
        self.gather = rng.permutation(4 * m * m)[: m * m]
        self.big = rng.standard_normal(70_000)
        self.perm = rng.permutation(70_000)
        self.samples = []

    def _kernel(self):
        s = 0
        for k in range(2000):
            s += k * k
        acc = 0.0
        for _ in range(12):
            acc += float((self.laplacian @ self.small[self.gather]).sum())
        y = self.big[self.perm]
        y += self.big
        return s, acc, float(y @ self.big)

    def sample(self) -> float:
        """Seconds of one kernel pass: the median of PASSES passes."""
        times = []
        for _ in range(PASSES):
            t0 = self.clock()
            self._kernel()
            times.append(self.clock() - t0)
        seconds = statistics.median(times)
        self.samples.append(seconds)
        return seconds

    def normalise(self, wall_s, before_s, after_s) -> float:
        """An op's wall seconds scaled to the reference speed by the kernel around it."""
        return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
