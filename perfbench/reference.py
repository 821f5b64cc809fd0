"""A fixed reference computation that measures the host's current speed.

The reference machine's CPU speed changes level by about 1.5x in phases of
tens of seconds to minutes: an export job reads 1.8-2.0 s in a fast phase
and 2.6-3.3 s in a slow one, and a 58 s run can fall wholly in either.  No
statistic over one run's export jobs removes that, so the benchmark times a
reference computation of the same kind of work between those jobs and
set-ups and reports them scaled to the reference speed: measured time x
ref_s / reference time nearby.  The computation does not touch gradtopo,
so a change to the program moves the scaled times by exactly as much as
the raw ones.

The cantilever jobs are not scaled: a 12 s job spans several of the
host's shorter phases, and it did not follow a reference taken next to it.
In five runs, blocks of a factorization with the sparsity and size of the
optimizer's elastic system read 72-92 ms while the median cantilever job
stayed within 11.6-12.1 s, so scaling would add the reference's noise.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Repetitions per block; a block's time is their median.
BLOCK = 10


def interpreted_mix():
    """The export layer's kind of work, in about equal time: interpreted
    Python over a list of float tuples, and a small SuperLU factorization.
    Between the host's phases the export job slowed about as much as this
    mix; purely interpreted code, without the factorization, slowed more
    (x1.6 where the export job slowed x1.25)."""
    t = np.linspace(0.0, 2.0 * math.pi, 1500, endpoint=False)
    r = 40.0 + 3.0 * np.sin(7.0 * t)
    loop = [(float(x), float(y)) for x, y in zip(100.0 + r * np.cos(t), 50.0 + r * np.sin(t))]
    n = len(loop)
    d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(64, 64), dtype=float)
    eye = sp.identity(64, dtype=float)
    laplacian = (sp.kron(d, eye) + sp.kron(eye, d)).tocsc()

    def compute() -> float:
        total = 0.0
        for _ in range(12):
            for i in range(n):
                ax, ay = loop[i - 1]
                bx, by = loop[i]
                cx, cy = loop[(i + 1) % n]
                total += ax * by - bx * ay + (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        return total + splu(laplacian, permc_spec="COLAMD").nnz
    return compute


class Reference:
    """A reference computation, its typical block time `ref_s` on the
    reference machine, and the blocks timed during a run."""

    def __init__(self, compute, ref_s: float):
        self.compute, self.ref_s = compute, ref_s
        self.blocks: list[float] = []    # block times, in run order
        compute()                          # warm caches and lazy imports

    def block(self) -> None:
        """Time and record one block."""
        times = []
        for _ in range(BLOCK):
            t0 = time.perf_counter()
            self.compute()
            times.append(time.perf_counter() - t0)
        self.blocks.append(statistics.median(times))

    def scale(self, index: int) -> float:
        """Factor from raw to scaled times for what ran between block
        `index` and the next one (the mean of the two, or block `index`
        alone when it is the last)."""
        return self.ref_s / statistics.fmean(self.blocks[index:index + 2])
