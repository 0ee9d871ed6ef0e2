"""Fixed calibration work that tracks the speed of a shared vCPU.

On a shared host each vCPU changes speed with the load that other tenants put
on its physical core: a fixed piece of work alternates between levels about
1.4x apart, in stretches of seconds to minutes, and the two vCPUs of one guest
do so independently of each other. Process CPU time follows wall time, so no
time is stolen: the vCPU itself runs slower, and code with a large working
set slows down more than a tight loop does.

`Kernel.sample()` is about a millisecond of fixed work whose slowdown follows
the program's: Pearson correlations of 308-feature vectors drawn from a 5 MB
pool (the shape of the pairwise analysis), then lookups spread over a large
dict (the interpreter's own scattered memory traffic). Against the program's own
code on one vCPU, in 1 s bins over 90 s, the log of its time correlated at
0.96-0.99 with the log of the program's time for a pairwise correlation
batch, a training step and a module reload, with slopes of 0.95-1.23.

The kernel is written here, not imported from the program, so a change to
the program never changes the calibration.
"""

from __future__ import annotations

import numpy as np

# The benchmark reports times scaled to the vCPU speed at which one sample()
# takes this long. On a 2.1 GHz Xeon vCPU of a shared host a sample took
# 0.6-1.7 ms, so scaled times are of the order of the measured ones.
REF_SAMPLE_S = 1.0e-3

_POOL_ROWS, _FEATURES, _PAIRS = 2000, 308, 40
_TABLE_SIZE, _LOOKUP_STRIDE = 20000, 14


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).sum() / np.sqrt((xc * xc).sum() * (yc * yc).sum()))


class Kernel:
    """The data `sample()` works on, built once (about 30 ms)."""

    def __init__(self) -> None:
        self.pool = np.random.default_rng(0).standard_normal((_POOL_ROWS, _FEATURES))
        self.table = {i: (i, str(i)) for i in range(_TABLE_SIZE)}
        self.rhos: list[float] = []

    def sample(self) -> int:
        """One unit of fixed calibration work."""
        self.rhos.clear()
        for k in range(_PAIRS):
            i, j = (k * 997) % _POOL_ROWS, (k * 1237 + 5) % _POOL_ROWS
            self.rhos.append(_pearson(self.pool[i], self.pool[j]))
        total = 0
        for k in range(0, _TABLE_SIZE, _LOOKUP_STRIDE):
            total += self.table[(k * 31) % _TABLE_SIZE][0]
        return total
