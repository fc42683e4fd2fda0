"""A fixed reference workload that tells how fast the host runs right now.

The benchmark's machine is a share of a host whose speed changes by up to
2.5x, in states that last from seconds to minutes (README, "Steadiness on a
shared host").  Every timed interval is bracketed by short bursts of this
reference, and its time is scaled by ``NOMINAL_PASS_S`` over the reference's
pass time around it: a time "at nominal host speed", still in seconds.

The reference is benchmark code, not mixrank code, so a change to the
program never changes it.  It mixes the kinds of work the program does,
because the host slows different kinds of work by different amounts:
interpreter loops, a gather from a table larger than the caches, a sort and
rank of a long vector, and counter-based normal draws ranked row by row.
"""

import time

import numpy as np

clock = time.perf_counter

# Seconds per pass on the baseline machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6).  It sets the scale of the reported times, nothing else.
NOMINAL_PASS_S = 0.020


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20131122)
        self.table = rng.standard_normal(1 << 20)  # 8 MiB
        self.index = rng.integers(0, self.table.size, 1 << 18)
        self.vector = rng.standard_normal(1 << 18)
        self.one_pass()

    def one_pass(self):
        acc, seen = 0.0, {}
        for i in range(40_000):
            acc += i * 0.5
            seen[i & 1023] = acc
        self.table[self.index].sum()
        np.argsort(np.sort(self.vector))
        draws = np.random.Generator(np.random.Philox(7)).standard_normal((2048, 64))
        np.argsort(np.abs(draws), axis=1)

    def pass_seconds(self, budget_s):
        """Run whole passes for at least ``budget_s``; return the mean seconds per pass."""
        passes = 0
        start = clock()
        while True:
            self.one_pass()
            passes += 1
            elapsed = clock() - start
            if elapsed >= budget_s:
                return elapsed / passes


def scale(before_s, after_s):
    """Factor that takes a time measured between two reference bursts to nominal host speed."""
    return NOMINAL_PASS_S / ((before_s + after_s) / 2.0)
