"""Machine-speed reference that the op latencies and rates are scaled by.

On the machine this benchmark was tuned on, a 2-vCPU VM on a shared Xeon
host, the same pure-Python code ran up to 1.5 times faster or slower for
minutes at a time, depending on the host's other tenants.  Ten 40 s runs
of one workload then spread by 40 % between their quartiles, and no
amount of work in a run evens that out.  So an untraced run also times a
fixed pure-Python loop every EVERY_S seconds, between its own operations.
run.py multiplies the op latencies by NOMINAL_S / (median loop time), and
divides the op rates by it.  The result reads as if the machine ran at
the speed where the loop takes NOMINAL_S.  Both commits of a comparison
are scaled the same way, and the unscaled values are printed beside the
scaled ones.  The loop does what soslab's kernels do most: it builds
small tuples, filters lists and compares integers.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.02
EVERY_S = 0.5
_ROUNDS = 1600


def _sign(p: int, q: int) -> int:
    t = p * p - 2 * q * q
    return (t > 0) - (t < 0)


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = perf_counter()
    kept = 0
    for r in range(_ROUNDS):
        cands = [(i, r - i, i * r % 11) for i in range(24)]
        kept += len([c for c in cands if _sign(c[0] - c[2], c[1]) >= 0])
    return perf_counter() - start


class SpeedProbe:
    """Times the reference loop whenever EVERY_S has passed since the last time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> float:
        """Probe if due; returns the seconds spent, for the caller to leave out."""
        start = perf_counter()
        if start < self._due:
            return 0.0
        self.samples.append(reference_s())
        self._due = perf_counter() + EVERY_S
        return perf_counter() - start
