"""Whole-box sweep: the shortest sum-of-squares length of every element of
trace at most T, from one breadth-first pass.

The pass starts from 0 and adds every nonzero square whose trace fits, in
the doubled coordinates (A, B) of `_pysearch`.  The layer at which an
element is first reached is its shortest length.  An element of the box
that is never reached is not a sum of squares at all: a square is totally
nonnegative, so every partial sum of a decomposition of alpha lies below
alpha in both embeddings and has trace at most trace(alpha) <= T.  The
pass therefore sees every decomposition of every element of the box, and
its negative answers need no representability theorem, as the search
oracle's do not.

Each reached element keeps the square that reached it, so a verified
`Decomposition` of shortest length can be rebuilt on demand.  The search
oracle in `decompose` stays the independent engine the tests compare this
against.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt

from .decompose import DEFAULT_NODE_BUDGET, Decomposition
from .errors import BudgetExceeded, ContextMismatch
from .quadfield import QuadInt, RingContext


def _box_size(ctx: RingContext, trace_bound: int) -> int:
    """Integral (A, B) with 0 <= A <= trace_bound and D*B^2 <= A^2: the
    totally nonnegative elements of the box, 0 included."""
    total = 0
    for big_a in range(0, trace_bound + 1, 1 if ctx.kappa == 1 else 2):
        b_max = isqrt(big_a * big_a // ctx.D)
        if ctx.kappa == 1:  # B = A (mod 2)
            total += b_max + 1 if (b_max - big_a) % 2 == 0 else b_max
        else:  # B even
            total += 2 * (b_max // 2) + 1
    return total


def _roots(ctx: RingContext, trace_bound: int) -> list[tuple[int, int, int, int]]:
    """(A, B, SA, SB) for every canonical nonzero root (A + B*sqrt(D))/2
    whose square (SA + SB*sqrt(D))/2 has trace SA <= trace_bound, by SA.

    Integral means A = B (mod 2), with B even unless D = 1 (mod 4).
    """
    d = ctx.D
    out = []
    b_max = isqrt(2 * trace_bound // d)
    for b in range(-b_max, b_max + 1):
        if ctx.kappa == 2 and b % 2:
            continue
        a_lo = 1 if b <= 0 else 0
        a_lo += (a_lo - b) % 2
        for a in range(a_lo, isqrt(2 * trace_bound - b * b * d) + 1, 2):
            out.append((a, b, (a * a + b * b * d) // 2, a * b))
    out.sort(key=lambda r: r[2])
    return out


class Sweep:
    """Shortest sum-of-squares lengths of every element of trace <= trace_bound.

    Construction does all the work.  Before it starts, the work bound (box
    size times the number of squares) is checked against `node_budget`,
    and BudgetExceeded is raised above it.
    """

    def __init__(
        self,
        ctx: RingContext,
        trace_bound: int,
        *,
        node_budget: int = DEFAULT_NODE_BUDGET,
    ) -> None:
        if trace_bound < 0:
            raise ValueError(f"trace bound must be nonnegative, got {trace_bound}")
        # A lower bound on the work, from the rational integers of the box
        # and the rational squares alone, keeps the counting below bounded.
        floor = (trace_bound // 2 + 1) * isqrt(trace_bound // 2)
        if floor > node_budget:
            raise BudgetExceeded(floor, node_budget)
        roots = _roots(ctx, trace_bound)
        work = _box_size(ctx, trace_bound) * len(roots)
        if work > node_budget:
            raise BudgetExceeded(work, node_budget)
        self.ctx = ctx
        self.trace_bound = trace_bound
        self._roots = roots
        # (A, B) -> (shortest length, index of the root whose square reached it)
        self._reached: dict[tuple[int, int], tuple[int, int]] = {(0, 0): (0, -1)}
        square_traces = [r[2] for r in roots]
        frontier = [(0, 0)]
        length = 0
        while frontier:
            length += 1
            layer = []
            for big_a, big_b in frontier:
                for i in range(bisect_right(square_traces, trace_bound - big_a)):
                    key = (big_a + roots[i][2], big_b + roots[i][3])
                    if key not in self._reached:
                        self._reached[key] = (length, i)
                        layer.append(key)
            frontier = layer

    def _lookup(self, alpha: QuadInt) -> tuple[int, int] | None:
        if alpha.ctx.D != self.ctx.D:
            raise ContextMismatch(f"sweep of D={self.ctx.D} asked about a D={alpha.ctx.D} element")
        if alpha.trace > self.trace_bound:
            raise ValueError(f"{alpha} lies outside the swept box (trace <= {self.trace_bound})")
        return self._reached.get(alpha.half_coords)

    def length(self, alpha: QuadInt) -> int | None:
        """Shortest length of alpha as a sum of squares; None is a proof that
        it is none."""
        hit = self._lookup(alpha)
        return None if hit is None else hit[0]

    def is_sum_of_squares(self, alpha: QuadInt) -> bool:
        return self._lookup(alpha) is not None

    def decomposition(self, alpha: QuadInt) -> Decomposition | None:
        """A verified decomposition of alpha of shortest length, or None."""
        if self._lookup(alpha) is None:
            return None
        terms = []
        big_a, big_b = alpha.half_coords
        while (big_a, big_b) != (0, 0):
            a, b, sa, sb = self._roots[self._reached[big_a, big_b][1]]
            terms.append(self.ctx.from_half_pair(a, b))
            big_a, big_b = big_a - sa, big_b - sb
        return Decomposition(alpha, tuple(terms))
