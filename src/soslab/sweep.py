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
from .errors import ContextMismatch, charge
from .quadfield import QuadInt, RingContext, count_totally_positive


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

    Construction does all the work.  Before it starts, the work bound (the
    box's elements, 0 included, times the number of squares) is charged to
    `node_budget` (`errors.charge`), which raises BudgetExceeded naming
    D and the trace bound above it.
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
        # and the rational squares alone, keeps listing the roots bounded.
        scope = f"the sweep of D={ctx.D} to trace {trace_bound}"
        charge((trace_bound // 2 + 1) * isqrt(trace_bound // 2), node_budget, scope)
        roots = _roots(ctx, trace_bound)
        limit = node_budget // max(len(roots), 1)
        count = count_totally_positive(ctx, trace_bound, limit)
        charge((count + 1) * len(roots), node_budget, scope)
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
