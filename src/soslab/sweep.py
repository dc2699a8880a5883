"""Whole-box sweep: the shortest sum-of-squares length of every element of
trace at most T, from one breadth-first pass over rows of bits.

The pass starts from 0 and adds every nonzero square whose trace fits, in
the doubled coordinates (A, B) of `quadfield`, which lists and counts the
roots of those squares (`list_roots`, `count_roots`).  The layer at which an
element is first reached is its shortest length.  An element of the box
that is never reached is not a sum of squares at all: a square is totally
nonnegative, so every partial sum of a decomposition of alpha lies below
alpha in both embeddings and has trace at most trace(alpha) <= T.  The
pass therefore sees every decomposition of every element of the box, and
its negative answers need no representability theorem, as the search
oracle's do not.

The elements of trace A form a row, and a set of them is one integer with
bit B + W set for each (A, B) in it, where W = isqrt(T^2 // D) + 1, so
adding the square (SA, SB) to every element of a row is one shift by SB,
or-ed into row A + SA.  (The pass shifts every row left, by SB + L with L
the largest |SB|, and shifts each sum back by L once its layer is done.)
No bit leaves its row: each shifted bit is a reached element, 0 or
totally positive, so D*B^2 < A^2 <= T^2 and |B| < W.  The sweep keeps,
for each row, the bits each layer reached first, with their layer, in
layer order; layer 0 is the bit of 0 in row 0.  These are the only
record: the length of (A, B) is the first layer of row A whose bits hold
B + W, and no layer's bits hold it when it is no sum of squares.

The sweep answers lengths only; the search oracle in `decompose` stays the
independent engine the tests compare it against, and builds decompositions;
the sweep imports nothing of its kernel, `_pysearch`.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt

from .errors import DEFAULT_NODE_BUDGET, ContextMismatch, charge
from .quadfield import QuadInt, RingContext, count_roots, count_totally_positive, list_roots


class Sweep:
    """Shortest sum-of-squares lengths of every element of trace <= trace_bound.

    Construction does all the work.  Before any root is listed, the work
    bound (the box's elements, 0 included, times the number of squares,
    both counted with an early exit) is charged to `node_budget`
    (`errors.charge`), which raises BudgetExceeded naming D and the trace
    bound above it.  It keeps, for each trace that holds a sum of squares,
    one (layer, new bits) pair per layer that reaches it, each int at most
    2W + 1 bits wide.  `length` is the lookup, testing at most one bit per
    layer; `is_sum_of_squares` reads through it.
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
        # The nonzero roots whose squares fit the box, counted row by row
        # and listed by the trace SA of their square only once the charge
        # has passed.  Both counts stop past the budget.
        squares = count_roots(ctx, trace_bound, node_budget)
        count = count_totally_positive(ctx, trace_bound, node_budget // max(squares, 1))
        scope = f"the sweep of D={ctx.D} to trace {trace_bound}"
        charge((count + 1) * squares, node_budget, scope)
        roots = list_roots(ctx, trace_bound)
        self.ctx = ctx
        self.trace_bound = trace_bound
        self._width = width = isqrt(trace_bound * trace_bound // ctx.D) + 1
        # Every shift is taken leftward, by SB + lift, and each sum is set
        # back by lift once a layer is done.
        lift = max((abs(r[3]) for r in roots), default=0)
        traces = [r[2] for r in roots]
        shifts = [(sa, sb + lift) for _, _, sa, sb in roots]
        # Row A's reached bits, and the rows of bits the last layer reached
        # first.  Each row keeps its new bits with the layer that found them.
        reached = [0] * (trace_bound + 1)
        reached[0] = 1 << width
        self._rows = rows = {0: [(0, reached[0])]}
        frontier = {0: reached[0]}
        length = 0
        while frontier:
            length += 1
            sums = [0] * (trace_bound + 1)
            for big_a, row in frontier.items():
                for sa, shift in shifts[: bisect_right(traces, trace_bound - big_a)]:
                    sums[big_a + sa] |= row << shift
            frontier = {}
            for big_a, bits in enumerate(sums):
                if bits:
                    bits = (bits >> lift) & ~reached[big_a]
                    if bits:
                        reached[big_a] |= bits
                        frontier[big_a] = bits
                        rows.setdefault(big_a, []).append((length, bits))

    def length(self, alpha: QuadInt) -> int | None:
        """Shortest length of alpha as a sum of squares; None is a proof that
        it is none."""
        if alpha.ctx.D != self.ctx.D:
            raise ContextMismatch(f"sweep of D={self.ctx.D} asked about a D={alpha.ctx.D} element")
        big_a, big_b = alpha.half_coords
        if big_a > self.trace_bound:
            raise ValueError(f"{alpha} lies outside the swept box (trace <= {self.trace_bound})")
        pos = big_b + self._width
        # A negative shift raises ValueError.
        if pos >= 0:
            for layer, bits in self._rows.get(big_a, ()):
                if bits >> pos & 1:
                    return layer
        return None

    def is_sum_of_squares(self, alpha: QuadInt) -> bool:
        return self.length(alpha) is not None
