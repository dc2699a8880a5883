"""Pure-Python kernel for the exhaustive sum-of-squares search.

Everything here works on the doubled pairs (A, B) that `quadfield` stores,
meaning (A + B*sqrt(D))/2, so one integer kernel serves both shapes of w.

Candidates come from the ring's root table (`root_table`): every
canonical root (A, B) with the pair (SA, SB) of its square, sorted by
(SA, B, A).  A root fits under a target of trace A only if SA <= A, so a
search's candidates are the roots of one prefix of the table that pass
the exact fit test, sorted descending.  The table is built on a ring's
first search, listed afresh whenever a search asks for a larger trace
than it holds, and kept as long as its context.  It holds at most
TABLE_ROOTS roots: a search that would take it further leaves it as it
is and runs the same fit test over the roots of the rows themselves, so
a thin element of huge trace holds only its few candidates, whatever its
trace.  The budget unit is unchanged: each call is charged one unit per
row b of roots with SA <= A, plus one per such root, whether the table
holds it already or not, before any root is listed, so every budget
boundary stays where it was when each search listed its roots afresh.

The traversal enumerates multisets of candidate roots: candidates are kept
in one fixed list (descending canonical order), and a child may only pick
candidates at or after its parent's position, so each multiset of terms is
visited exactly once.  A node picks only candidates whose square fits under
its remainder in both real embeddings -- X + Y*sqrt(D) is totally
nonnegative exactly when X >= 0 and X^2 >= D*Y^2 -- so remainders stay
totally nonnegative at every node.  Each node tests fit lazily: it walks
the one list from its own start position and tests each candidate against
its own remainder as it reaches it, so no list is built per node, and a
search that finds a decomposition descends at the first candidate that
fits.  It visits the nodes that filtering a list for each child would:
a candidate that fits a child's remainder fits its parent's, which is
smaller in neither embedding.  Each nonzero square has trace >= 2, so
depth is bounded by trace/2 and the traversal is finite.

The last term is settled by arithmetic, not by visiting: with one term
left, the only completion is the canonical root whose square is the
remainder, and its integer square root (`_root_of`) finds that root or
shows there is none.  Its position in the list needs no check: a
completion by a root at an earlier position is a multiset the traversal
has already visited, where a plain search would have stopped and a
shortest search would have lowered its cap below it.  A node with one
term left thus visits no child; `nodes` counts every visited node.

A plain search stops at its first hit.  A shortest search is the same
traversal run as branch and bound: each hit lowers the term cap to one
below its length, and the traversal goes on under the lower cap.  Every
multiset shorter than the final hit is still visited, so a completed
traversal returns a decomposition of least length.

A completed traversal with no hit is a proof that no decomposition exists
within the term bound -- soundness rests only on integer arithmetic, never
on any representability theorem.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import charge

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .quadfield import RingContext

STATUS_EXHAUSTED = 0
STATUS_FOUND = 1
STATUS_BUDGET = 2

# Candidate tuple layout: (A, B, SA, SB), a canonical nonzero root
# (A + B*sqrt(D))/2, a > 0 or a = 0 and b > 0, where (SA, SB) are the
# doubled coordinates of its square.
Candidate = tuple[int, int, int, int]

# The root table's sort key: the trace SA of a root's square.
_square_trace = itemgetter(2)

# The most roots a ring's table holds, about 5 MB at about 145 bytes a
# root (tracemalloc, Python 3.11): every root to a trace of about 59,000
# when D = 2, far past the traces the claims and queries search.  A search
# past it lists no root it does not keep (`generate_candidates`), so a
# thin element of huge trace costs memory only for the roots that fit it.
TABLE_ROOTS = 1 << 15


def _rows(ctx: RingContext, trace_bound: int) -> Iterator[tuple[int, int, int, int]]:
    """Each row b of canonical roots whose square has SA <= trace_bound.

    A row is (b, b*b*D, a_lo, a_hi), the roots (a, b) for a in
    range(a_lo, a_hi + 1, 2); empty rows are skipped.  Integral means
    A = B (mod 2), with B even unless D = 1 (mod 4); SA = (A^2 + D*B^2)/2
    <= T bounds |B| by isqrt(2T // D) and A by isqrt(2T - D*B^2).
    """
    d = ctx.D
    b_max = isqrt(2 * trace_bound // d)
    step = 1 if ctx.kappa == 1 else 2
    for b in range(-b_max + b_max % step, b_max + 1, step):
        bbd = b * b * d
        a_lo = 1 if b <= 0 else 0
        a_lo += (a_lo - b) % 2
        a_hi = isqrt(2 * trace_bound - bbd)
        if a_lo <= a_hi:
            yield b, bbd, a_lo, a_hi


def _roots(ctx: RingContext, trace_bound: int) -> Iterator[Candidate]:
    """Every canonical nonzero root whose square has trace <= trace_bound,
    as (A, B, SA, SB), row by row: sorted by (B, A)."""
    for b, bbd, a_lo, a_hi in _rows(ctx, trace_bound):
        for a in range(a_lo, a_hi + 1, 2):
            yield a, b, (a * a + bbd) // 2, a * b


def list_roots(ctx: RingContext, trace_bound: int) -> list[Candidate]:
    """Every canonical nonzero root whose square has trace <= trace_bound,
    sorted by (SA, B, A): a root table's prefix, listed afresh and kept by
    no context."""
    # Listed by (B, A), so a stable sort by SA leaves them in (SA, B, A) order.
    return sorted(_roots(ctx, trace_bound), key=_square_trace)


def root_table(
    ctx: RingContext, trace_bound: int, limit: int
) -> tuple[list[Candidate] | None, int]:
    """ctx's root table, and how many of its roots square to a trace <= trace_bound.

    The table lists every canonical nonzero root whose square has trace at
    most the largest bound asked so far, sorted by (SA, B, A), so the roots
    asked for are its first `count`.  A larger bound lists it afresh
    (`list_roots`), but only once its roots are all counted, row by row:
    once the count passes `limit`, the table is left as it was and that
    count, some number above `limit`, is returned, so a caller that charges
    the count (`errors.charge`) is charged before any root is listed.  A
    count within `limit` but past TABLE_ROOTS also leaves the table as it
    was, and comes with None for the table: the caller lists what it needs
    itself.
    """
    try:
        roots, done = ctx._table
    except AttributeError:
        # The ring's first search: no table yet.
        roots, done = [], -1
    if trace_bound <= done:
        return roots, bisect_right(roots, trace_bound, key=_square_trace)
    count = 0
    for _, _, a_lo, a_hi in _rows(ctx, trace_bound):
        # Counted in integers: len() of a range fails beyond sys.maxsize.
        count += (a_hi - a_lo) // 2 + 1
        if count > limit:
            return roots, count
    if count > TABLE_ROOTS:
        return None, count
    roots = list_roots(ctx, trace_bound)
    ctx._set("_table", (roots, trace_bound))
    return roots, count


def generate_candidates(
    ctx: RingContext, big_a: int, big_b: int, budget: int
) -> list[Candidate]:
    """All canonical roots whose square fits under (A, B) in both embeddings.

    Canonical means a > 0, or a = 0 and b > 0.  The target must be totally
    nonnegative.  Output is sorted descending by (A, B), the order the
    search consumes.  The roots come from ctx's root table
    (`root_table`): a root can fit only if its square's trace SA
    is at most A, so the candidates are the fitting roots of the table's
    prefix with SA <= A, the table first listed to trace A if it stops short.
    Where that would take the table past TABLE_ROOTS, the same fit test
    runs over the roots of the rows (`_roots`) instead, and only the roots
    that fit are kept.

    The call is charged against `budget`: one unit per row b up to the
    last integral one, |b| <= isqrt(2A // D), plus one per root with
    SA <= A, whether the table already holds it or not, all before any
    root is listed.  Once that work exceeds the budget, `errors.charge`
    raises BudgetExceeded with 0 nodes, so a large target with a small
    budget stops at once.
    """
    if big_a <= 0:
        return []
    d = ctx.D
    b_max = isqrt(2 * big_a // d)
    rows = b_max + 1 + (b_max if ctx.kappa == 1 else b_max - b_max % 2)
    # Compared inline: two calls cost 4 % of this function on `queries`.
    if rows > budget:
        charge(rows, budget)
    roots, count = root_table(ctx, big_a, budget - rows)
    if rows + count > budget:
        charge(rows + count, budget)
    # SA <= A for every root here, so X = A - SA >= 0 and one test is left.
    listed = _roots(ctx, big_a) if roots is None else roots[:count]
    out = [c for c in listed if (x := big_a - c[2]) * x >= d * (y := big_b - c[3]) * y]
    # (A, B) is unique per candidate, so plain tuple order is (A, B) order.
    out.sort(reverse=True)
    return out


def _root_of(d: int, r_a: int, r_b: int) -> tuple[int, int] | None:
    """The canonical root (A, B) whose square is the element (r_a, r_b) of O,
    or None.

    A root (a + b*sqrt(D))/2 squares to SA = (a^2 + D*b^2)/2 and SB = a*b,
    so SA^2 - D*SB^2 = t^2 with t = (a^2 - D*b^2)/2: t is an integer, a^2
    is SA + t or SA - t, and b = SB/a.  a = 0 only when SB = 0 and
    D*b^2 = 2*SA.  A guess that squares back to (r_a, r_b) is in O, since
    O is integrally closed, so it needs no integrality test.
    """
    t2 = r_a * r_a - d * r_b * r_b
    if r_a <= 0 or t2 < 0:
        return None
    t = isqrt(t2)
    if t * t != t2:
        return None
    for a in (isqrt(r_a + t), isqrt(r_a - t)):
        b = r_b // a if a else isqrt(2 * r_a // d)
        if a * b == r_b and a * a + d * b * b == 2 * r_a:
            return a, b
    return None


def run_search(
    d: int,
    big_a: int,
    big_b: int,
    cands: list[Candidate],
    max_depth: int,
    budget: int,
    shortest: bool = False,
) -> tuple[int, int, list[tuple[int, int]] | None]:
    """Exhaustive DFS for a decomposition of (A, B) into squares of `cands`.

    Returns (status, nodes, terms); terms are (A, B) pairs in pick order.
    For `generate_candidates`' list these are nonzero canonical roots in
    non-increasing (A, B) order, which `decompose.Decomposition` keeps:
    each pick is at or after its parent's position, and the last term
    (`_root_of`) never precedes the previous pick, since the same multiset
    in list order is an earlier path of the same length, where a plain
    search stops and a shortest search lowers its cap below it.
    A plain search stops at its first hit.  With `shortest`, a hit lowers
    the term cap below its own length and the traversal goes on, so a
    completed traversal returns a decomposition of least length; a budget
    overrun after a hit still returns STATUS_BUDGET, never a length that
    is not known to be minimal.  The verdict kind does not depend on the
    order of `cands`: multisets are enumerated under any fixed order.
    `cands` must hold every canonical root whose square fits under (A, B),
    as `generate_candidates` returns them, since the last term is any root
    of the remainder (`_root_of`), listed or not.
    """
    nodes = 0
    n = len(cands)
    path: list[tuple[int, int]] = []
    best: list[tuple[int, int]] | None = None
    limit = max_depth

    def hit(terms: list[tuple[int, int]]) -> bool:
        """Keep a decomposition; True when the traversal should stop."""
        nonlocal best, limit
        best = terms
        limit = len(terms) - 1
        return not shortest

    def rec(r_a: int, r_b: int, start: int) -> bool:
        """Visit the node of remainder (r_a, r_b) whose picks may start at
        position `start`; True when the traversal should stop."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return True
        if r_a == 0 and r_b == 0:
            return hit(list(path))
        depth = len(path)
        for i in range(start, n):
            left = limit - depth
            if left < 2:
                if left == 1:
                    # One term left: the only completion is the root of the
                    # remainder itself.
                    last = _root_of(d, r_a, r_b)
                    if last is not None:
                        return hit(path + [last])
                break
            a, b, sa, sb = cands[i]
            d_a = r_a - sa
            if d_a < 0:
                continue
            d_b = r_b - sb
            if d_a * d_a < d * d_b * d_b:
                continue
            path.append((a, b))
            stop = rec(d_a, d_b, i)
            path.pop()
            if stop:
                return True
        return False

    rec(big_a, big_b, 0)
    if nodes > budget:
        return STATUS_BUDGET, nodes, None
    if best is None:
        return STATUS_EXHAUSTED, nodes, None
    return STATUS_FOUND, nodes, best
