"""Pure-Python kernel for the exhaustive sum-of-squares search.

Everything here works on the doubled pairs (A, B) that `quadfield` stores,
meaning (A + B*sqrt(D))/2, so one integer kernel serves both shapes of w.

The traversal enumerates multisets of candidate roots: candidates are kept
in one fixed list (descending canonical order), and a child may only pick
candidates at or after its parent's position, so each multiset of terms is
visited exactly once.  A candidate stays in a child's list only while its
square still fits under the remainder in both real embeddings -- X + Y*sqrt(D)
is totally nonnegative exactly when X >= 0 and X^2 >= D*Y^2 -- so remainders
stay totally nonnegative at every node.  Each nonzero square has trace >= 2,
so depth is bounded by trace/2 and the traversal is finite.

The last term is settled by lookup, not by visiting: with one term left,
the only completion is a candidate at or after the parent's pick whose
square equals the remainder, and distinct canonical roots have distinct
squares, so one dict lookup decides it.  A node with two terms left
therefore passes its list on unfiltered: each child is one node and one
lookup.  `nodes` counts every visited node, those children included.

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

from math import isqrt

from .errors import charge

STATUS_EXHAUSTED = 0
STATUS_FOUND = 1
STATUS_BUDGET = 2

# Candidate tuple layout: (A, B, SA, SB) where (SA, SB) are the doubled
# coordinates of the candidate's square.
Candidate = tuple[int, int, int, int]


def generate_candidates(d: int, big_a: int, big_b: int, budget: int) -> list[Candidate]:
    """All canonical roots whose square fits under (A, B) in both embeddings.

    Canonical means a > 0, or a = 0 and b > 0.  The target must be totally
    nonnegative.  Output is sorted descending by (A, B), the order the
    search consumes.

    The scan is charged against `budget`: one unit per row b, plus the
    number of a the row tries, counted before the row runs.  Once that
    work exceeds the budget, `errors.charge` raises BudgetExceeded with 0
    nodes, so a large target with a small budget stops at once.
    """
    trace = big_a
    out: list[Candidate] = []
    if trace <= 0:
        return out
    # Any admissible root satisfies trace(root^2) <= trace(target), i.e.
    # A^2 + B^2*d <= 2*trace; the exact per-embedding test then filters.
    # Integrality fixes the parity of A: A = B (mod 2) in the half basis,
    # A and B both even otherwise.
    b_max = isqrt(2 * trace // d)
    half_allowed = d % 4 == 1
    work = 0
    for b in range(-b_max, b_max + 1):
        work += 1
        if not half_allowed and b % 2:
            continue
        bbd = b * b * d
        rest = 2 * trace - bbd
        if rest < 0:
            continue
        a_lo = 1 if b <= 0 else 0
        a_lo += (a_lo - b) % 2 if half_allowed else a_lo % 2
        a_hi = isqrt(rest)
        # The a in range(a_lo, a_hi + 1, 2), counted in integers: len() of
        # a range fails beyond sys.maxsize.  Never negative, as a_lo <= 2.
        work += (a_hi - a_lo) // 2 + 1
        if work > budget:  # compared inline: a call per row would cost the hot scan
            charge(work, budget)
        for a in range(a_lo, a_hi + 1, 2):
            sa, sb = (a * a + bbd) // 2, a * b
            da, db = big_a - sa, big_b - sb
            if da >= 0 and da * da >= d * db * db:
                out.append((a, b, sa, sb))
    # (A, B) is unique per candidate, so plain tuple order is (A, B) order.
    out.sort(reverse=True)
    return out


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
    A plain search stops at its first hit.  With `shortest`, a hit lowers
    the term cap below its own length and the traversal goes on, so a
    completed traversal returns a decomposition of least length; a budget
    overrun after a hit still returns STATUS_BUDGET, never a length that
    is not known to be minimal.  The verdict kind does not depend on the
    order of `cands`: multisets are enumerated under any fixed order.
    """
    nodes = 0
    path: list[tuple[int, int]] = []
    best: list[tuple[int, int]] | None = None
    limit = max_depth
    # Built on first use: 992 of 2,457 `queries` searches reach a lookup (eager: +4.8 %).
    rank: dict[tuple[int, int], int] | None = None

    def lookup(r_a: int, r_b: int, first: Candidate) -> Candidate | None:
        """The candidate at or after `first` whose square is (r_a, r_b)."""
        nonlocal rank
        if rank is None:
            # Distinct canonical roots have distinct squares, so the
            # square names its root.
            rank = {(c[2], c[3]): i for i, c in enumerate(cands)}
        i = rank.get((r_a, r_b))
        if i is None or i < rank[first[2], first[3]]:
            return None
        return cands[i]

    def hit(terms: list[tuple[int, int]]) -> bool:
        """Keep a decomposition; True when the traversal should stop."""
        nonlocal best, limit
        best = terms
        limit = len(terms) - 1
        return not shortest

    def rec(r_a: int, r_b: int, cs: list[Candidate]) -> bool:
        """Visit one node; True when the traversal should stop."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return True
        if r_a == 0 and r_b == 0:
            return hit(list(path))
        depth = len(path)
        for i, c in enumerate(cs):
            left = limit - depth
            if left < 2:
                if left == 1:
                    # One term left: the only completion is a candidate in
                    # cs[i:] whose square is the remainder itself.
                    last = lookup(r_a, r_b, c)
                    if last is not None:
                        return hit(path + [(last[0], last[1])])
                break
            a, b, sa, sb = c
            d_a, d_b = r_a - sa, r_b - sb
            if left == 2:
                # The child has one term left; settle it here by lookup
                # instead of filtering a list for it.
                nodes += 1
                if nodes > budget:
                    return True
                if d_a == 0 and d_b == 0:
                    stop = hit(path + [(a, b)])
                else:
                    last = lookup(d_a, d_b, c)
                    if last is None:
                        continue
                    stop = hit(path + [(a, b), (last[0], last[1])])
                if stop:
                    return True
                continue
            sub = [
                e
                for e in cs[i:]
                if (x := d_a - e[2]) >= 0 and x * x >= d * (d_b - e[3]) ** 2
            ]
            path.append((a, b))
            stop = rec(d_a, d_b, sub)
            path.pop()
            if stop:
                return True
        return False

    rec(big_a, big_b, cands)
    if nodes > budget:
        return STATUS_BUDGET, nodes, None
    if best is None:
        return STATUS_EXHAUSTED, nodes, None
    return STATUS_FOUND, nodes, best
