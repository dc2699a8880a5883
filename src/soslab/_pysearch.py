"""Pure-Python kernel for the exhaustive sum-of-squares search.

Everything here works on doubled sqrt-basis coordinates: a pair (A, B)
stands for (A + B*sqrt(D))/2, which is integral exactly when A = B (mod 2)
for D = 1 (mod 4) and when both are even otherwise.  That one convention
lets a single integer kernel serve both integral-basis shapes.

The traversal enumerates multisets of candidate roots: candidates are kept
in one fixed list (descending canonical order), and a child may only pick
candidates at or after its parent's position, so each multiset of terms is
visited exactly once.  A candidate stays in a child's list only while its
square still fits under the remainder in both real embeddings; remainders
therefore stay totally nonnegative at every node.  Each nonzero square has
trace >= 2, so depth is bounded by trace/2 and the traversal is finite.  A
completed traversal with no hit is a proof that no decomposition exists
within the term bound -- soundness rests only on integer arithmetic, never
on any representability theorem.
"""

from __future__ import annotations

from math import isqrt

STATUS_EXHAUSTED = 0
STATUS_FOUND = 1
STATUS_BUDGET = 2

# Candidate tuple layout: (A, B, SA, SB) where (SA, SB) are the doubled
# coordinates of the candidate's square.
Candidate = tuple[int, int, int, int]


def sgn(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for a nonsquare d >= 2."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    t = p * p - q * q * d
    s = (t > 0) - (t < 0)
    return s if p > 0 else -s


def square_half_coords(big_a: int, big_b: int, d: int) -> tuple[int, int]:
    """Doubled coordinates of ((A + B*sqrt(d))/2)^2."""
    return (big_a * big_a + big_b * big_b * d) // 2, big_a * big_b


def candidate_work_bound(d: int, trace: int) -> int:
    """Upper bound on (A, B) pairs examined when generating candidates."""
    if trace <= 0:
        return 1
    return (2 * isqrt(2 * trace // d) + 2) * (isqrt(2 * trace) + 2)


def generate_candidates(d: int, half_allowed: bool, big_a: int, big_b: int) -> list[Candidate]:
    """All canonical roots whose square fits under (A, B) in both embeddings.

    Canonical means a > 0, or a = 0 and b > 0.  The target must be totally
    nonnegative.  Output is sorted descending by (A, B), the order the
    search consumes.
    """
    trace = big_a
    out: list[Candidate] = []
    if trace <= 0:
        return out
    # Any admissible root satisfies trace(root^2) <= trace(target), i.e.
    # A^2 + B^2*d <= 2*trace; the exact per-embedding test then filters.
    b_max = isqrt(2 * trace // d)
    for b in range(-b_max, b_max + 1):
        rest = 2 * trace - b * b * d
        if rest < 0:
            continue
        a_lo = 1 if b <= 0 else 0
        for a in range(a_lo, isqrt(rest) + 1):
            if half_allowed:
                if (a - b) % 2:
                    continue
            elif (a % 2) or (b % 2):
                continue
            sa, sb = square_half_coords(a, b, d)
            da, db = big_a - sa, big_b - sb
            if sgn(da, db, d) >= 0 and sgn(da, -db, d) >= 0:
                out.append((a, b, sa, sb))
    out.sort(key=lambda c: (c[0], c[1]), reverse=True)
    return out


def run_search(
    d: int,
    big_a: int,
    big_b: int,
    cands: list[Candidate],
    max_depth: int,
    budget: int,
) -> tuple[int, int, list[tuple[int, int]] | None]:
    """Exhaustive DFS for a decomposition of (A, B) into squares of `cands`.

    Returns (status, nodes, terms); terms are (A, B) pairs in pick order.
    The verdict kind does not depend on the order of `cands`: multisets are
    enumerated under any fixed order.
    """
    nodes = 0
    path: list[tuple[int, int]] = []

    def rec(r_a: int, r_b: int, cs: list[Candidate], depth_left: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return STATUS_BUDGET
        if r_a == 0 and r_b == 0:
            return STATUS_FOUND
        if depth_left == 0:
            return STATUS_EXHAUSTED
        for i in range(len(cs)):
            a, b, sa, sb = cs[i]
            d_a, d_b = r_a - sa, r_b - sb
            sub = [
                c
                for c in cs[i:]
                if sgn(d_a - c[2], d_b - c[3], d) >= 0
                and sgn(d_a - c[2], c[3] - d_b, d) >= 0
            ]
            path.append((a, b))
            status = rec(d_a, d_b, sub, depth_left - 1)
            if status != STATUS_EXHAUSTED:
                return status
            path.pop()
        return STATUS_EXHAUSTED

    status = rec(big_a, big_b, cands, max_depth)
    return status, nodes, list(path) if status == STATUS_FOUND else None
