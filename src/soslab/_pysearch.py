"""Pure-Python kernel for the exhaustive sum-of-squares search.

Everything here works on the doubled pairs (A, B) that `quadfield` stores,
meaning (A + B*sqrt(D))/2, so one integer kernel serves both shapes of w.
The ring's lattice is `quadfield`'s: the kernel reads kappa from its
`RingContext` and walks the pairs `RingContext.is_integral` accepts.

The traversal enumerates multisets of canonical nonzero roots (a > 0, or
a = 0 and b > 0): each node picks roots in descending (A, B) order, at or
below its parent's pick, so each multiset of terms is visited exactly
once.  A node picks only roots whose square fits under its remainder in
both real embeddings -- X + Y*sqrt(D) is totally nonnegative exactly when
X >= 0 and X^2 >= D*Y^2, the one test that accepts a root -- so
remainders stay totally nonnegative.  Each nonzero square has trace >= 2,
so depth is bounded by trace/2 and the traversal is finite.

Each node walks, inline, its own window of roots, listed by no one.  A
root fits the remainder (RA, RB) only if |a +- b*sqrt(D)| is at most
sqrt(2*(RA +- RB*sqrt(D))), so a <= isqrt(RA + isqrt(RA^2 - D*RB^2)), and
for each a, b*sqrt(D) lies in one interval whose ends follow from integer
bounds above those two roots; a steps by kappa and b = a (mod 2), so
every pair walked is integral.  a runs down from that bound, or from the
parent's a if smaller, and b down its interval.  These are the roots
fitting the node's remainder that one list of every root fitting the
target would hold at or after the parent's position, in the same order,
so the nodes are those that walking such a list visits, in the same order.

The budget bounds nodes plus window steps: each node is charged one unit,
plus one per a its window will try (a_top // kappa + 1) before it
walks them, so no loop runs unguarded, and a huge target with a small
budget stops before its root counts as a node.  A
node whose remainder is 0, or with fewer than two terms left, walks
nothing.  The b-walks need no charge: each interval holds at most two
roots beyond those that fit, and each root that fits is a node of its
own.  `nodes` counts nodes only, the count a list-walking traversal gives.

The last term is settled by arithmetic, not by visiting: with one term
left, the only completion is the canonical root whose square is the
remainder, and its integer square root (`_root_of`) finds that root or
shows there is none.  It needs no order check: a completion by a root
above the previous pick is a multiset the traversal has already visited,
where a plain search would have stopped and a shortest search would have
lowered its cap below it.

A plain search stops at its first hit.  A shortest search is the same
traversal run as branch and bound: each hit lowers the term cap to one
below its length, and the traversal goes on under the lower cap, so a
completed traversal returns a decomposition of least length.  A completed
traversal with no hit is a proof that no decomposition exists within the
term bound -- soundness rests only on integer arithmetic, never on any
representability theorem.

`generate_candidates` lists, by a scan of `quadfield`'s rows of roots,
every root that fits a target in the order the windows meet them; no
search calls it, and perfbench's tracer wraps it by name.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING

from .errors import charge
from .quadfield import _roots, count_roots

if TYPE_CHECKING:
    from .quadfield import RingContext, Root

STATUS_EXHAUSTED = 0
STATUS_FOUND = 1
STATUS_BUDGET = 2


def generate_candidates(
    ctx: RingContext, big_a: int, big_b: int, budget: int
) -> list[Root]:
    """All canonical roots whose square fits under (A, B) in both embeddings.

    Canonical means a > 0, or a = 0 and b > 0.  The target must be totally
    nonnegative.  Output is sorted descending by (A, B), the order in which
    the search's windows meet them.  A root can fit only if its square's
    trace SA is at most A, so the rows of roots with SA <= A are scanned
    and each root of them is tested once.

    The call is charged against `budget`: one unit per row b up to the
    last integral one, |b| <= isqrt(2A // D), plus one per root with
    SA <= A, all before any root is listed.  Once that work exceeds the
    budget, `errors.charge` raises BudgetExceeded with 0 nodes, so a large
    target with a small budget stops at once.
    """
    if big_a <= 0:
        return []
    d = ctx.D
    b_max = isqrt(2 * big_a // d)
    rows = b_max + 1 + (b_max if ctx.kappa == 1 else b_max - b_max % 2)
    charge(rows, budget)
    charge(rows + count_roots(ctx, big_a, budget - rows), budget)
    # SA <= A for every root here, so X = A - SA >= 0 and one test is left.
    out = [
        c
        for c in _roots(ctx, big_a)
        if (x := big_a - c[2]) * x >= d * (y := big_b - c[3]) * y
    ]
    # (A, B) is unique per candidate, so plain tuple order is (A, B) order.
    out.sort(reverse=True)
    return out


def _root_of(ctx: RingContext, r_a: int, r_b: int) -> tuple[int, int] | None:
    """The canonical root (A, B) whose square is the element (r_a, r_b) of
    ctx's ring, or None.

    A root (a + b*sqrt(D))/2 squares to SA = (a^2 + D*b^2)/2 and SB = a*b,
    so SA^2 - D*SB^2 = t^2 with t = (a^2 - D*b^2)/2: t is an integer, a^2
    is SA + t or SA - t, and b = SB/a.  a = 0 only when SB = 0 and
    D*b^2 = 2*SA.  A guess that squares back to (r_a, r_b) is in O, since
    O is integrally closed.  `RingContext.is_integral` still checks it, as
    `from_half_pair` does: this pair is computed rather than walked, and
    `decompose._search` builds it unchecked.
    """
    d = ctx.D
    t2 = r_a * r_a - d * r_b * r_b
    if r_a <= 0 or t2 < 0:
        return None
    t = isqrt(t2)
    if t * t != t2:
        return None
    for a in (isqrt(r_a + t), isqrt(r_a - t)):
        b = r_b // a if a else isqrt(2 * r_a // d)
        if a * b == r_b and a * a + d * b * b == 2 * r_a:
            if not ctx.is_integral(a, b):
                raise ValueError(f"the root ({a}+{b}*sqrt{d})/2 is not integral")
            return a, b
    return None


def run_search(
    ctx: RingContext,
    big_a: int,
    big_b: int,
    max_depth: int,
    budget: int,
    shortest: bool = False,
) -> tuple[int, int, list[tuple[int, int]] | None]:
    """Exhaustive DFS for a decomposition of the totally nonnegative (A, B)
    into at most max_depth squares (see the module docstring).

    Returns (status, nodes, terms); terms are (A, B) pairs in pick order:
    nonzero canonical roots in non-increasing (A, B) order, which
    `decompose.Decomposition` keeps.  With `shortest`, a completed
    traversal returns a decomposition of least length; a budget overrun
    after a hit still returns STATUS_BUDGET, never a length that is not
    known to be minimal.  `budget` bounds the nodes plus the a-steps of
    their windows; `nodes` counts the nodes alone.
    """
    d, step = ctx.D, ctx.kappa
    nodes = 0
    spent = 0
    path: list[tuple[int, int]] = []
    best: list[tuple[int, int]] | None = None
    limit = max_depth

    def hit(terms: list[tuple[int, int]]) -> bool:
        """Keep a decomposition; True when the traversal should stop."""
        nonlocal best, limit
        best = terms
        limit = len(terms) - 1
        return not shortest

    def settle(r_a: int, r_b: int) -> bool:
        """Fewer than two terms left: with one, the only completion is the
        root of the remainder itself."""
        if limit - len(path) == 1:
            last = _root_of(ctx, r_a, r_b)
            if last is not None:
                return hit(path + [last])
        return False

    def rec(r_a: int, r_b: int, cap_a: int, cap_b: int) -> bool:
        """Visit the node of remainder (r_a, r_b) whose picks lie at or
        below (cap_a, cap_b); True when the traversal should stop."""
        nonlocal nodes, spent
        depth = len(path)
        if limit - depth < 2 or not r_a:
            spent += 1
            if spent > budget:
                return True
            nodes += 1
            # A remainder is totally nonnegative, so RA = 0 only at 0.
            if not r_a:
                return hit(list(path))
            return settle(r_a, r_b)
        # The largest a of a fitting root, capped by the parent's.
        a = isqrt(r_a + isqrt(r_a * r_a - d * r_b * r_b))
        if a > cap_a:
            a = cap_a
        a -= a % step
        spent += a // step + 2
        if spent > budget:
            return True
        nodes += 1
        # Integer bounds above the largest |a + b*sqrt(D)| (up) and
        # |a - b*sqrt(D)| (down) of a fitting root, sqrt(2*(RA +- RB*sqrt(D))),
        # each at most one above it: t = floor(2*|RB|*sqrt(D)), and
        # 2*|RB|*sqrt(D) is no integer unless RB = 0.
        t = isqrt(4 * d * r_b * r_b)
        wide = isqrt(2 * r_a + t) + 1
        thin = isqrt(2 * r_a - t - (r_b != 0)) + 1
        up, down = (wide, thin) if r_b >= 0 else (thin, wide)
        gap = up - down
        while a >= 0:
            # b*sqrt(D) lies in [lo, hi]; floor(|x|/sqrt(D)) = isqrt(x^2 // D),
            # and x/sqrt(D) is no integer unless x = 0.
            hi = up - a if 2 * a > gap else a + down
            lo = a - down if 2 * a > -gap else -up - a
            if lo <= hi:
                b_hi = isqrt(hi * hi // d)
                if hi < 0:
                    b_hi = -b_hi - 1
                b_lo = isqrt(lo * lo // d)
                b_lo = -b_lo if lo <= 0 else b_lo + 1
                if a == cap_a and b_hi > cap_b:
                    b_hi = cap_b
                if a == 0 and b_lo < 1:
                    b_lo = 1
                aa = a * a
                # `RingContext.is_integral`'s pairs, inline: a steps by kappa, b = a (mod 2).
                for b in range(b_hi - (b_hi - a) % 2, b_lo - 1, -2):
                    d_a = r_a - (aa + d * b * b) // 2
                    if d_a < 0:
                        continue
                    d_b = r_b - a * b
                    if d_a * d_a < d * d_b * d_b:
                        continue
                    path.append((a, b))
                    stop = rec(d_a, d_b, a, b)
                    path.pop()
                    if stop:
                        return True
                    if limit - depth < 2:
                        # A shortest search's hit lowered the cap.
                        return settle(r_a, r_b)
            a -= step
        return False

    # No root has a coordinate above A, so (A, A) caps nothing.
    rec(big_a, big_b, big_a, big_a)
    if spent > budget:
        return STATUS_BUDGET, nodes, None
    if best is None:
        return STATUS_EXHAUSTED, nodes, None
    return STATUS_FOUND, nodes, best
