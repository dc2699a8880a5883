"""The search kernel against reference copies of its earlier form.

`reference_candidates` is the row scan `generate_candidates` still runs:
every row b, every a of the row, one exact fit test each.
`reference_search` is the traversal that walked one list of candidates,
filtered anew for each child.  It also keeps the earlier last term: a
lookup of the remainder's square among the candidates at or after the
current position, and a separate path for a node with two terms left, so
it is an independent oracle for the kernel's arithmetic completion
(`_pysearch._root_of`).  `brute_roots` lists roots by brute force.  All
three stay here as oracles: the windows each node walks, the arithmetic
last term and the row scan must give the same lists, the same budget
boundaries and the same (status, nodes, terms).
"""

import gc
import pickle
import random
import tracemalloc
from math import isqrt

import pytest

from soslab import (
    BudgetExceeded,
    RingContext,
    VerdictKind,
    decompose_sos,
    scan_totally_positive,
)
from soslab import _pysearch
from soslab.errors import charge
from soslab.quadfield import count_roots, list_roots
from soslab.sweep import Sweep

# kappa = 2 (2, 3, 6, 7) and kappa = 1 (5, 13, 17, 21).
RING_DS = (2, 3, 5, 6, 7, 13, 17, 21)


def reference_candidates(d, big_a, big_b, budget):
    """The row scan: one unit per row b, plus the a each row tries."""
    out = []
    if big_a <= 0:
        return out
    b_max = isqrt(2 * big_a // d)
    half_allowed = d % 4 == 1
    work = 0
    for b in range(-b_max, b_max + 1):
        work += 1
        if not half_allowed and b % 2:
            continue
        bbd = b * b * d
        rest = 2 * big_a - bbd
        a_lo = 1 if b <= 0 else 0
        a_lo += (a_lo - b) % 2 if half_allowed else a_lo % 2
        a_hi = isqrt(rest)
        work += (a_hi - a_lo) // 2 + 1
        if work > budget:
            charge(work, budget)
        for a in range(a_lo, a_hi + 1, 2):
            sa, sb = (a * a + bbd) // 2, a * b
            da, db = big_a - sa, big_b - sb
            if da >= 0 and da * da >= d * db * db:
                out.append((a, b, sa, sb))
    out.sort(reverse=True)
    return out


def reference_search(d, big_a, big_b, cands, max_depth, budget, shortest=False):
    """The traversal that filters a candidate list for each child."""
    nodes = 0
    path = []
    best = None
    limit = max_depth
    rank = {(c[2], c[3]): i for i, c in enumerate(cands)}

    def lookup(r_a, r_b, first):
        i = rank.get((r_a, r_b))
        if i is None or i < rank[first[2], first[3]]:
            return None
        return cands[i]

    def hit(terms):
        nonlocal best, limit
        best = terms
        limit = len(terms) - 1
        return not shortest

    def rec(r_a, r_b, cs):
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
                    last = lookup(r_a, r_b, c)
                    if last is not None:
                        return hit(path + [(last[0], last[1])])
                break
            a, b, sa, sb = c
            d_a, d_b = r_a - sa, r_b - sb
            if left == 2:
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
        return _pysearch.STATUS_BUDGET, nodes, None
    if best is None:
        return _pysearch.STATUS_EXHAUSTED, nodes, None
    return _pysearch.STATUS_FOUND, nodes, best


def brute_roots(d, trace_bound):
    """Every canonical nonzero root with SA <= trace_bound, by (SA, B, A)."""
    roots = []
    bound = isqrt(2 * trace_bound) + 1
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            if (a - b) % 2 or (d % 4 != 1 and b % 2) or (a == 0 and b <= 0):
                continue
            if a * a + d * b * b <= 2 * trace_bound:
                roots.append((a, b, (a * a + d * b * b) // 2, a * b))
    return sorted(roots, key=lambda r: (r[2], r[1], r[0]))


def work_threshold(d, big_a, big_b):
    """The least budget the row scan passes."""
    lo, hi = 0, 1
    while True:
        try:
            reference_candidates(d, big_a, big_b, hi)
            break
        except BudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            reference_candidates(d, big_a, big_b, mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


def _targets(d, trace_bound):
    """Every totally positive element to trace_bound, and 0, as pairs."""
    return [(0, 0)] + [a.half_coords for a in scan_totally_positive(RingContext(d), trace_bound)]


# ---------------------------------------------------------------------------
# the row scan and the root lists


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
@pytest.mark.parametrize("d", RING_DS)
def test_candidates_match_the_row_scan(d, order):
    targets = _targets(d, 44)
    if order == "descending":
        targets.reverse()
    elif order == "random":
        random.Random(d).shuffle(targets)
    ctx = RingContext(d)
    for big_a, big_b in targets:
        got = _pysearch.generate_candidates(ctx, big_a, big_b, 10**8)
        assert got == reference_candidates(d, big_a, big_b, 10**8), (big_a, big_b)
    assert list_roots(ctx, 44) == brute_roots(d, 44)


@pytest.mark.parametrize("d", RING_DS)
def test_each_root_list_is_a_prefix_of_the_next_and_equals_brute_roots(d):
    # Each bound's list of roots, as `list_roots` lists it for a sweep,
    # and its count, which `count_roots` takes without listing a root.
    ctx = RingContext(d)
    seen = []
    for trace_bound in (0, 7, 3, 20, 20, 61, 1, 100):
        roots = list_roots(ctx, trace_bound)
        assert roots == brute_roots(d, trace_bound)
        assert count_roots(ctx, trace_bound, 10**8) == len(roots)
        if len(roots) > len(seen):
            assert roots[: len(seen)] == seen
        seen = roots
    # Counting stops once it passes its limit: at the end of a row.
    assert 10 < count_roots(ctx, 100, 10) < len(seen)


# For D = 3 and 7, b_max = isqrt(2A // D) is odd: the last row is odd, so
# not integral, and the row scan's budget test never counted it.
@pytest.mark.parametrize(
    "d,big_a,big_b", [(2, 40, 8), (6, 50, -4), (5, 37, 5), (13, 33, 1), (3, 20, 4), (7, 40, 2)]
)
@pytest.mark.parametrize("warm", [None, 10, 40, 200])
def test_budget_boundaries_match_the_row_scan(d, big_a, big_b, warm):
    # The scan keeps nothing on its context, so a scan to another trace
    # first moves no boundary.
    threshold = work_threshold(d, big_a, big_b)
    ctx = RingContext(d)
    if warm is not None:
        _pysearch.generate_candidates(ctx, warm, 0, 10**8)
    with pytest.raises(BudgetExceeded) as exc:
        _pysearch.generate_candidates(ctx, big_a, big_b, threshold - 1)
    assert exc.value.nodes == 0
    got = _pysearch.generate_candidates(ctx, big_a, big_b, threshold)
    assert got == reference_candidates(d, big_a, big_b, threshold)


def test_building_a_context_builds_no_table():
    # A context holds D and kappa alone, and a search leaves nothing on it:
    # it stays equal to a fresh one, and hashes, prints and pickles alike.
    ctx = RingContext(6)
    decompose_sos(ctx.from_int(30))
    fresh = RingContext(6)
    assert RingContext.__slots__ == ("D", "kappa")
    assert ctx == fresh and hash(ctx) == hash(fresh)
    assert repr(ctx) == repr(fresh) == "RingContext(D=6)"
    assert pickle.dumps(ctx) == pickle.dumps(fresh)


# ---------------------------------------------------------------------------
# large and thin elements


def _power(x, n):
    out = x.ctx.one
    for _ in range(n):
        out = out * x
    return out


def test_a_thin_element_with_a_huge_trace_stops_at_once():
    # eps = 24335 + 3588*sqrt(46) is the fundamental unit; the element
    # (14 + 2*sqrt(46))*eps^2 has trace 6.5*10^10 and norm 12.  Its root's
    # window runs even a down from 255,526, and no root fits: one node,
    # charged its 127,764 a-steps first, refutes it.
    ctx = RingContext(46)
    eps = ctx.from_sqrt_pair(24335, 3588)
    alpha = ctx.from_sqrt_pair(14, 2) * eps * eps
    assert alpha.half_coords == (65294309212, 9627120676)
    work = 255526 // 2 + 1 + 1
    verdict = decompose_sos(alpha, node_budget=work - 1)
    assert (verdict.kind, verdict.nodes) == (VerdictKind.BUDGET_EXCEEDED, 0)
    verdict = decompose_sos(alpha, node_budget=work)
    assert (verdict.kind, verdict.nodes) == (VerdictKind.EXHAUSTED_NONE, 1)
    # Squares of units carry sums of squares to sums of squares, and the
    # sweep agrees that 14 + 2*sqrt(46) is none.
    assert Sweep(ctx, 28).length(ctx.from_sqrt_pair(14, 2)) is None


@pytest.mark.parametrize(
    "d,root,exponent,budget",
    [
        (2, (2, 2), 10, 10**6),
        (2, (2, 2), 20, None),
        (13, (3, 1), 15, None),
    ],
)
def test_a_square_of_huge_trace_is_found_at_its_window_top(d, root, exponent, budget):
    # A square's root tops its target's window, so the search descends at
    # once: 2 nodes, for (1+sqrt2)^20 at a budget of 10^6 and for
    # (1+sqrt2)^40 and ((3+sqrt13)/2)^30 at the default budget.
    ctx = RingContext(d)
    unit = _power(ctx.from_half_pair(*root), exponent)
    kwargs = {} if budget is None else {"node_budget": budget}
    verdict = decompose_sos(unit * unit, **kwargs)
    assert (verdict.kind, verdict.nodes) == (VerdictKind.FOUND, 2)
    assert verdict.decomposition.terms == (unit,)


@pytest.mark.parametrize(
    "coords,nodes",
    [
        ((1414002, 105610), 9),
        ((1861168, 251718), 6),
        ((1225127, -184530), 7),
        ((1090122, 45668), 7),
    ],
)
def test_a_large_element_is_decided_in_the_nodes_of_its_proof(coords, nodes):
    # Traces 2.2-3.7*10^6 in D = 7: some 0.4-0.7 M roots fit each, and a
    # search that listed them would spend its budget of 10^5 before its
    # first node.  The windows reach the same decomposition in as many nodes.
    ctx = RingContext(7)
    verdict = decompose_sos(ctx.from_sqrt_pair(*coords), node_budget=10**5)
    assert (verdict.kind, verdict.nodes) == (VerdictKind.FOUND, nodes)


def test_a_thin_element_in_budget_keeps_only_the_roots_that_fit():
    # 2*eps^12, eps = 1 + sqrt(2), has trace 78,404 and conjugate 3*10^-9:
    # some 43,000 roots square to a trace below its own, and only a
    # handful fit it.  Listing them all would hold about 6 MB.
    ctx = RingContext(2)
    alpha = ctx.from_int(2) * _power(ctx.from_sqrt_pair(1, 1), 12)
    assert alpha.half_coords == (78404, 55440)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        verdict = decompose_sos(alpha)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert verdict.kind is VerdictKind.FOUND
    assert peak < 2**20


def test_a_window_keeps_roots_below_a_negative_upper_end():
    # (2 - sqrt2)^2 = 6 - 4*sqrt2, searched with two terms allowed so that
    # the root walks its window: at a = 4 the largest b*sqrt2 is
    # 2 - 4 < 0, and the root (4, -2) lies below it.
    got = _pysearch.run_search(RingContext(2), 12, -8, 2, 100)
    assert got == (_pysearch.STATUS_FOUND, 2, [(4, -2)])


# ---------------------------------------------------------------------------
# the last term


@pytest.mark.parametrize("d", RING_DS)
def test_root_of_matches_the_listed_roots(d):
    ctx = RingContext(d)
    by_square = {(r[2], r[3]): (r[0], r[1]) for r in brute_roots(d, 60)}
    for big_a, big_b in _targets(d, 60):
        expected = by_square.get((big_a, big_b))
        assert _pysearch._root_of(ctx, big_a, big_b) == expected, (big_a, big_b)


@pytest.mark.parametrize(
    "d,a,b",
    [
        (2, 2 * 10**39 + 6, -4 * 10**38 - 2),
        (7, 10**40 + 4, 3 * 10**39 + 8),
        (13, 9 * 10**39 + 1, -7 * 10**39 - 3),
        (5, 0, 2 * 10**39 + 2),
        (17, 10**40 + 12, 0),
    ],
)
def test_root_of_is_exact_past_float_range(d, a, b):
    ctx = RingContext(d)
    root = ctx.from_half_pair(a, b)
    square = root * root
    assert _pysearch._root_of(ctx, *square.half_coords) == (a, b)
    # Totally positive, and no square.
    assert _pysearch._root_of(ctx, *(square + 2).half_coords) is None


def test_root_of_refuses_a_root_outside_the_ring():
    # (2 + sqrt3)/2 lies outside O when D = 3, and squares back from
    # (1 + sqrt3)/2, which does too: the search builds its last term
    # unchecked, so the integrality check here is the one that stands.
    with pytest.raises(ValueError, match="not integral"):
        _pysearch._root_of(RingContext(3), 2, 1)


# ---------------------------------------------------------------------------
# the windowed traversal

# Where the windows are sparse: D = 57 and D = 93, both kappa = 1.
WINDOW_DS = RING_DS + (57, 93)


def _searches(d, trace_bound):
    """Each target to trace_bound, with the row scan's candidates for it."""
    for big_a, big_b in _targets(d, trace_bound):
        yield big_a, big_b, reference_candidates(d, big_a, big_b, 10**8)


@pytest.mark.parametrize("d", WINDOW_DS)
def test_lazy_traversal_matches_the_reference(d):
    # The same (status, nodes, terms) as the reference over the row scan's
    # descending list: plain, capped and shortest.
    ctx = RingContext(d)
    for big_a, big_b, cands in _searches(d, 40):
        for depth in (big_a // 2, 1, 2, 3, 4, 5):
            for shortest in (False, True):
                args = (ctx, big_a, big_b, depth, 10**7, shortest)
                want = reference_search(d, big_a, big_b, cands, depth, 10**7, shortest)
                assert _pysearch.run_search(*args) == want, args


@pytest.mark.parametrize("d", [2, 5, 6, 13])
def test_lazy_traversal_stops_at_the_same_node_under_any_budget(d):
    # The budget counts nodes plus window steps.  A search stopped after
    # `nodes` nodes was about to visit one more: the reference, walking the
    # same nodes in the same order, stops at node nodes + 1 under a node
    # budget of `nodes`.
    ctx = RingContext(d)
    for big_a, big_b, cands in _searches(d, 26):
        for shortest in (False, True):
            args = (ctx, big_a, big_b, big_a // 2)
            full = _pysearch.run_search(*args, 10**7, shortest)
            budget, last = 1, 0
            while (got := _pysearch.run_search(*args, budget, shortest)) != full:
                status, nodes, terms = got
                assert (status, terms) == (_pysearch.STATUS_BUDGET, None), (args, budget)
                assert last <= nodes < budget
                ref = reference_search(d, big_a, big_b, cands, big_a // 2, nodes, shortest)
                assert ref == (_pysearch.STATUS_BUDGET, nodes + 1, None), (args, budget)
                budget, last = budget + 1 + budget // 4, nodes


def test_lazy_traversal_matches_the_reference_on_deep_refutations():
    # Where 2 ramifies, an element with an odd sqrt(D)-coefficient is no
    # square mod 2*O; `decompose` refutes it at the root, but the traversal
    # itself must exhaust, over thousands of nodes at traces 70-80.
    nodes = 0
    for d in (6, 7, 10):
        ctx = RingContext(d)
        deep = [
            alpha.half_coords
            for alpha in scan_totally_positive(ctx, 80)
            if alpha.trace >= 70 and alpha.half_coords[1] % 4 == 2
        ]
        for big_a, big_b in deep[:8]:
            cands = reference_candidates(d, big_a, big_b, 10**8)
            # Capped at 5 terms, as `sint` searches, many nodes have one
            # term left.
            for depth in (big_a // 2, 3, 4, 5):
                for shortest in (False, True):
                    args = (ctx, big_a, big_b, depth, 10**8, shortest)
                    result = _pysearch.run_search(*args)
                    assert result[0] == _pysearch.STATUS_EXHAUSTED
                    want = reference_search(d, big_a, big_b, cands, depth, 10**8, shortest)
                    assert result == want, args
                    nodes += result[1]
    assert nodes > 5000


@pytest.mark.parametrize("d", RING_DS)
def test_found_terms_are_canonical_and_non_increasing(d):
    # Each window lies at or below its parent's pick, in descending order,
    # and the arithmetic last term never lies above the previous pick, so
    # every hit lists nonzero canonical roots in non-increasing (A, B)
    # order; a Decomposition keeps them as they come.  Every pair, walked
    # or computed, is integral: A = B (mod 2), and B even unless D = 1 (mod 4).
    ctx = RingContext(d)
    found = 0
    for big_a, big_b in _targets(d, 60):
        plain = None
        runs = [(big_a // 2, False), (big_a // 2, True)]
        runs += [(depth, False) for depth in range(1, 6)]
        for depth, shortest in runs:
            args = (ctx, big_a, big_b, depth, 10**8, shortest)
            status, _, terms = _pysearch.run_search(*args)
            if status != _pysearch.STATUS_FOUND:
                continue
            assert all(a > 0 or (a == 0 and b > 0) for a, b in terms), args
            assert terms == sorted(terms, reverse=True), args
            assert all((a - b) % 2 == 0 == b % ctx.kappa for a, b in terms), args
            found += 1
            if (depth, shortest) == runs[0]:
                plain = terms
        decomposition = decompose_sos(ctx.from_half_pair(big_a, big_b)).decomposition
        got = None if decomposition is None else [t.half_coords for t in decomposition.terms]
        assert got == plain
    assert found > 500
