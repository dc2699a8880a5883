"""The search kernel against reference copies of its earlier form.

`reference_candidates` is the row scan `generate_candidates` ran before
each ring kept a root table: every row b, every a of the row, one exact fit
test each.  `reference_search` is the traversal that built a filtered
candidate list for each child.  It also keeps the earlier last term: a
lookup of the remainder's square among the candidates at or after the
current position, and a separate path for a node with two terms left, so
it is an independent oracle for the kernel's arithmetic completion
(`_pysearch._root_of`).  Both stay here as oracles: the table-backed
candidate lists, the lazy fit tests and the arithmetic last term must give
the same lists, the same budget boundaries and the same
(status, nodes, terms).
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
# the root table


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
    roots, count = _pysearch.root_table(ctx, 44, 10**8)
    assert roots[:count] == brute_roots(d, 44)


@pytest.mark.parametrize("d", RING_DS)
def test_the_table_only_grows_by_appending(d):
    ctx = RingContext(d)
    seen = []
    for trace_bound in (0, 7, 3, 20, 20, 61, 1, 100):
        roots, count = _pysearch.root_table(ctx, trace_bound, 10**8)
        assert roots[:count] == brute_roots(d, trace_bound)
        assert roots[: len(seen)] == seen
        seen = list(roots)
    assert seen == brute_roots(d, 100)


# For D = 3 and 7, b_max = isqrt(2A // D) is odd: the last row is odd, so
# not integral, and the row scan's budget test never counted it.
@pytest.mark.parametrize(
    "d,big_a,big_b", [(2, 40, 8), (6, 50, -4), (5, 37, 5), (13, 33, 1), (3, 20, 4), (7, 40, 2)]
)
@pytest.mark.parametrize("warm", [None, 10, 40, 200])
def test_budget_boundaries_match_the_row_scan(d, big_a, big_b, warm):
    threshold = work_threshold(d, big_a, big_b)
    for budget in (threshold - 1, threshold):
        ctx = RingContext(d)
        if warm is not None:
            _pysearch.root_table(ctx, warm, 10**8)
        before = list(_pysearch.root_table(ctx, -1, 0)[0])
        if budget < threshold:
            with pytest.raises(BudgetExceeded) as exc:
                _pysearch.generate_candidates(ctx, big_a, big_b, budget)
            assert exc.value.nodes == 0
            # Charged before any root is added.
            assert _pysearch.root_table(ctx, -1, 0)[0] == before
        else:
            got = _pysearch.generate_candidates(ctx, big_a, big_b, budget)
            assert got == reference_candidates(d, big_a, big_b, budget)


def test_a_thin_element_with_a_huge_trace_stops_at_once():
    # eps = 24335 + 3588*sqrt(46) is the fundamental unit; the element
    # (14 + 2*sqrt(46))*eps^2 has trace 6.5*10^10 and norm 12.
    # Its roots are counted before any is listed: listing the 9 * 10^5
    # roots the budget admits would hold about 120 MB.
    ctx = RingContext(46)
    eps = ctx.from_sqrt_pair(24335, 3588)
    alpha = ctx.from_sqrt_pair(14, 2) * eps * eps
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        verdict = decompose_sos(alpha, node_budget=10**6)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (verdict.kind, verdict.nodes) == (VerdictKind.BUDGET_EXCEEDED, 0)
    assert _pysearch.root_table(ctx, -1, 0)[0] == []
    assert peak < 2**20


def test_building_a_context_builds_no_table():
    # A context's table waits for its first search: `import soslab` and
    # RingContext(d) stay as cheap as before.
    ctx = RingContext(7)
    assert not hasattr(ctx, "_table")
    decompose_sos(ctx.from_int(5))
    assert hasattr(ctx, "_table")


def test_context_identity_ignores_its_table():
    ctx = RingContext(6)
    decompose_sos(ctx.from_int(30))
    fresh = RingContext(6)
    assert ctx == fresh and hash(ctx) == hash(fresh)
    assert repr(ctx) == repr(fresh) == "RingContext(D=6)"
    data = pickle.dumps(ctx)
    assert data == pickle.dumps(fresh)
    copy = pickle.loads(data)
    assert copy == ctx and hash(copy) == hash(ctx) and copy.kappa == 2
    # The copy starts a table of its own.
    assert not hasattr(copy, "_table")
    roots, count = _pysearch.root_table(copy, 30, 10**8)
    assert roots[:count] == _pysearch.root_table(ctx, 30, 10**8)[0][:count]


def test_a_table_is_freed_with_its_context():
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        ctx = RingContext(7)
        roots, count = _pysearch.root_table(ctx, 20000, 10**8)
        held = tracemalloc.get_traced_memory()[0] - before
        del ctx, roots
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    # 5,931 roots at about 145 bytes each.
    assert count > 2500 and held > 100 * count
    assert left < 4096


@pytest.mark.parametrize("d", RING_DS)
def test_a_capped_table_gives_the_same_lists_and_boundaries(d, monkeypatch):
    # The cap holds the roots to trace 24: targets past it are scanned
    # row by row, the rest come from the table.
    cap = len(brute_roots(d, 24))
    monkeypatch.setattr(_pysearch, "TABLE_ROOTS", cap)
    targets = _targets(d, 44)
    random.Random(d).shuffle(targets)
    ctx = RingContext(d)
    for big_a, big_b in targets:
        got = _pysearch.generate_candidates(ctx, big_a, big_b, 10**8)
        assert got == reference_candidates(d, big_a, big_b, 10**8), (big_a, big_b)
    roots, done = ctx._table
    assert done < 44 and len(roots) <= cap and roots == brute_roots(d, done)
    big_a, big_b = 44, 0
    threshold = work_threshold(d, big_a, big_b)
    with pytest.raises(BudgetExceeded):
        _pysearch.generate_candidates(ctx, big_a, big_b, threshold - 1)
    assert _pysearch.generate_candidates(ctx, big_a, big_b, threshold) == reference_candidates(
        d, big_a, big_b, threshold
    )


@pytest.mark.parametrize("d", (2, 5, 7))
def test_a_sweep_past_the_table_cap_lists_its_roots_itself(d, monkeypatch):
    full = Sweep(RingContext(d), 30)
    monkeypatch.setattr(_pysearch, "TABLE_ROOTS", len(brute_roots(d, 30)) - 1)
    ctx = RingContext(d)
    capped = Sweep(ctx, 30)
    assert not hasattr(ctx, "_table")
    for alpha in scan_totally_positive(ctx, 30):
        assert capped.length(alpha) == full.length(alpha)


def test_a_thin_element_in_budget_keeps_only_the_roots_that_fit():
    # 2*eps^12, eps = 1 + sqrt(2), has trace 78,404 and conjugate 3*10^-9:
    # some 43,000 roots square to a trace below its own, past TABLE_ROOTS,
    # and only a handful fit it.  Listing them all would hold about 6 MB
    # for as long as the context.
    ctx = RingContext(2)
    alpha = ctx.from_int(2)
    for _ in range(12):
        alpha = alpha * ctx.from_sqrt_pair(1, 1)
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
    assert not hasattr(ctx, "_table")
    assert peak < 2**20


# ---------------------------------------------------------------------------
# the last term


@pytest.mark.parametrize("d", RING_DS)
def test_root_of_matches_the_listed_roots(d):
    by_square = {(r[2], r[3]): (r[0], r[1]) for r in brute_roots(d, 60)}
    for big_a, big_b in _targets(d, 60):
        expected = by_square.get((big_a, big_b))
        assert _pysearch._root_of(d, big_a, big_b) == expected, (big_a, big_b)


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
    assert _pysearch._root_of(d, *square.half_coords) == (a, b)
    # Totally positive, and no square.
    assert _pysearch._root_of(d, *(square + 2).half_coords) is None


# ---------------------------------------------------------------------------
# the lazy traversal


def _searches(d, trace_bound):
    ctx = RingContext(d)
    for big_a, big_b in _targets(d, trace_bound):
        cands = _pysearch.generate_candidates(ctx, big_a, big_b, 10**8)
        yield big_a, big_b, cands


@pytest.mark.parametrize("d", RING_DS)
def test_lazy_traversal_matches_the_reference(d):
    rng = random.Random(d)
    for big_a, big_b, cands in _searches(d, 32):
        shuffled = rng.sample(cands, len(cands))
        for order in (cands, shuffled):
            for depth in (big_a // 2, 1, 2, 3, 4):
                for shortest in (False, True):
                    args = (d, big_a, big_b, order, depth, 10**7, shortest)
                    assert _pysearch.run_search(*args) == reference_search(*args), args


@pytest.mark.parametrize("d", [2, 5, 6, 13])
def test_lazy_traversal_stops_at_the_same_node_under_any_budget(d):
    rng = random.Random(d)
    for big_a, big_b, cands in _searches(d, 26):
        shuffled = rng.sample(cands, len(cands))
        for order in (cands, shuffled):
            for shortest in (False, True):
                full = reference_search(d, big_a, big_b, order, big_a // 2, 10**7, shortest)
                for budget in range(1, full[1] + 1, max(1, full[1] // 7)):
                    args = (d, big_a, big_b, order, big_a // 2, budget, shortest)
                    assert _pysearch.run_search(*args) == reference_search(*args), args


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
            cands = _pysearch.generate_candidates(ctx, big_a, big_b, 10**8)
            # Capped at 5 terms, as `sint` searches, many nodes have one
            # term left.
            for depth in (big_a // 2, 3, 4, 5):
                for shortest in (False, True):
                    args = (d, big_a, big_b, cands, depth, 10**8, shortest)
                    result = _pysearch.run_search(*args)
                    assert result[0] == _pysearch.STATUS_EXHAUSTED
                    assert result == reference_search(*args), args
                    nodes += result[1]
    assert nodes > 5000
