"""The exhaustive sum-of-squares oracle: decompositions, refutations, lengths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslab import (
    BudgetExceeded,
    Decomposition,
    RingContext,
    SKind,
    Sweep,
    VerdictKind,
    decompose_sos,
    is_square_mod_two,
    is_sum_of_squares,
    pythagoras_length,
    s_element,
    s_is_sum_of_squares,
    scan_totally_positive,
    shortest_decomposition,
)
from soslab import _pysearch

SMALL_DS = st.sampled_from([2, 3, 5, 6, 7, 13, 17, 21])

# Every totally positive element of trace <= 14 over the standard D values:
# a finite pool the strategies can draw from without any filtering.
_TP_POOL = [
    alpha
    for d in (2, 3, 5, 6, 7, 13, 17, 21)
    for alpha in scan_totally_positive(RingContext(d), 14)
]


def tp_elements():
    return st.sampled_from(_TP_POOL)


# ---------------------------------------------------------------------------
# candidate enumeration


def candidate_roots(gamma):
    """The candidate roots the search consumes for gamma, as ring elements."""
    ctx = gamma.ctx
    big_a, big_b = gamma.half_coords
    raw = _pysearch.generate_candidates(ctx, big_a, big_b, 10**8)
    return [ctx.from_half_pair(a, b) for a, b, _, _ in raw]


def test_candidate_roots_d3_example():
    ctx = RingContext(3)
    gamma = ctx.from_sqrt_pair(4, 2)
    # Only 1 + sqrt3 survives: 2^2 = 4 exceeds the small conjugate
    # 4 - 2 sqrt3 = 0.535..., and so does every rational square > 0... except 1?
    # 1 <= 0.535 is false, so even 1 is excluded.
    assert [str(c) for c in candidate_roots(gamma)] == ["1+sqrt3"]


def test_candidate_roots_d2_example():
    ctx = RingContext(2)
    gamma = ctx.from_sqrt_pair(4, 2)  # sigma2 = 1.17...
    got = [str(c) for c in candidate_roots(gamma)]
    assert got == ["1+sqrt2", "1"]


def test_candidate_roots_canonical_signs(ctx6):
    gamma = ctx6.from_int(100)
    cands = candidate_roots(gamma)
    assert all(
        c.half_coords[0] > 0 or (c.half_coords[0] == 0 and c.half_coords[1] > 0)
        for c in cands
    )
    # squares are embedding-wise below gamma
    for c in cands:
        assert (gamma - c.square()).is_totally_nonnegative()
    # descending by half-coordinates
    keys = [c.half_coords for c in cands]
    assert keys == sorted(keys, reverse=True)


@given(tp_elements())
@settings(max_examples=60, deadline=None)
def test_candidate_roots_complete(gamma):
    """Brute force over the coefficient box finds nothing extra.

    Canonical means positive leading half-coordinate: A > 0, or A = 0 and
    B > 0, picking exactly one of each +-beta pair.
    """
    ctx = gamma.ctx
    got = set(candidate_roots(gamma))
    bound = gamma.half_coords[0] + 2
    brute = set()
    for u in range(-bound, bound + 1):
        for v in range(-bound, bound + 1):
            c = ctx.element(u, v)
            a, b = c.half_coords
            if (a > 0 or (a == 0 and b > 0)) and (
                gamma - c.square()
            ).is_totally_nonnegative():
                brute.add(c)
    assert got == brute


# ---------------------------------------------------------------------------
# decompositions: frozen examples


def test_found_example_d2(ctx2):
    v = decompose_sos(ctx2.from_sqrt_pair(4, 2))
    assert v.kind is VerdictKind.FOUND
    assert [str(t) for t in v.decomposition.terms] == ["1+sqrt2", "1"]


def test_refuted_example_d6(ctx6):
    v = decompose_sos(ctx6.from_sqrt_pair(6, 2))
    assert v.kind is VerdictKind.EXHAUSTED_NONE
    assert v.decomposition is None
    assert v.nodes >= 1


def test_perfect_square_is_found(ctx3):
    v = decompose_sos(ctx3.from_sqrt_pair(4, 2))  # (1+sqrt3)^2
    assert v.kind is VerdictKind.FOUND
    assert [str(t) for t in v.decomposition.terms] == ["1+sqrt3"]


def test_zero_and_units(ctx6):
    v = decompose_sos(ctx6.zero)
    assert v.kind is VerdictKind.FOUND and v.decomposition.terms == ()
    assert str(v.decomposition) == "0 = 0 (empty sum)"
    v = decompose_sos(ctx6.one)
    assert v.kind is VerdictKind.FOUND
    assert [str(t) for t in v.decomposition.terms] == ["1"]


def test_not_totally_nonneg_is_refuted_without_search(ctx6):
    v = decompose_sos(ctx6.element(-1, 0))
    assert v.kind is VerdictKind.EXHAUSTED_NONE
    assert v.nodes == 0
    v = decompose_sos(ctx6.element(4, 2))
    assert v.kind is VerdictKind.EXHAUSTED_NONE


def test_max_terms_cap(ctx2):
    alpha = ctx2.from_sqrt_pair(6, 2)  # shortest representation has 3 terms
    assert decompose_sos(alpha, max_terms=3).kind is VerdictKind.FOUND
    assert decompose_sos(alpha, max_terms=2).kind is VerdictKind.EXHAUSTED_NONE


def test_budget_verdict(ctx2):
    big = ctx2.from_int(10**4)
    v = decompose_sos(big, node_budget=3)
    assert v.kind is VerdictKind.BUDGET_EXCEEDED
    assert v.decomposition is None
    # Candidate generation alone would outrun the budget, so the guard
    # answers before any node is searched.
    assert v.nodes == 0
    with pytest.raises(BudgetExceeded):
        is_sum_of_squares(big, node_budget=3)


@pytest.mark.parametrize("n", [10**20, 10**80])
def test_candidate_scan_of_a_huge_target_stops_at_once(ctx2, n, monkeypatch):
    # About sqrt(n) rows of candidates; the rows are charged before any is
    # walked, so a budget of 10 stops the call before `root_table` counts
    # the roots of a single row.  At 10**80 a row holds more roots than
    # sys.maxsize.
    rows = _pysearch._rows
    walked = 0

    def counted(*args):
        nonlocal walked
        for row in rows(*args):
            walked += 1
            yield row

    monkeypatch.setattr(_pysearch, "_rows", counted)
    v = decompose_sos(ctx2.from_int(n), node_budget=10)
    assert (v.kind, v.nodes) == (VerdictKind.BUDGET_EXCEEDED, 0)
    assert walked == 0


def test_budget_message_does_not_overstate_the_nodes():
    # The candidate-work guard stops before any node is searched.
    with pytest.raises(BudgetExceeded) as exc:
        pythagoras_length(RingContext(13).element(20, 2), node_budget=2)
    assert exc.value.nodes == 0
    assert str(exc.value) == "no verdict within the node budget of 2 (0 nodes searched)"


# ---------------------------------------------------------------------------
# the parity invariant at the root

PARITY_TRACE = 30


def _odd_coefficient_elements(d):
    return [
        alpha
        for alpha in scan_totally_positive(RingContext(d), PARITY_TRACE)
        if alpha.v % 2
    ]


@pytest.mark.parametrize("d", [2, 3, 6, 7, 10, 11])
def test_odd_coefficient_is_refuted_at_the_root(d):
    ctx = RingContext(d)
    lengths = Sweep(ctx, PARITY_TRACE)
    elements = _odd_coefficient_elements(d)
    assert elements
    for alpha in elements:
        for max_terms in (None, 3):
            v = decompose_sos(alpha, max_terms=max_terms)
            assert (v.kind, v.nodes) == (VerdictKind.EXHAUSTED_NONE, 0), str(alpha)
        # Neither independent engine has the rule, and both agree.
        assert not lengths.is_sum_of_squares(alpha), str(alpha)
        big_a, big_b = alpha.half_coords
        cands = _pysearch.generate_candidates(ctx, big_a, big_b, 10**7)
        status, _, _ = _pysearch.run_search(ctx.D, big_a, big_b, cands, big_a // 2, 10**7)
        assert status == _pysearch.STATUS_EXHAUSTED, str(alpha)


@pytest.mark.parametrize("d", [5, 13, 17])
def test_no_parity_rule_when_two_does_not_ramify(d):
    elements = _odd_coefficient_elements(d)
    assert elements
    for alpha in elements:
        assert decompose_sos(alpha).nodes > 0, str(alpha)


def test_odd_coefficient_refutation_needs_no_budget():
    v = decompose_sos(RingContext(6).element(1200, 1), node_budget=1000)
    assert (v.kind, v.nodes) == (VerdictKind.EXHAUSTED_NONE, 0)


@pytest.mark.parametrize("d,u,v", [(2, 2, 1), (3, 5, 1), (6, 3, 1), (7, 3, 1)])
def test_sint_level_zero_costs_nothing_on_an_odd_coefficient(d, u, v):
    alpha = RingContext(d).element(u, v)
    verdict = s_is_sum_of_squares(s_element(alpha, 0, 2))
    assert verdict.kind is SKind.REPRESENTABLE
    assert verdict.j_used == 1
    assert verdict.nodes == decompose_sos(4 * alpha, max_terms=5).nodes


# ---------------------------------------------------------------------------
# soundness and invariance properties


@given(tp_elements())
@settings(max_examples=40, deadline=None)
def test_found_decompositions_recompose(alpha):
    v = decompose_sos(alpha, node_budget=10**6)
    if v.kind is VerdictKind.FOUND:
        total = alpha.ctx.zero
        for t in v.decomposition.terms:
            total = total + t.square()
        assert total == alpha
        assert len(v.decomposition.terms) <= max(alpha.trace, 0) // 2


@given(tp_elements())
@settings(max_examples=40, deadline=None)
def test_sums_of_squares_pass_the_local_test(alpha):
    v = decompose_sos(alpha, node_budget=10**6)
    if v.kind is VerdictKind.FOUND:
        assert is_square_mod_two(alpha)


@given(tp_elements(), st.data())
@settings(max_examples=25, deadline=None)
def test_verdict_kind_ignores_candidate_order(alpha, data):
    """FOUND/EXHAUSTED_NONE is a property of the element, not the list order."""
    ctx = alpha.ctx
    big_a, big_b = alpha.half_coords
    cands = _pysearch.generate_candidates(ctx, big_a, big_b, 10**6)
    shuffled = data.draw(st.permutations(cands))
    base_status, _, _ = _pysearch.run_search(
        ctx.D, big_a, big_b, cands, big_a // 2, 10**6
    )
    shuf_status, _, _ = _pysearch.run_search(
        ctx.D, big_a, big_b, shuffled, big_a // 2, 10**6
    )
    assert base_status == shuf_status


@given(st.sampled_from([2, 3, 5, 6, 7]), st.integers(1, 10), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_explicit_sums_are_recognized(d, a, b):
    ctx = RingContext(d)
    alpha = ctx.from_int(a).square() + ctx.element(0, 1).square() * b
    if alpha.is_totally_positive() and alpha.trace <= 60:
        assert is_sum_of_squares(alpha, node_budget=10**7)


# ---------------------------------------------------------------------------
# lengths


@pytest.mark.parametrize(
    "d,sqrt_pair,expected",
    [
        (3, (4, 2), 1),  # a perfect square
        (5, (3, 1), 2),
        (2, (4, 2), 2),
        (2, (6, 2), 3),
        (3, (6, 2), 3),
        (2, (1, 1), None),  # totally positive unit that is no sum of squares
        (6, (6, 2), None),
        (6, (3, 1), None),
    ],
)
def test_pythagoras_length_examples(d, sqrt_pair, expected):
    ctx = RingContext(d)
    assert pythagoras_length(ctx.from_sqrt_pair(*sqrt_pair)) == expected


def test_pythagoras_length_of_d5_case(ctx5):
    assert pythagoras_length(ctx5.element(3, 1)) == 3  # 3 + omega


def test_pythagoras_length_zero(ctx6):
    assert pythagoras_length(ctx6.zero) == 0
    assert pythagoras_length(ctx6.one) == 1


def test_pythagoras_length_budget_raises(ctx2):
    with pytest.raises(BudgetExceeded):
        pythagoras_length(ctx2.from_int(10**4), node_budget=3)


@given(tp_elements())
@settings(max_examples=30, deadline=None)
def test_length_is_minimal(alpha):
    n = pythagoras_length(alpha, node_budget=10**6)
    if n is not None and n > 0:
        assert decompose_sos(alpha, max_terms=n, node_budget=10**6).kind is VerdictKind.FOUND
        assert (
            decompose_sos(alpha, max_terms=n - 1, node_budget=10**6).kind
            is VerdictKind.EXHAUSTED_NONE
        )


# ---------------------------------------------------------------------------
# the branch-and-bound kernel against the sweep

KERNEL_DS = (2, 3, 5, 6, 7, 10, 13, 17, 21, 29)
KERNEL_TRACE = 60


@pytest.fixture(scope="module")
def kernel_box():
    """(element, sweep length) for every totally positive element of the box."""
    box = []
    for d in KERNEL_DS:
        ctx = RingContext(d)
        sweep = Sweep(ctx, KERNEL_TRACE)
        box.extend((alpha, sweep.length(alpha)) for alpha in scan_totally_positive(ctx, KERNEL_TRACE))
    return box


def test_kernel_box_size(kernel_box):
    assert len(kernel_box) == 4732


def test_shortest_search_matches_the_sweep(kernel_box):
    for alpha, length in kernel_box:
        assert pythagoras_length(alpha) == length, str(alpha)
        verdict = shortest_decomposition(alpha)
        if length is None:
            assert verdict.kind is VerdictKind.EXHAUSTED_NONE, str(alpha)
        else:
            assert len(verdict.decomposition) == length, str(alpha)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_capped_search_matches_the_sweep(kernel_box, k):
    for alpha, length in kernel_box:
        verdict = decompose_sos(alpha, max_terms=k)
        if length is not None and length <= k:
            assert verdict.kind is VerdictKind.FOUND, str(alpha)
            assert len(verdict.decomposition) <= k, str(alpha)
        else:
            assert verdict.kind is VerdictKind.EXHAUSTED_NONE, str(alpha)


@given(tp_elements(), st.data())
@settings(max_examples=25, deadline=None)
def test_shortest_length_ignores_candidate_order(alpha, data):
    ctx = alpha.ctx
    big_a, big_b = alpha.half_coords
    cands = _pysearch.generate_candidates(ctx, big_a, big_b, 10**6)
    shuffled = data.draw(st.permutations(cands))
    runs = [
        _pysearch.run_search(ctx.D, big_a, big_b, order, big_a // 2, 10**6, True)
        for order in (cands, shuffled)
    ]
    assert [status for status, _, _ in runs] == [runs[0][0]] * 2
    assert [len(terms or ()) for _, _, terms in runs] == [len(runs[0][2] or ())] * 2


def test_budget_after_a_hit_claims_no_length(kernel_box):
    # Elements whose first decomposition found is longer than the shortest.
    overshooting = [
        (alpha, length)
        for alpha, length in kernel_box
        if length is not None and len(decompose_sos(alpha).decomposition) > length
    ]
    assert len(overshooting) >= 50
    for alpha, length in overshooting[::5]:
        big_a, big_b = alpha.half_coords
        ctx = alpha.ctx
        cands = _pysearch.generate_candidates(ctx, big_a, big_b, 10**6)
        full = _pysearch.run_search(ctx.D, big_a, big_b, cands, big_a // 2, 10**6, True)
        first_hit = decompose_sos(alpha).nodes
        # Every budget from the first hit up to the last node stops between
        # a hit and the proof that nothing shorter exists.
        for budget in range(first_hit, full[1]):
            status, _, terms = _pysearch.run_search(
                ctx.D, big_a, big_b, cands, big_a // 2, budget, True
            )
            assert (status, terms) == (_pysearch.STATUS_BUDGET, None), (str(alpha), budget)
            with pytest.raises(BudgetExceeded):
                pythagoras_length(alpha, node_budget=budget)
        assert full[0] == _pysearch.STATUS_FOUND and len(full[2]) == length


def test_decomposition_normalizes_and_verifies(ctx2):
    alpha = ctx2.from_int(2)
    # Terms are kept as given: neither sign-flipped nor sorted.
    dec = Decomposition(alpha, (ctx2.from_int(-1), ctx2.one))
    assert [str(t) for t in dec.terms] == ["-1", "1"]
    with pytest.raises(ValueError):
        Decomposition(alpha, (ctx2.one,))
    # Zero terms are kept too, so the term count refuses padding.
    padded = (alpha, ctx2.zero)
    assert Decomposition(ctx2.from_int(4), padded).terms == padded
    with pytest.raises(ValueError, match="more terms than the trace"):
        Decomposition(ctx2.from_int(1), (ctx2.one, ctx2.zero, ctx2.zero))


def test_decomposition_checks_the_ring_and_both_coordinates(ctx2, ctx3):
    with pytest.raises(ValueError, match="different rings"):
        Decomposition(ctx2.from_int(1), (ctx3.one,))
    # 1 + (1 + sqrt2)^2 = 4 + 2*sqrt2: the rational part alone is not enough.
    root = ctx2.element(1, 1)
    assert Decomposition(ctx2.element(4, 2), (ctx2.one, root)).terms == (ctx2.one, root)
    with pytest.raises(ValueError, match=r"sum of squares is 4\+2sqrt2, target is 4-2sqrt2"):
        Decomposition(ctx2.element(4, -2), (ctx2.one, root))
