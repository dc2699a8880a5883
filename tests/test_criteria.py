"""Interval criterion, witness elements, and multiplier thresholds."""

from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslab import (
    NotOdd,
    NotRamified,
    NotTotallyPositive,
    RingContext,
    ScanSpec,
    decompose_sos,
    doubling_witness,
    dyadic_valuation,
    is_square_mod_two,
    is_sum_of_squares,
    large_multiplier_guaranteed,
    odd_multiple_witness,
    peters_five_squares,
    peters_guaranteed,
    peters_interval,
    ramified_obstruction_witness,
    run_claims,
    scan_totally_positive,
    small_multiplier_obstructed,
)
from soslab import criteria, verify
from soslab.criteria import _admissible_points, _interval, multiple_misses
from soslab.quadfield import QuadInt, _box_rows, square_factor

# ---------------------------------------------------------------------------
# the interval criterion


def test_interval_worked_example_d5(ctx5):
    alpha = ctx5.from_sqrt_pair(3, 1)  # 3 + sqrt5
    iv = peters_interval(alpha)
    assert (iv.scale, iv.center, iv.radicand) == (5, 6, 16)
    assert iv.parity_required == 0  # n must be even, like v = 2
    assert tuple(iv.admissible) == (2,)
    assert 2 in iv.admissible and 1 not in iv.admissible and 3 not in iv.admissible
    assert peters_five_squares(alpha)


def test_interval_worked_example_d3(ctx3):
    alpha = ctx3.from_sqrt_pair(4, 2)
    iv = peters_interval(alpha)
    assert (iv.scale, iv.center, iv.radicand) == (6, 4, 4)
    assert tuple(iv.admissible) == (1,)
    assert peters_five_squares(alpha)


def test_interval_inapplicable_for_odd_radical_part(ctx6):
    # Odd sqrtD-coefficient: no candidate n exists; the test reports false.
    assert peters_interval(ctx6.element(3, 1)) is None
    assert not peters_five_squares(ctx6.element(3, 1))


def test_interval_requires_total_positivity(ctx5):
    with pytest.raises(NotTotallyPositive):
        peters_interval(ctx5.element(-3, 0))
    with pytest.raises(NotTotallyPositive):
        peters_interval(ctx5.zero)


def test_interval_empty_means_no_claim(ctx6):
    # 6 + 2 sqrt6 is even in the radical part yet the interval is empty.
    alpha = ctx6.from_sqrt_pair(6, 2)
    iv = peters_interval(alpha)
    assert iv is not None
    assert tuple(iv.admissible) == ()
    assert not peters_five_squares(alpha)


def _admissible_by_scan(scale, center, radicand, parity):
    """Reference: test every n in a window around the interval."""
    root = isqrt(radicand)
    lo = (center - root) // scale - 1
    hi = (center + root) // scale + 1
    out = []
    for n in range(lo, hi + 1):
        t = scale * n - center
        if t * t <= radicand and (parity is None or n % 2 == parity):
            out.append(n)
    return tuple(out)


def test_admissible_points_match_a_scan():
    for scale in range(1, 7):
        for center in range(-30, 31):
            for radicand in range(101):
                for parity in (None, 0, 1):
                    args = (scale, center, radicand, parity)
                    assert tuple(_admissible_points(*args)) == _admissible_by_scan(*args), args


def test_row_bound_matches_the_interval_on_every_small_element():
    # One bound per trace row against the admissible integers of each
    # element's own interval, and against peters_five_squares, on every
    # totally positive element of trace <= 60 for every squarefree D < 120.
    checked = 0
    for d in range(2, 120):
        if square_factor(d) is not None:
            continue
        ctx = RingContext(d)
        for alpha in scan_totally_positive(ctx, 60):
            big_a, big_b = alpha.half_coords
            interval = peters_interval(alpha)
            hit = interval is not None and bool(interval.admissible)
            row = interval is not None and d * big_b * big_b <= criteria._row_bound(ctx, big_a)
            assert row is hit is peters_five_squares(alpha), (d, str(alpha))
            checked += 1
    assert checked == 14780


GUARANTEE_DS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 21)


@pytest.mark.parametrize("d", GUARANTEE_DS)
def test_norm_guarantee_implies_an_admissible_integer(d):
    ctx = RingContext(d)
    guaranteed = 0
    for alpha in scan_totally_positive(ctx, 200):
        if not peters_guaranteed(alpha):
            continue
        guaranteed += 1
        iv = peters_interval(alpha)
        assert iv is not None, str(alpha)
        assert iv.admissible, str(alpha)
    assert guaranteed > 0


@pytest.mark.parametrize("d", GUARANTEE_DS)
def test_norm_guarantee_is_the_large_multiplier_bound(d):
    ctx = RingContext(d)
    for m in range(1, 2 * d + 2):
        assert large_multiplier_guaranteed(ctx, m) is (2 * m >= d)


def test_norm_guarantee_refuses_odd_coefficients_and_nonpositive_elements(ctx6):
    assert not peters_guaranteed(ctx6.element(1000, 1))
    assert peters_guaranteed(ctx6.element(1000, 2))
    with pytest.raises(NotTotallyPositive):
        peters_guaranteed(ctx6.element(-1, 0))


def test_even_multiple_misses_match_the_interval_test():
    # The integer decision against the interval test on 2m*beta, for every
    # m_max from 1 to past what stable-multiplier scans by default, and for
    # every prefix of the betas: each pass must list exactly the rejected
    # pairs, by index, then in increasing m.
    for d in range(2, 60):
        if square_factor(d) is not None:
            continue
        ctx = RingContext(d)
        betas = list(scan_totally_positive(ctx, 24))
        top = -(-d // 2) + 3
        misses = [
            (i, m)
            for i, beta in enumerate(betas)
            for m in range(1, top + 1)
            if not peters_five_squares(2 * m * beta)
        ]
        for m_max in range(1, top + 1):
            expected = [(i, m) for i, m in misses if m <= m_max]
            assert list(multiple_misses(ctx, betas, m_max)) == expected, (d, m_max)
            for n in range(len(betas) + 1):
                prefix = [(i, m) for i, m in expected if i < n]
                assert list(multiple_misses(ctx, betas[:n], m_max)) == prefix, (d, m_max, n)


def test_radicand_bound_leaves_every_multiple_interval_nonempty():
    # The bound multiple_misses decides by, checked against the full interval
    # of k*beta over the same rings, box and multipliers as the test above.
    checked = 0
    for d in range(2, 60):
        if square_factor(d) is not None:
            continue
        ctx = RingContext(d)
        radicand_k = {k: _interval(ctx.from_int(k))[2] for k in range(1, 2 * -(-d // 2) + 3)}
        for beta in scan_totally_positive(ctx, 24):
            for k, radicand in radicand_k.items():
                shape = _interval(k * beta)
                if shape is None:
                    continue
                assert shape[2] == radicand * beta.norm, (d, str(beta), k)
                if criteria._radicand_hits(ctx, shape[2]):
                    checked += 1
                    assert _admissible_points(*shape), (d, str(beta), k)
    assert checked > 0


def test_the_table_stops_where_2m_is_guaranteed():
    # The closed form ceil(kappa*D/4) against the first m whose 2m passes
    # peters_guaranteed, from which on every 2m*beta hits.
    for d in range(2, 201):
        if square_factor(d) is not None:
            continue
        ctx = RingContext(d)
        first = next(m for m in range(1, d + 1) if peters_guaranteed(ctx.from_int(2 * m)))
        assert first == (-(-d // 4) if d % 4 == 1 else -(-d // 2)), d
        for m_max in (1, first - 1, first, 10**12):
            assert criteria.tabled_multipliers(ctx, m_max) == min(m_max, first - 1), d


@pytest.mark.parametrize("d", GUARANTEE_DS)
def test_large_multiples_compute_no_interval(d, monkeypatch):
    # Past the radicand bound the pass computes no interval and finds no
    # miss, however far m_max runs.
    calls = []

    def counted(*args):
        calls.append(args)
        return _admissible_points(*args)

    monkeypatch.setattr(criteria, "_admissible_points", counted)
    ctx = RingContext(d)
    betas = list(scan_totally_positive(ctx, 30))
    # 2m*beta has norm at least 4m^2 = N(2m), so these m hit for every beta.
    large = [m for m in range(1, 2 * d + 2) if peters_guaranteed(ctx.from_int(2 * m))]
    assert large

    def pass_and_calls(m_max):
        calls.clear()
        return list(multiple_misses(ctx, betas, m_max)), list(calls)

    below = pass_and_calls(large[0] - 1)
    for m_max in (large[0], large[-1], 10**12):
        assert pass_and_calls(m_max) == below, (d, m_max)


class _CountedBetas(list):
    """A beta list that counts every beta read from it."""

    reads = 0

    def __iter__(self):
        for beta in super().__iter__():
            self.reads += 1
            yield beta


def test_stable_multiplier_pass_stops_at_the_radicand_bound(monkeypatch):
    # Over the acceptance box, stable-multiplier reads one beta per nonempty
    # row, 741 of the 3,930 scanned, and computes an admissible range only
    # for the pairs (2m, beta) whose radicand is below D^2: 1,474 (its
    # reports count 35,026 instances, each m up to its first miss).
    ranges = []

    def counted_range(*args):
        ranges.append(args)
        return _admissible_points(*args)

    passed = []

    def counted_pass(ctx, betas, m_max):
        passed.append(_CountedBetas(betas))
        return multiple_misses(ctx, passed[-1], m_max)

    monkeypatch.setattr(criteria, "_admissible_points", counted_range)
    monkeypatch.setattr(verify, "multiple_misses", counted_pass)
    d_list = tuple(d for d in range(2, 51) if square_factor(d) is None)
    reports = run_claims(ScanSpec(d_list, 40), ["stable-multiplier"])
    sizes = [len(list(scan_totally_positive(RingContext(d), 40))) for d in d_list]
    rows = [sum(1 for _, row in _box_rows(RingContext(d), 40) if row) for d in d_list]
    assert sum(sizes) == 3930
    assert sum(betas.reads for betas in passed) == sum(rows) == 741
    assert sum(r.details["m_max"] * n for r, n in zip(reports, sizes, strict=True)) == 42736
    assert sum(r.instances_checked for r in reports) == 35026
    assert len(ranges) == 1474


def test_huge_interval_is_decided_without_listing_it(ctx5):
    alpha = ctx5.from_int(10**30)
    iv = peters_interval(alpha)
    assert peters_five_squares(alpha)
    # Even n in [(2N - 2N)/5, (2N + 2N)/5] for N = 10^30.
    points = iv.admissible
    assert (points[0], points[-1], points.step) == (0, 8 * 10**29, 2)


def test_interval_endpoints_are_closed(ctx5):
    # [(6 - 4)/5, (6 + 4)/5]: n = 2 sits on the upper endpoint and counts.
    iv = peters_interval(ctx5.from_sqrt_pair(3, 1))
    assert (iv.scale * 2 - iv.center) ** 2 == iv.radicand
    assert 2 in iv.admissible


@given(st.sampled_from([5, 13, 17, 21, 29]), st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_interval_test_matches_oracle_on_half_basis(d, idx):
    """For D = 1 (mod 4) the interval criterion is exact, both directions."""
    ctx = RingContext(d)
    pool = list(scan_totally_positive(ctx, 18))
    alpha = pool[idx % len(pool)]
    claim = peters_five_squares(alpha)
    truth = is_sum_of_squares(alpha, node_budget=10**7)
    assert claim == truth


@given(st.sampled_from([2, 3, 6, 7, 11]), st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_interval_test_is_sufficient_on_even_basis(d, idx):
    """For D = 2, 3 (mod 4) a hit still certifies representability."""
    ctx = RingContext(d)
    pool = list(scan_totally_positive(ctx, 18))
    alpha = pool[idx % len(pool)]
    if peters_five_squares(alpha):
        assert is_sum_of_squares(alpha, node_budget=10**7)


# ---------------------------------------------------------------------------
# witnesses


@pytest.mark.parametrize(
    "d,expected",
    [(2, "2+sqrt2"), (3, "2+sqrt3"), (6, "3+sqrt6"), (7, "3+sqrt7"), (5, "1+w"), (13, "2+w")],
)
def test_doubling_witness_form(d, expected):
    w = doubling_witness(RingContext(d))
    assert str(w) == expected
    assert w.is_totally_positive()


@given(st.sampled_from([6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23]))
@settings(deadline=None)
def test_doubled_witness_is_refuted_for_d_at_least_6(d):
    ctx = RingContext(d)
    target = 2 * doubling_witness(ctx)
    assert not is_sum_of_squares(target, node_budget=10**7)


@given(st.sampled_from([2, 3, 5]))
@settings(deadline=None)
def test_doubled_witness_is_representable_for_small_d(d):
    ctx = RingContext(d)
    assert is_sum_of_squares(2 * doubling_witness(ctx), node_budget=10**7)


@pytest.mark.parametrize("d,expected", [(2, "2+sqrt2"), (6, "4+sqrt6"), (3, "3+sqrt3"), (7, "3+sqrt7")])
def test_ramified_witness_examples(d, expected):
    w = ramified_obstruction_witness(RingContext(d))
    assert str(w) == expected
    assert w.is_totally_positive()
    assert dyadic_valuation(w) == 1
    assert not is_square_mod_two(w)


def _stepped_ramified_witness(ctx):
    # Reference: step the shift by 2 until the element is totally positive.
    base = ctx.sqrt_d if ctx.D % 2 == 0 else ctx.one + ctx.sqrt_d
    shift = 0
    while not (base + shift).is_totally_positive():
        shift += 2
    return base + shift


def test_ramified_witness_closed_form_matches_stepping():
    ds = [d for d in range(2, 5000) if d % 4 in (2, 3) and square_factor(d) is None]
    assert len(ds) == 2033
    for d in ds:
        ctx = RingContext(d)
        assert ramified_obstruction_witness(ctx) == _stepped_ramified_witness(ctx), d


def test_ramified_witness_requires_ramified(ctx5):
    with pytest.raises(NotRamified):
        ramified_obstruction_witness(ctx5)


@pytest.mark.parametrize("d", [2, 3, 6, 7, 11, 14])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_odd_multiple_witness_never_a_square_class(d, m):
    w = odd_multiple_witness(RingContext(d), m)
    assert w == m * doubling_witness(RingContext(d))
    assert not is_square_mod_two(w)


RAMIFIED_DS = [d for d in range(2, 200) if d % 4 in (2, 3) and square_factor(d) is None]


def test_witnesses_are_obstructed_in_every_ramified_ring():
    for d in RAMIFIED_DS:
        ctx = RingContext(d)
        w = ramified_obstruction_witness(ctx)
        assert w.is_totally_positive(), d
        assert dyadic_valuation(w) == 1, d
        assert not is_square_mod_two(w), d
        for m in range(1, 16, 2):
            assert not is_square_mod_two(odd_multiple_witness(ctx, m)), (d, m)


def test_odd_multiple_witness_guards(ctx5, ctx6):
    with pytest.raises(NotRamified):
        odd_multiple_witness(ctx5, 3)
    with pytest.raises(NotOdd):
        odd_multiple_witness(ctx6, 2)
    with pytest.raises(ValueError):
        odd_multiple_witness(ctx6, -3)


SQUAREFREE_DS = [d for d in range(2, 201) if square_factor(d) is None]


def _raises_not_ramified(call, *args):
    try:
        call(*args)
    except NotRamified:
        return True
    return False


def test_the_ramified_names_raise_exactly_where_2_is_unramified():
    # Split rings (D = 1 mod 8, such as 17) as well as inert ones refuse.
    assert {d % 8 for d in SQUAREFREE_DS if RingContext(d).kappa == 1} == {1, 5}
    for d in SQUAREFREE_DS:
        ctx = RingContext(d)
        unramified = ctx.kappa == 1
        assert _raises_not_ramified(ramified_obstruction_witness, ctx) == unramified, d
        assert _raises_not_ramified(odd_multiple_witness, ctx, 3) == unramified, d
        assert _raises_not_ramified(dyadic_valuation, ctx.from_int(6)) == unramified, d


def test_thresholds_refutes_odd_multiples_only_where_2_ramifies():
    # Trace 30 reaches the first odd multiple witness 2*(isqrt(D) + 1) of
    # every ramified D here, so each ramified ring writes at least one.
    spec = ScanSpec(tuple(SQUAREFREE_DS), 30, m_range=(1, 3))
    reports = run_claims(spec, ["thresholds"])
    for ctx, report in zip(spec.contexts, reports, strict=True):
        odd = [case["m"] for case in report.details["cases"] if "odd_multiple_refuted" in case]
        assert bool(odd) == (ctx.kappa == 2), ctx.D
        assert all(m % 2 == 1 for m in odd), ctx.D
        assert report.passed, ctx.D


# ---------------------------------------------------------------------------
# multiplier thresholds


@pytest.mark.parametrize(
    "d,m,expected",
    [
        (101, 1, True),  # 16 < 101
        (101, 2, True),  # 64 < 101
        (101, 3, False),  # 144 > 101
        (17, 1, True),
        (6, 1, True),  # 16 < 4*6
        (6, 2, False),
        (7, 1, True),
        (2, 1, False),  # 16 > 4*2: no obstruction promised
    ],
)
def test_small_multiplier_threshold(d, m, expected):
    assert small_multiplier_obstructed(RingContext(d), m) is expected


@pytest.mark.parametrize(
    "d,m,expected",
    [(6, 3, True), (6, 2, False), (2, 1, True), (13, 7, True), (13, 6, False)],
)
def test_large_multiplier_threshold(d, m, expected):
    assert large_multiplier_guaranteed(RingContext(d), m) is expected


def test_small_multiplier_rejects_nonpositive(ctx6):
    with pytest.raises(ValueError):
        small_multiplier_obstructed(ctx6, 0)
    with pytest.raises(ValueError):
        large_multiplier_guaranteed(ctx6, 0)


@given(st.sampled_from([6, 7, 13, 17, 21]), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_small_threshold_refutations_hold(d, m):
    ctx = RingContext(d)
    if small_multiplier_obstructed(ctx, m):
        target = m * doubling_witness(ctx)
        v = decompose_sos(target, node_budget=10**7)
        assert v.kind.name == "EXHAUSTED_NONE"


@given(st.sampled_from([2, 3, 5, 6, 7, 13]), st.integers(1, 8), st.integers(0, 14))
@settings(max_examples=40, deadline=None)
def test_large_threshold_guarantees_hold(d, m, idx):
    ctx = RingContext(d)
    if large_multiplier_guaranteed(ctx, m):
        pool = list(scan_totally_positive(ctx, 10))
        beta = pool[idx % len(pool)]
        assert peters_five_squares(ctx.kappa * m * beta)


# ---------------------------------------------------------------------------
# the stored pair


def _pair_decisions(box):
    ctx = box[0].ctx
    return list(multiple_misses(ctx, box, ctx.D + 1)), [
        (
            peters_five_squares(alpha),
            peters_interval(alpha),
            is_square_mod_two(alpha),
            dyadic_valuation(alpha) if ctx.kappa == 2 else None,
            decompose_sos(alpha),
        )
        for alpha in box
    ]


def test_criteria_residues_and_search_read_only_the_stored_pair(monkeypatch):
    # The coordinates (u, v) are a view for construction and display; the
    # decisions read the pair (A, B), so they come out the same without it.
    boxes = [list(scan_totally_positive(RingContext(d), 30)) for d in (2, 3, 5, 6, 7, 17)]
    expected = [_pair_decisions(box) for box in boxes]

    def no_view(self):
        raise AssertionError("read the (u, v) view")

    monkeypatch.setattr(QuadInt, "u", property(no_view))
    monkeypatch.setattr(QuadInt, "v", property(no_view))
    assert [_pair_decisions(box) for box in boxes] == expected
