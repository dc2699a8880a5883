"""Whole-box sweep against the search oracle, element by element."""

import tracemalloc
from math import isqrt

import pytest

from soslab import (
    BudgetExceeded,
    ContextMismatch,
    Decomposition,
    RingContext,
    ScanSpec,
    Sweep,
    pythagoras_length,
    run_claims,
    scan_totally_positive,
)

DIFFERENTIAL_DS = (2, 3, 5, 6, 7, 13)
TRACE = 30


@pytest.mark.parametrize("d", DIFFERENTIAL_DS)
def test_sweep_lengths_match_the_oracle(d):
    ctx = RingContext(d)
    sweep = Sweep(ctx, TRACE)
    elements = list(scan_totally_positive(ctx, TRACE))
    assert elements
    for alpha in elements:
        length = sweep.length(alpha)
        assert length == pythagoras_length(alpha), str(alpha)
        assert sweep.is_sum_of_squares(alpha) == (length is not None)
        dec = sweep.decomposition(alpha)
        if length is None:
            assert dec is None
            continue
        assert len(dec) == length
        # Rebuilding from the bare terms re-verifies the identity.
        assert Decomposition(alpha, dec.terms) == dec


def test_sweep_refutes_outside_the_positive_cone(ctx6):
    sweep = Sweep(ctx6, 12)
    assert sweep.length(ctx6.zero) == 0
    assert sweep.decomposition(ctx6.zero).terms == ()
    assert sweep.length(ctx6.from_sqrt_pair(2, 1)) is None  # 2 - sqrt6 < 0
    assert sweep.length(ctx6.from_int(-1)) is None


def test_sweep_rejects_questions_it_cannot_answer(ctx2, ctx3):
    sweep = Sweep(ctx2, 10)
    with pytest.raises(ValueError):
        sweep.length(ctx2.from_int(6))  # trace 12 lies outside the box
    with pytest.raises(ContextMismatch):
        sweep.length(ctx3.one)
    with pytest.raises(ValueError):
        Sweep(ctx2, -1)


@pytest.mark.parametrize("trace_bound", [TRACE, 10**12])
def test_sweep_budget_is_checked_before_any_work(ctx5, trace_bound):
    with pytest.raises(BudgetExceeded) as exc:
        Sweep(ctx5, trace_bound, node_budget=50)
    assert exc.value.nodes == 0


def test_run_claims_sweep_honours_the_budget():
    spec = ScanSpec(d_list=(2,), trace_bound=TRACE, node_budget=50)
    with pytest.raises(BudgetExceeded):
        run_claims(spec, ["pythagoras"])
    # A claim that reads no sweep is still charged for its scan.
    with pytest.raises(BudgetExceeded, match=f"the scan of D=2 to trace {TRACE}"):
        run_claims(spec, ["stable-multiplier"])
    # The box holds 169 elements; D = 2 tables no multiplier (every 2m*beta
    # hits from m = ceil(D/2) = 1 on), so its multiples cost nothing.
    spec = ScanSpec(d_list=(2,), trace_bound=TRACE, node_budget=2 * 169)
    assert run_claims(spec, ["stable-multiplier"])[0].passed


def test_scan_spec_accepts_but_ignores_workers():
    base = ScanSpec(d_list=(5,), trace_bound=12)
    spec = ScanSpec(d_list=(5,), trace_bound=12, workers=4)
    assert [r.to_record() for r in run_claims(spec, ["doubling", "maass"])] == [
        r.to_record() for r in run_claims(base, ["doubling", "maass"])
    ]
    with pytest.raises(ValueError):
        ScanSpec(d_list=(5,), trace_bound=12, workers=0)


@pytest.mark.parametrize("d", [10, 17, 21, 33, 41])
def test_sweep_lengths_match_the_oracle_at_trace_50(d):
    ctx = RingContext(d)
    sweep = Sweep(ctx, 50)
    for alpha in scan_totally_positive(ctx, 50):
        assert sweep.length(alpha) == pythagoras_length(alpha), str(alpha)


def test_sweep_answers_zero_with_length_zero(ctx5, ctx6):
    for ctx in (ctx5, ctx6):
        sweep = Sweep(ctx, 12)
        assert sweep.length(ctx.zero) == 0
        assert sweep.is_sum_of_squares(ctx.zero)


@pytest.mark.parametrize("d", [5, 6])
def test_sweep_lookups_outside_the_cone_are_none(d):
    # Each row keeps 2W + 1 slots, W = isqrt(12^2 // D) + 1; a B past W on
    # either side must read as no sum of squares, not as another slot.
    ctx = RingContext(d)
    sweep = Sweep(ctx, 12)
    width = isqrt(144 // d) + 1
    for big_a in (-4, -2, 0, 2, 4, 12):
        for big_b in range(-6 * width, 6 * width + 1, 2):
            alpha = ctx.from_half_pair(big_a, big_b)
            if not alpha.is_totally_positive() and alpha:
                assert sweep.length(alpha) is None, str(alpha)
                assert not sweep.is_sum_of_squares(alpha)
                assert sweep.decomposition(alpha) is None
    assert sweep.length(ctx.from_sqrt_pair(2, -1)) is None  # 2 - sqrt(D) < 0


def test_sweep_holds_one_byte_per_box_slot():
    # One byte per slot of 300 rows of 2W + 1 = 271 slots is about 80 KiB;
    # an entry per reached element would hold several MiB.
    ctx = RingContext(5)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep = Sweep(ctx, 300)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sweep.length(ctx.from_int(150)) is not None
    assert held < 2**20
