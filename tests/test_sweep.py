"""Whole-box sweep against the search oracle, element by element."""

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
    with pytest.raises(BudgetExceeded):
        Sweep(ctx5, trace_bound, node_budget=50)


def test_run_claims_sweep_honours_the_budget():
    spec = ScanSpec(d_list=(2,), trace_bound=TRACE, node_budget=50)
    with pytest.raises(BudgetExceeded):
        run_claims(spec, ["pythagoras"])
    # A claim that reads no sweep still runs under the same budget.
    assert run_claims(spec, ["stable-multiplier"])[0].passed


def test_scan_spec_accepts_but_ignores_workers():
    base = ScanSpec(d_list=(5,), trace_bound=12)
    spec = ScanSpec(d_list=(5,), trace_bound=12, workers=4)
    assert [r.to_record() for r in run_claims(spec, ["doubling", "maass"])] == [
        r.to_record() for r in run_claims(base, ["doubling", "maass"])
    ]
    with pytest.raises(ValueError):
        ScanSpec(d_list=(5,), trace_bound=12, workers=0)
