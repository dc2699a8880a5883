"""Whole-box sweep against the search oracle, element by element."""

import hashlib
import tracemalloc
from math import isqrt

import pytest

from soslab import (
    BudgetExceeded,
    ContextMismatch,
    RingContext,
    ScanSpec,
    Sweep,
    pythagoras_length,
    run_claims,
    scan_totally_positive,
)
from soslab.cli import main as cli_main
from soslab.quadfield import count_totally_positive, list_roots

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


def test_sweep_refutes_outside_the_positive_cone(ctx6):
    sweep = Sweep(ctx6, 12)
    assert sweep.length(ctx6.zero) == 0
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


@pytest.mark.parametrize("d", (2, 5, 6, 13))
@pytest.mark.parametrize("trace", (2, 7, TRACE))
def test_the_least_sweep_budget_is_its_box_times_its_squares(d, trace):
    # The box's elements, 0 included, times its squares passes; one unit
    # less stops with no node searched.
    ctx = RingContext(d)
    work = (count_totally_positive(ctx, trace, 10**8) + 1) * len(list_roots(ctx, trace))
    with pytest.raises(BudgetExceeded) as exc:
        Sweep(ctx, trace, node_budget=work - 1)
    assert exc.value.nodes == 0
    assert Sweep(ctx, trace, node_budget=work).length(ctx.one) == 1


def test_a_refused_sweep_lists_no_root():
    # Some 239,000 roots square to a trace of at most 430,000 when D = 2;
    # they are counted, not listed, before the charge refuses the sweep.
    # Listing them would take about 41 MiB.
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(BudgetExceeded, match="the sweep of D=2 to trace 430000") as exc:
            Sweep(RingContext(2), 430000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert exc.value.nodes == 0
    assert peak < 2**20


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
    assert sweep.length(ctx.from_sqrt_pair(2, -1)) is None  # 2 - sqrt(D) < 0


def test_sweep_holds_no_entry_per_element():
    # Each of 300 rows keeps at most one int of 2W + 1 = 271 bits per layer,
    # well under 1 MiB; an entry per reached element would hold several MiB.
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


def test_sweep_keeps_only_the_new_bits_of_each_layer():
    # About 0.49 MiB: one int per (row, layer) and no second copy of the
    # lengths, which at one byte per box slot would add about 0.5 MiB.
    ctx = RingContext(7)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep = Sweep(ctx, 1500)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sweep.length(ctx.from_int(27 * 27)) == 1
    assert held < 0.75 * 2**20


@pytest.mark.parametrize(
    "d,expected",
    [
        (2, "6bde59e2a7eb7959f6534de88f69e4631483e0ba8fc44b020b05d908b0c321b4"),
        (3, "86ef36fdec245535a9e5235626c4ccdca47723dd3964ba92851621be85103adf"),
        (5, "f6ee127088fbd275159d1da8113aaca202a9979a1772fd20c6d1eb7da45657f5"),
        (6, "d31af157a5d750e5e9cb3bc3824adb57c77bacef9e0176f6fd4c3bddf3a2caeb"),
        (7, "95ce9f8cf1fdbac089ca7cc2e173dad24cbf83cbeb15e0b7b956e680a66f4c64"),
        (10, "04b2a4717cbe895b517758b6ed30a6f4eed16531b2e83fd727a87e3937f593fd"),
        (13, "c7c6c138ee71c50faddad776d17f3fa78399cc5b77d0240db613026242044c02"),
        (17, "df4f4d06d4e7ba8305cd8e432e136fc58f43e2afa10394bb532bad744f67c57e"),
    ],
)
def test_whole_box_scan_bytes_are_pinned(capsys, d, expected):
    # Every element of the box with its sweep length beside the oracle's: a
    # sweep that is deterministic but wrong changes these bytes.
    code = cli_main(["scan", "--D", str(d), "--trace-bound", "200", "--with-oracle"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert code == 0
    assert digest == expected
