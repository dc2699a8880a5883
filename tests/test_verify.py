"""Claim-scan harness: reports, JSONL reproducibility, the dispatch table."""

import json

import pytest

from soslab import (
    RingContext,
    ScanSpec,
    WrongField,
    estimate_stable_multiplier,
    reports_to_jsonl,
    run_claims,
    scan_totally_positive,
    verify_doubling,
    verify_local_necessity,
    verify_maass_three_squares,
    verify_multiplier_thresholds,
    verify_peters_equivalence,
    verify_pythagoras,
    verify_scharlau,
    write_reports_jsonl,
)
from soslab.verify import CLAIM_ALIASES, CLAIM_NAMES

BUDGET = 10**7


# ---------------------------------------------------------------------------
# scanning


def test_scan_d6_small(ctx6):
    assert [str(a) for a in scan_totally_positive(ctx6, 4)] == ["1", "2"]
    assert [str(a) for a in scan_totally_positive(ctx6, 6)] == [
        "1",
        "2",
        "3-sqrt6",
        "3",
        "3+sqrt6",
    ]


def test_scan_d2_small(ctx2):
    assert [str(a) for a in scan_totally_positive(ctx2, 4)] == [
        "1",
        "2-sqrt2",
        "2",
        "2+sqrt2",
    ]


def test_scan_d5_small(ctx5):
    # Odd traces occur on the half-integer basis: trace 3 is 2-w and 1+w.
    got = [str(a) for a in scan_totally_positive(ctx5, 3)]
    assert got == ["1", "2-w", "1+w"]
    # elements come out in (trace, coordinates) order and all are TP
    pool = list(scan_totally_positive(ctx5, 10))
    assert all(a.is_totally_positive() and a.trace <= 10 for a in pool)
    traces = [a.trace for a in pool]
    assert traces == sorted(traces)


def test_scan_below_minimal_trace_is_empty(ctx6):
    # The least totally positive trace is 2 (the element 1); smaller bounds
    # simply scan nothing.  Bound validation happens in ScanSpec instead.
    assert list(scan_totally_positive(ctx6, 1)) == []
    assert list(scan_totally_positive(ctx6, 0)) == []


def test_scan_counts_grow_with_bound(ctx3):
    small = len(list(scan_totally_positive(ctx3, 8)))
    large = len(list(scan_totally_positive(ctx3, 16)))
    assert 0 < small < large


# ---------------------------------------------------------------------------
# individual claims


def test_doubling_small_d(ctx5):
    rep = verify_doubling(ctx5, 12, node_budget=BUDGET)
    assert rep.passed
    assert rep.claim_id == "doubling/D=5"
    assert rep.instances_checked > 0
    assert rep.elapsed >= 0.0


def test_doubling_large_d(ctx6):
    rep = verify_doubling(ctx6, 12, node_budget=BUDGET)
    assert rep.passed
    assert rep.witnesses == ["6+2sqrt6"]
    assert rep.details["branch"] == "witness_refuted"


def test_scharlau(ctx2, ctx3):
    assert verify_scharlau(ctx2, 16, node_budget=BUDGET).passed
    assert verify_scharlau(ctx3, 16, node_budget=BUDGET).passed
    with pytest.raises(WrongField):
        verify_scharlau(RingContext(6), 10, node_budget=BUDGET)


def test_maass():
    rep = verify_maass_three_squares(14, node_budget=BUDGET)
    assert rep.passed
    assert rep.details["max_length"] == 3


def test_pythagoras(ctx2, ctx6):
    rep = verify_pythagoras(ctx2, 14, node_budget=BUDGET)
    assert rep.passed
    assert rep.details["cap"] == 3
    assert rep.details["length3_attained"]
    rep = verify_pythagoras(ctx6, 14, node_budget=BUDGET)
    assert rep.passed
    assert rep.details["cap"] == 5


def test_peters_equivalence(ctx5, ctx6):
    rep = verify_peters_equivalence(ctx5, 14, node_budget=BUDGET)
    assert rep.passed
    rep = verify_peters_equivalence(ctx6, 14, node_budget=BUDGET)
    assert rep.passed  # converse gaps are findings, not failures
    assert "findings" in rep.details


def test_thresholds(ctx6):
    rep = verify_multiplier_thresholds(ctx6, (1, 3), 10, node_budget=BUDGET)
    assert rep.passed
    ms = [case["m"] for case in rep.details["cases"]]
    assert ms == [1, 2, 3]
    assert rep.details["pythagoras_cap"] == 5


def test_local_necessity(ctx6):
    rep = verify_local_necessity(ctx6, 12, node_budget=BUDGET)
    assert rep.passed
    assert rep.instances_checked > 0


def test_stable_multiplier_estimates(ctx2, ctx6):
    rep = estimate_stable_multiplier(ctx6, 4, 12)
    assert rep.details["m_star"] == 2
    assert rep.details["largest_failing_m"] == 1
    rep = estimate_stable_multiplier(ctx2, 3, 12)
    assert rep.details["m_star"] == 1


# ---------------------------------------------------------------------------
# the spec/driver layer


def test_scan_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(d_list=[2], trace_bound=1)
    with pytest.raises(Exception):
        ScanSpec(d_list=[4], trace_bound=10)  # 4 is not squarefree
    spec = ScanSpec(d_list=[2, 3], trace_bound=10)
    assert spec.node_budget > 0


def test_claim_names_and_aliases():
    assert set(CLAIM_ALIASES.values()) <= set(CLAIM_NAMES)
    assert CLAIM_ALIASES["thm3"] == "doubling"
    assert CLAIM_ALIASES["lemma1"] == "local-necessity"
    assert CLAIM_ALIASES["m0"] == "stable-multiplier"


def test_run_claims_dispatch():
    spec = ScanSpec(d_list=[2, 5, 6], trace_bound=8, node_budget=BUDGET)
    reports = run_claims(spec, ["doubling", "scharlau", "maass"])
    ids = [r.claim_id for r in reports]
    # scharlau only applies to D in {2, 3}; maass only to D = 5
    assert "doubling/D=2" in ids and "doubling/D=6" in ids
    assert "scharlau/D=2" in ids and "scharlau/D=6" not in ids
    assert sum(1 for i in ids if i.startswith("maass")) == 1
    assert all(r.passed for r in reports)


def test_run_claims_rejects_unknown_claim():
    spec = ScanSpec(d_list=[2], trace_bound=8, node_budget=BUDGET)
    with pytest.raises(ValueError):
        run_claims(spec, ["fermat"])


# ---------------------------------------------------------------------------
# JSONL output


def test_jsonl_shape_and_reproducibility(ctx6):
    reports = [verify_doubling(ctx6, 10, node_budget=BUDGET)]
    text = reports_to_jsonl(reports)
    lines = text.strip().split("\n")
    assert json.loads(lines[0]) == {"schema": 1}
    record = json.loads(lines[1])
    assert record["claim_id"] == "doubling/D=6"
    assert "elapsed" not in record  # timing never leaks into the artifact

    again = reports_to_jsonl([verify_doubling(ctx6, 10, node_budget=BUDGET)])
    assert text == again  # bit-identical across runs


def test_jsonl_round_trip_via_file(tmp_path, ctx2):
    reports = [verify_doubling(ctx2, 10, node_budget=BUDGET)]
    out = tmp_path / "reports.jsonl"
    write_reports_jsonl(reports, out)
    assert out.read_text() == reports_to_jsonl(reports)

