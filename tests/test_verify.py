"""Claim-scan harness: reports, JSONL reproducibility, the dispatch table."""

import hashlib
import json

import pytest

from soslab import (
    RingContext,
    ScanSpec,
    Sweep,
    WrongField,
    reports_to_jsonl,
    run_claims,
    scan_totally_positive,
)
from soslab import verify
from soslab.cli import main as cli_main
from soslab.verify import CLAIM_ALIASES, CLAIM_NAMES

BUDGET = 10**7


def claim(name, d, trace_bound, m_range=None):
    """The one report of claim `name` on the ring D = d."""
    spec = ScanSpec((d,), trace_bound, m_range=m_range, node_budget=BUDGET)
    (report,) = run_claims(spec, [name])
    return report


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


def test_doubling_small_d():
    rep = claim("doubling", 5, 12)
    assert rep.passed
    assert rep.claim_id == "doubling/D=5"
    assert rep.instances_checked > 0
    assert rep.elapsed >= 0.0


def test_doubling_large_d():
    rep = claim("doubling", 6, 12)
    assert rep.passed
    assert rep.witnesses == ["6+2sqrt6"]
    assert rep.details["branch"] == "witness_refuted"


def test_scharlau():
    assert claim("scharlau", 2, 16).passed
    assert claim("scharlau", 3, 16).passed
    assert run_claims(ScanSpec((6,), 10), ["scharlau"]) == []
    ctx = RingContext(6)
    with pytest.raises(WrongField):
        verify.verify_scharlau(ctx, ScanSpec((6,), 10), Sweep(ctx, 10))


def test_maass():
    rep = claim("maass", 5, 14)
    assert rep.passed
    assert rep.details["max_length"] == 3
    ctx = RingContext(13)
    with pytest.raises(WrongField):
        verify.verify_maass_three_squares(ctx, ScanSpec((13,), 10), Sweep(ctx, 10))


def test_pythagoras():
    rep = claim("pythagoras", 2, 14)
    assert rep.passed
    assert rep.details["cap"] == 3
    assert rep.details["length3_attained"]
    rep = claim("pythagoras", 6, 14)
    assert rep.passed
    assert rep.details["cap"] == 5


def test_peters_equivalence():
    rep = claim("peters-oracle", 5, 14)
    assert rep.passed
    rep = claim("peters-oracle", 6, 14)
    assert rep.passed  # converse gaps are findings, not failures
    assert "findings" in rep.details


def test_thresholds():
    rep = claim("thresholds", 6, 10, m_range=(1, 3))
    assert rep.passed
    ms = [case["m"] for case in rep.details["cases"]]
    assert ms == [1, 2, 3]
    assert rep.details["pythagoras_cap"] == 5


def test_thresholds_refute_odd_multiples_from_the_sweep(monkeypatch):
    # The search settles odd coefficients by parity, so the odd multiple
    # witnesses must be refuted by the sweep, not by the search.
    # The witness for D = 19 is 5+sqrt19, of trace 10.
    monkeypatch.setattr(verify, "decompose_sos", None)
    # m = 5..7 are neither small nor large multipliers for D = 19.
    rep = claim("thresholds", 19, 50, m_range=(5, 7))
    assert rep.passed
    cases = rep.details["cases"]
    # 5*(5+sqrt19) has trace 50 and is refuted; 7*(5+sqrt19) has trace 70.
    assert cases[0]["odd_multiple_refuted"] is True
    assert "odd_multiple_refuted" not in cases[2]
    assert rep.witnesses == ["25+5sqrt19"]


def test_thresholds_share_the_sweep_for_odd_multiples(monkeypatch):
    built = []

    class CountingSweep(verify.Sweep):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(verify, "Sweep", CountingSweep)
    # m = 1 is no large multiplier for D = 6, but its odd multiple witness
    # 3+sqrt6 fits the box, so thresholds reads the shared sweep.
    spec = ScanSpec(d_list=(6,), trace_bound=20, m_range=(1, 1))
    reports = run_claims(spec, ["pythagoras", "thresholds"])
    assert all(r.passed for r in reports)
    assert reports[1].details["cases"][0]["odd_multiple_refuted"] is True
    assert len(built) == 1
    # Every claim at once: still one sweep per ring, doubled in the rings
    # where doubling reads it.
    built.clear()
    reports = run_claims(ScanSpec(d_list=(2, 5, 6, 19), trace_bound=20), list(CLAIM_NAMES))
    assert all(r.passed for r in reports)
    assert sorted((ctx.D, trace) for ctx, trace in built) == [(2, 40), (5, 40), (6, 20), (19, 20)]
    built.clear()
    run_claims(ScanSpec(d_list=(2, 5, 6, 19), trace_bound=20), ["stable-multiplier"])
    assert built == []


def test_local_necessity():
    rep = claim("local-necessity", 6, 12)
    assert rep.passed
    assert rep.instances_checked > 0


def test_stable_multiplier_estimates():
    rep = claim("stable-multiplier", 6, 12, m_range=(1, 4))
    assert rep.details["m_star"] == 2
    assert rep.details["largest_failing_m"] == 1
    rep = claim("stable-multiplier", 2, 12, m_range=(1, 3))
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


def test_jsonl_shape_and_reproducibility():
    reports = [claim("doubling", 6, 10)]
    text = reports_to_jsonl(reports)
    lines = text.strip().split("\n")
    assert json.loads(lines[0]) == {"schema": 1}
    record = json.loads(lines[1])
    assert record["claim_id"] == "doubling/D=6"
    assert "elapsed" not in record  # timing never leaks into the artifact

    again = reports_to_jsonl([claim("doubling", 6, 10)])
    assert text == again  # bit-identical across runs


def test_acceptance_report_bytes_are_pinned(capsys):
    # The canonical JSONL of the acceptance box; any change to a verdict,
    # witness or detail of any claim changes these bytes.
    code = cli_main(["verify", "all", "--D", "2..50", "--trace-bound", "40", "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert code == 0
    assert digest == "d321ec42bd923325c23a293f5fda89ede9d86c074cc7026bd11769f03011ca3b"
