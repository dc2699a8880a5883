"""Claim-scan harness: reports, JSONL reproducibility, the dispatch table."""

import copy
import hashlib
import json
import tracemalloc
import weakref
from collections import Counter

import pytest

from soslab import (
    BudgetExceeded,
    RingContext,
    ScanSpec,
    Sweep,
    VerdictKind,
    WrongField,
    decompose_sos,
    reports_to_jsonl,
    run_claims,
    scan_totally_positive,
)
from soslab import quadfield, verify
from soslab.cli import _parse_d_spec
from soslab.cli import main as cli_main
from soslab.criteria import peters_five_squares
from soslab.verify import CLAIM_ALIASES, CLAIM_NAMES

BUDGET = 10**7

# The claims that ask only about the scanned elements, and so read their
# lengths from one list per ring instead of the sweep.
BOX_CLAIMS = ["scharlau", "maass", "pythagoras", "peters-oracle", "local-necessity"]


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
        verify.verify_scharlau(ctx, ScanSpec((6,), 10), [], [])


def test_maass():
    rep = claim("maass", 5, 14)
    assert rep.passed
    assert rep.details["max_length"] == 3
    ctx = RingContext(13)
    with pytest.raises(WrongField):
        verify.verify_maass_three_squares(ctx, ScanSpec((13,), 10), [], [])


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


def test_run_claims_keeps_one_sweep_alive_at_a_time(monkeypatch):
    alive = []
    peak = []

    class CountingSweep(verify.Sweep):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.append(self.ctx.D)
            peak.append(len(alive))
            weakref.finalize(self, alive.remove, self.ctx.D)

    monkeypatch.setattr(verify, "Sweep", CountingSweep)
    reports = run_claims(ScanSpec(d_list=(2, 5, 6, 19), trace_bound=20), list(CLAIM_NAMES))
    assert all(r.passed for r in reports)
    assert len(peak) == 4
    assert max(peak) == 1


def test_run_claims_reads_the_sweep_once_per_scanned_element(monkeypatch):
    # doubling and thresholds look up targets off the scan themselves; every
    # other lookup is made for the box claims, at most one per element.
    lookups = Counter()
    caller = [None]
    lookup = verify.Sweep.length

    class CountingSweep(verify.Sweep):
        def length(self, alpha):
            lookups[caller[0]] += 1
            return lookup(self, alpha)

    monkeypatch.setattr(verify, "Sweep", CountingSweep)
    for name in ("verify_doubling", "verify_multiplier_thresholds"):

        def called_from(*args, name=name, function=getattr(verify, name)):
            caller[0] = name
            try:
                return function(*args)
            finally:
                caller[0] = None

        monkeypatch.setattr(verify, name, called_from)
    d_list = _parse_d_spec("2..50")
    reports = run_claims(ScanSpec(d_list, 40), list(CLAIM_NAMES))
    assert all(r.passed for r in reports)
    scanned = sum(len(list(scan_totally_positive(ctx, 40))) for ctx in d_list)
    assert scanned == 3930
    assert lookups["verify_doubling"] > 0 and lookups["verify_multiplier_thresholds"] > 0
    assert lookups[None] <= scanned


@pytest.mark.parametrize("d,target", [(2, "6+2sqrt2"), (5, "3+w")])
def test_a_wrong_length_reaches_every_box_claim(monkeypatch, d, target):
    # A sweep that reads one sum of squares of the box as unreached changes
    # each box claim's report exactly as looking up each element does.
    ctx = RingContext(d)
    spec = ScanSpec((d,), 14)
    elements = list(scan_totally_positive(ctx, 14))
    (alpha,) = [beta for beta in elements if str(beta) == target]
    lookup = verify.Sweep.length

    class HidingSweep(verify.Sweep):
        def length(self, beta):
            return None if beta == alpha else lookup(self, beta)

    def reports():
        return {r.claim_id.split("/")[0]: r.to_record() for r in run_claims(spec, BOX_CLAIMS)}

    before = reports()
    monkeypatch.setattr(verify, "Sweep", HidingSweep)
    after = reports()
    assert Sweep(ctx, 14).length(alpha) is not None
    sweep = HidingSweep(ctx, 14)
    found = [n for n in (sweep.length(beta) for beta in elements) if n is not None]
    assert 3 in found and peters_five_squares(alpha)  # the branches taken below

    def failure(expected, got):
        return {"element": target, "expected": expected, "got": got}

    expected = copy.deepcopy(before)
    if d in (2, 3):
        expected["scharlau"]["failures"].append(failure("sum of squares", "refuted"))
    if d == 5:
        expected["maass"]["failures"].append(failure("length <= 3", "not a sum of squares"))
        expected["maass"]["details"]["max_length"] = max(found)
    expected["pythagoras"]["details"].update(max_length=max(found), sums_of_squares=len(found))
    expected["peters-oracle"]["failures"].append(
        failure("sum of five squares (interval hit)", "refuted by exhaustion")
    )
    expected["local-necessity"]["details"]["sums_of_squares"] = len(found)
    assert set(after) == set(BOX_CLAIMS) - {"maass" if d == 2 else "scharlau"}
    for name in after:
        assert after[name] != before[name]
        assert after[name] == expected[name]


class _SameAnswer:
    """A stand-in for the sweep that gives every target the same verdict."""

    def __init__(self, answer):
        self.answer = answer

    def is_sum_of_squares(self, alpha):
        return self.answer


# Each claim handed one wrong answer, and the one failure it must record.
# A dict replaces the named elements' lengths in the box claims' length
# list; a bool is every answer of the sweep that doubling and thresholds
# read; None hands doubling no sweep, so the search refutes its witness.
@pytest.mark.parametrize(
    "function,d,spec,wrong,failure",
    [
        pytest.param(
            "verify_scharlau", 2, {}, {"1": None}, ("1", "sum of squares", "refuted"),
            id="scharlau",
        ),
        pytest.param(
            "verify_maass_three_squares", 5, {}, {"1": 4}, ("1", "length <= 3", "length 4"),
            id="maass",
        ),
        pytest.param(
            "verify_pythagoras", 2, {"trace_bound": 12}, {"1": 4},
            ("1", "length <= 3", "length 4"), id="pythagoras-over-the-cap",
        ),
        pytest.param(
            "verify_pythagoras", 2, {"trace_bound": 12}, {"6-2sqrt2": 2, "6+2sqrt2": 2},
            ("scan(trace<=12)", "some element of length exactly 3", "max length 2"),
            id="pythagoras-length-3-not-attained",
        ),
        pytest.param(
            "verify_peters_equivalence", 13, {"trace_bound": 6}, {"2+w": 1},
            ("2+w", "interval hit (element is a sum of squares)", "empty interval"),
            id="peters-oracle",
        ),
        pytest.param(
            "verify_local_necessity", 6, {"trace_bound": 6}, {"3+sqrt6": 2},
            ("3+sqrt6", "square mod 2*O", "non-square class"), id="local-necessity",
        ),
        pytest.param(
            "verify_doubling", 5, {}, False, ("1", "2*alpha sum of squares", "refuted"),
            id="doubling-sweep",
        ),
        pytest.param(
            "verify_doubling", 6, {"node_budget": 1}, None,
            ("6+2sqrt6", "exhausted_none", "budget_exceeded"), id="doubling-witness",
        ),
        pytest.param(
            "verify_multiplier_thresholds", 6, {"trace_bound": 12, "m_range": (3, 3)}, False,
            ("6", "sum of squares", "refuted by exhaustion"), id="thresholds-large-multiplier",
        ),
        pytest.param(
            "verify_multiplier_thresholds", 6, {"trace_bound": 10, "m_range": (1, 1)}, True,
            ("3+sqrt6", "refuted by exhaustion", "sum of squares"), id="thresholds-odd-multiple",
        ),
    ],
)
def test_every_claim_fails_on_a_wrong_answer(function, d, spec, wrong, failure):
    spec = ScanSpec((d,), **{"trace_bound": 2, **spec})
    ctx = spec.contexts[0]
    elements = list(scan_totally_positive(ctx, spec.trace_bound))
    if isinstance(wrong, dict):
        sweep = Sweep(ctx, spec.trace_bound)
        lengths = [sweep.length(alpha) for alpha in elements]
        for i, alpha in enumerate(elements):
            if str(alpha) in wrong:
                assert lengths[i] != wrong[str(alpha)]
                lengths[i] = wrong[str(alpha)]
        fourth = lengths
    elif wrong is None:
        elements = fourth = None
    else:
        fourth = _SameAnswer(wrong)
    report = getattr(verify, function)(ctx, spec, elements, fourth)
    assert report.passed is False
    assert report.failures == [dict(zip(("element", "expected", "got"), failure))]


def test_thresholds_fail_on_an_odd_multiple_in_a_square_class(monkeypatch):
    monkeypatch.setattr(verify, "is_square_mod_two", lambda alpha: True)
    report = claim("thresholds", 6, 10, m_range=(1, 1))
    assert report.passed is False
    assert report.failures == [
        {"element": "3+sqrt6", "expected": "not a square mod 2*O", "got": "square class"}
    ]


def test_run_claims_reports_claims_outer_in_the_named_order():
    spec = ScanSpec(d_list=(6, 2, 5), trace_bound=12)
    reports = run_claims(spec, ["lemma1", "thm3", "m0"])
    assert [r.claim_id for r in reports] == [
        "local-necessity/D=6",
        "local-necessity/D=2",
        "local-necessity/D=5",
        "doubling/D=6",
        "doubling/D=2",
        "doubling/D=5",
        "stable-multiplier/D=6/m_max=4",
        "stable-multiplier/D=2/m_max=2",
        "stable-multiplier/D=5/m_max=4",
    ]


def test_local_necessity():
    rep = claim("local-necessity", 6, 12)
    assert rep.passed
    assert rep.instances_checked > 0


@pytest.mark.parametrize(
    "name,scope,d",
    [
        ("thresholds", "the multiples of thresholds/D=5/m=1..10", 5),
        # stable-multiplier tables m up to ceil(D/4) - 1 for D = 1 (mod 4):
        # D = 41 tables all ten.
        ("stable-multiplier", "the multiples of stable-multiplier/D=41/m_max=10", 41),
    ],
)
def test_multiplier_claims_charge_every_multiple_first(monkeypatch, name, scope, d):
    betas = len(list(scan_totally_positive(RingContext(d), 12)))
    spec = ScanSpec((d,), 12, m_range=(1, 10), node_budget=10 * betas - 1)
    monkeypatch.setattr(verify, "multiple_misses", None)  # nothing may run first
    with pytest.raises(BudgetExceeded, match=scope):
        run_claims(spec, [name])
    monkeypatch.undo()
    spec = ScanSpec((d,), 12, m_range=(1, 10), node_budget=10 * betas)
    assert run_claims(spec, [name])[0].passed


def test_run_claims_scans_each_ring_once(monkeypatch):
    scanned = []
    scan = verify.scan_totally_positive

    def counting_scan(ctx, trace_bound):
        scanned.append((ctx.D, trace_bound))
        return scan(ctx, trace_bound)

    monkeypatch.setattr(verify, "scan_totally_positive", counting_scan)
    reports = run_claims(ScanSpec(d_list=(2, 5, 6, 19), trace_bound=20), list(CLAIM_NAMES))
    assert all(r.passed for r in reports)
    assert scanned == [(2, 20), (5, 20), (6, 20), (19, 20)]
    # Outside D in {2, 3, 5}, doubling refutes one witness and reads no box.
    scanned.clear()
    run_claims(ScanSpec(d_list=(2, 6, 7), trace_bound=20), ["doubling"])
    assert scanned == [(2, 20)]


def test_stable_multiplier_estimates():
    rep = claim("stable-multiplier", 6, 12, m_range=(1, 4))
    assert rep.details["m_star"] == 2
    assert rep.details["largest_failing_m"] == 1
    rep = claim("stable-multiplier", 2, 12, m_range=(1, 3))
    assert rep.details["m_star"] == 1


def test_stable_multiplier_is_an_estimate_bounded_by_the_box():
    # beta = 39 - 7*sqrt31 (norm 2, trace 78) lies outside the box at trace
    # 40: 10*beta and 12*beta are no sums of squares, yet the estimate
    # there is m* = 4.  Reaching beta's trace moves it to 7.
    ctx = RingContext(31)
    beta = ctx.element(39, -7)
    assert (beta.norm, beta.trace) == (2, 78)
    for n in (10, 12):
        verdict = decompose_sos(n * beta, node_budget=BUDGET)
        assert (verdict.kind, verdict.nodes) == (VerdictKind.EXHAUSTED_NONE, 4), n
    for n in (8, 14):
        assert decompose_sos(n * beta, node_budget=BUDGET).kind is VerdictKind.FOUND, n
    rep = claim("stable-multiplier", 31, 40)
    assert rep.details["m_star"] == 4
    assert rep.details["failing_example"] == {"m": 3, "beta": "6-sqrt31"}
    rep = claim("stable-multiplier", 31, 78)
    assert (rep.details["m_star"], rep.details["largest_failing_m"]) == (7, 6)
    assert rep.details["failing_example"] == {"m": 6, "beta": "39-7sqrt31"}


def test_stable_multiplier_memory_does_not_grow_with_m_max():
    # Every 2m*beta hits once 2m*1's radicand reaches D^2, so the pass
    # tables no multiplier past about D/2, however large m_max is.
    spec = ScanSpec((5,), 2, m_range=(1, 200_000))
    tracemalloc.start()
    try:
        (rep,) = run_claims(spec, ["stable-multiplier"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.instances_checked, rep.details["m_star"]) == (200_000, 1)
    assert peak < 2**20


# ---------------------------------------------------------------------------
# the spec/driver layer


def test_scan_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(d_list=[2], trace_bound=1)
    with pytest.raises(Exception):
        ScanSpec(d_list=[4], trace_bound=10)  # 4 is not squarefree
    for bad, message in (
        ({"m_range": (3, 2)}, "bad multiplier range"),
        ({"m_range": (0, 4)}, "bad multiplier range"),
        ({"node_budget": 0}, "node budget must be positive"),
    ):
        with pytest.raises(ValueError, match=message):
            ScanSpec(d_list=[2], trace_bound=10, **bad)
    spec = ScanSpec(d_list=[2, 3], trace_bound=10)
    assert spec.node_budget > 0


def test_run_claims_tests_no_d_for_squarefreeness(monkeypatch):
    # ScanSpec builds each D's ring once; run_claims reuses it.
    calls = []
    square_factor = quadfield.square_factor

    def counting(d):
        calls.append(d)
        return square_factor(d)

    monkeypatch.setattr(quadfield, "square_factor", counting)
    spec = ScanSpec(d_list=(2, 5, 6), trace_bound=8, node_budget=BUDGET)
    assert calls == [2, 5, 6]
    calls.clear()
    reports = run_claims(spec, list(CLAIM_NAMES))
    assert all(r.passed for r in reports)
    assert calls == []
    assert [ctx.D for ctx in spec.contexts] == [2, 5, 6]


def test_scan_spec_rejects_an_empty_d_list():
    with pytest.raises(ValueError, match="the D list is empty"):
        ScanSpec(d_list=(), trace_bound=10)


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


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["m0", "--D", "2..300", "--trace-bound", "60"],
            "8d0cc92a57b44188e2c6c7c5fea25b0c92e918efe434b6fdac89ca9619ce7eb8",
        ),
        (
            ["m0", "--D", "2..200", "--trace-bound", "50", "--m-range", "1..60"],
            "0c18a910356465ca94d65ff029284696a5379ddfa02698661070801906ceb8c1",
        ),
        (
            # Odd m with D = 1 (mod 4) test odd multiples k*beta.
            ["thresholds", "--D", "2..60", "--trace-bound", "40", "--m-range", "1..40"],
            "25c82642cc7000f8f99ebc0ee7b5ba9e4cfb24ca8d61bb9309ed3669c8551805",
        ),
        (
            ["peters", "--D", "2..80", "--trace-bound", "50"],
            "c8a60bc1d10469e451139ff2685b75bfb1346ade12402d6bab1559dc7dbac5cd",
        ),
        (
            # Deep multiplier walks, most of them stopped by the radicand bound.
            ["m0", "--D", "2..60", "--trace-bound", "100", "--m-range", "1..70"],
            "331cf8f856de417103aa852034ef0e312b1054fa63e7458125dc2f4936d5fb81",
        ),
        (
            # m_max far past D/2 with few betas: the multiplier table stops early.
            ["m0", "--D", "2..200", "--trace-bound", "7", "--m-range", "1..150"],
            "fe1aa4720036e1856d001207742621afda800ed811aa54f798ee151fe84acf9e",
        ),
    ],
)
def test_wide_claim_bytes_are_pinned(capsys, argv, expected):
    # Interval-test claims well beyond the acceptance box: stable-multiplier
    # with the default and an explicit multiplier range, thresholds over
    # many large multipliers, and the interval test against the sweep.
    code = cli_main(["verify", *argv, "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert code == 0
    assert digest == expected


def test_acceptance_report_bytes_are_pinned(capsys):
    # The canonical JSONL of the acceptance box; any change to a verdict,
    # witness or detail of any claim changes these bytes.
    code = cli_main(["verify", "all", "--D", "2..50", "--trace-bound", "40", "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert code == 0
    assert digest == "d321ec42bd923325c23a293f5fda89ede9d86c074cc7026bd11769f03011ca3b"
