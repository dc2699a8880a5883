"""Command-line interface: grammar, verdicts, formats, exit codes."""

import json
import time

import pytest

from soslab import BasisMismatch, ParseError, RingContext, cli, criteria, quadfield
from soslab.cli import _parse_d_spec, main, parse_element
from soslab.criteria import _admissible_points

# ---------------------------------------------------------------------------
# element grammar


@pytest.mark.parametrize(
    "text,d,coords",
    [
        ("7", 6, (7, 0)),
        ("-3", 6, (-3, 0)),
        ("3+sqrt6", 6, (3, 1)),
        ("3-sqrt6", 6, (3, -1)),
        ("6+2sqrt6", 6, (6, 2)),
        ("sqrt6", 6, (0, 1)),
        ("-2sqrt6", 6, (0, -2)),
        ("1+w", 5, (1, 1)),
        ("2-w", 5, (2, -1)),
        ("5w", 5, (0, 5)),
        ("-w", 5, (0, -1)),
        ("10-3w", 13, (10, -3)),
        ("3 + sqrt6", 6, (3, 1)),  # spaces are cosmetic
    ],
)
def test_parse_element_accepts(text, d, coords):
    ctx = RingContext(d)
    assert parse_element(ctx, text) == ctx.element(*coords)


def test_parse_sqrt_basis_converts_on_half_basis():
    ctx = RingContext(5)
    # 3+sqrt5 = 2 + 2w since w = (1+sqrt5)/2
    assert parse_element(ctx, "3+sqrt5") == ctx.element(2, 2)
    assert parse_element(ctx, "sqrt5") == ctx.element(-1, 2)


def test_parse_rejects_wrong_radicand():
    ctx = RingContext(6)
    with pytest.raises(BasisMismatch):
        parse_element(ctx, "1+sqrt7")


@pytest.mark.parametrize(
    "bad", ["", "oops", "1+", "sqrt", "2+2", "w+1", "1.5", "++3", "1+w2"]
)
def test_parse_rejects_garbage(bad):
    ctx = RingContext(6)
    with pytest.raises((ParseError, BasisMismatch)):
        parse_element(ctx, bad)


def test_parse_error_carries_position():
    ctx = RingContext(6)
    with pytest.raises(ParseError) as exc:
        parse_element(ctx, "3+oops")
    assert exc.value.position == 2


@pytest.mark.parametrize("d,coords", [(6, (3, 1)), (6, (0, -2)), (5, (1, 1)), (13, (0, 3))])
def test_format_parse_round_trip(d, coords):
    ctx = RingContext(d)
    alpha = ctx.element(*coords)
    assert parse_element(ctx, str(alpha)) == alpha


# ---------------------------------------------------------------------------
# subcommands (through main(), capturing stdout)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decompose_found(capsys):
    code, out = run_cli(capsys, "decompose", "--D", "2", "--elem", "4+2sqrt2")
    assert code == 0
    assert "4+2sqrt2 = (1+sqrt2)^2 + (1)^2" in out


def test_decompose_refuted_is_still_exit_zero(capsys):
    code, out = run_cli(capsys, "check", "--D", "6", "--elem", "6+2sqrt6")
    assert code == 0
    assert "not a sum of squares" in out


def test_decompose_json_terms_reverify(capsys):
    code, out = run_cli(
        capsys, "decompose", "--D", "2", "--elem", "8+4sqrt2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "decompose"
    assert record["D"] == 2
    assert record["verdict"] == "sum_of_squares"
    assert record["nodes"] >= 1
    assert isinstance(record["elapsed_ms"], int)
    ctx = RingContext(2)
    total = ctx.zero
    for t in record["terms"]:
        total = total + parse_element(ctx, t).square()
    assert total == parse_element(ctx, record["element"])


def test_decompose_shortest(capsys):
    code, out = run_cli(
        capsys, "decompose", "--D", "2", "--elem", "6+2sqrt2", "--shortest", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert len(record["terms"]) == 3


def test_decompose_shortest_counts_every_search(capsys):
    # One branch-and-bound search: the root and four nodes reach a
    # four-term hit; the cap drops to three terms, a lookup finds the
    # three-term decomposition, and two more nodes rule out two terms.
    code, out = run_cli(
        capsys, "decompose", "--D", "2", "--elem", "6+2sqrt2", "--shortest", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["terms"] == ["1+sqrt2", "1", "sqrt2"]
    assert record["nodes"] == 7


def test_capped_exhaustion_is_not_a_refutation(capsys):
    # 6+2sqrt2 = (1+sqrt2)^2 + 1^2 + (sqrt2)^2 needs three squares.
    code, out = run_cli(
        capsys, "decompose", "--D", "2", "--elem", "6+2sqrt2", "--max-terms", "2",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "none_within_max_terms"
    assert record["certificate"] == {
        "kind": "exhaustion", "nodes": record["nodes"], "max_terms": 2,
    }
    code, out = run_cli(
        capsys, "decompose", "--D", "2", "--elem", "6+2sqrt2", "--max-terms", "2"
    )
    assert "not a sum of at most 2 squares" in out


def test_shortest_and_max_terms_exclude_each_other(capsys):
    # A shortest search has no term cap; taking both would drop one silently.
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--D", "2", "--elem", "7", "--shortest", "--max-terms", "1"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


ELEMENTS = {
    "found": ("--D", "2", "--elem", "6+2sqrt2"),
    "exhausted": ("--D", "6", "--elem", "6+2sqrt6"),
    "budget-miss": ("--D", "13", "--elem", "20+2w", "--node-budget", "2"),
}
NO_VERDICT = (
    "unknown", {"kind": "budget_exceeded", "budget": 2}, 3,
    "no verdict for 20+2w: node budget 2 exceeded",
)
# (verdict, certificate without its node count, exit code, human line)
CONTRACT = {
    ("check", "found"): (
        "sum_of_squares", {"kind": "decomposition", "terms": ["1+sqrt2", "1", "1", "1"]}, 0,
        "6+2sqrt2 is a sum of 4 squares",
    ),
    ("decompose", "found"): (
        "sum_of_squares", {"kind": "decomposition", "length": 4}, 0,
        "6+2sqrt2 = (1+sqrt2)^2 + (1)^2 + (1)^2 + (1)^2",
    ),
    ("decompose --shortest", "found"): (
        "sum_of_squares", {"kind": "decomposition", "length": 3}, 0,
        "6+2sqrt2 = (1+sqrt2)^2 + (1)^2 + (sqrt2)^2  [shortest: 3 squares]",
    ),
    ("decompose --max-terms 2", "found"): (
        "none_within_max_terms", {"kind": "exhaustion", "max_terms": 2}, 0,
        "6+2sqrt2 is not a sum of at most 2 squares [exhausted 4 nodes]",
    ),
    ("check", "exhausted"): (
        "not_sum_of_squares", {"kind": "exhaustion"}, 0,
        "6+2sqrt6 is not a sum of squares [exhausted 2 nodes]",
    ),
    ("decompose", "exhausted"): (
        "not_sum_of_squares", {"kind": "exhaustion"}, 0,
        "6+2sqrt6 is not a sum of squares [exhausted 2 nodes]",
    ),
    ("decompose --shortest", "exhausted"): (
        "not_sum_of_squares", {"kind": "exhaustion"}, 0,
        "6+2sqrt6 is not a sum of squares in O(sqrt6)",
    ),
    ("decompose --max-terms 2", "exhausted"): (
        "none_within_max_terms", {"kind": "exhaustion", "max_terms": 2}, 0,
        "6+2sqrt6 is not a sum of at most 2 squares [exhausted 2 nodes]",
    ),
    ("check", "budget-miss"): NO_VERDICT,
    ("decompose", "budget-miss"): NO_VERDICT,
    ("decompose --shortest", "budget-miss"): NO_VERDICT,
    ("decompose --max-terms 2", "budget-miss"): NO_VERDICT,
}


@pytest.mark.parametrize("elem", list(ELEMENTS))
@pytest.mark.parametrize(
    "call",
    ["check", "decompose", "decompose --shortest", "decompose --max-terms 2"],
    ids=lambda call: call.replace(" ", ""),
)
def test_check_and_decompose_print_their_contract(capsys, call, elem):
    # Every cell of the two subcommands' output: the JSON verdict and
    # certificate (its node count aside), the exit code and the human line.
    verdict, certificate, code, human = CONTRACT[call, elem]
    argv = [*call.split(), *ELEMENTS[elem]]
    json_code, out = run_cli(capsys, *argv, "--format", "json")
    record = json.loads(out)
    record["certificate"].pop("nodes", None)
    assert (json_code, record["verdict"], record["certificate"]) == (code, verdict, certificate)
    assert run_cli(capsys, *argv) == (code, human + "\n")
    if call == "check":
        # check takes no search option of decompose's.
        for option in (["--shortest"], ["--max-terms", "1"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, *option])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--D", "2", "--elem", "6+2sqrt2", "--max-terms", "-1"],
        ["decompose", "--D", "2", "--elem", "6+2sqrt2", "--max-terms", "0"],
        ["decompose", "--D", "2", "--elem", "6+2sqrt2", "--max-terms", "two"],
    ],
)
def test_out_of_range_search_limits_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" not in err


@pytest.mark.parametrize(
    "option,message",
    [
        (["--m", "1"], "modulus must be an integer > 1, got 1"),
        (["--m", "-2"], "modulus must be an integer > 1, got -2"),
        (["--m", "2", "--j", "-1"], "denominator exponent must be >= 0, got -1"),
    ],
)
def test_sint_rejects_a_bad_modulus_or_exponent(capsys, option, message):
    code = main(["sint", "--D", "6", "--elem", "3+sqrt6", *option, "--format", "json"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_sint_rejects_zero_before_any_work(capsys):
    # 0's canonical exponent is 0, so a huge --j costs nothing before the check.
    code = main(["sint", "--D", "6", "--elem", "0", "--m", "2", "--j", "1000000000000"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: numerator 0 is not totally positive\n"


def test_check_reports_local_information(capsys):
    code, out = run_cli(capsys, "check", "--D", "6", "--elem", "3+sqrt6", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "not_sum_of_squares"
    assert record["totally_positive"] is True
    assert record["square_mod_2O"] is False


def test_peters_interval_report(capsys):
    code, out = run_cli(capsys, "peters", "--D", "5", "--elem", "3+sqrt5", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "interval_hit"
    assert record["certificate"]["admissible_n"] == [2]

    code, out = run_cli(capsys, "peters", "--D", "6", "--elem", "3+sqrt6", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "no_interval_hit"
    assert record["certificate"]["kind"] == "odd_sqrt_coefficient"


@pytest.mark.parametrize("elem", ["100000000000", "1" + "0" * 30])
def test_peters_on_a_huge_norm_reports_the_range(capsys, elem):
    start = time.perf_counter()
    code, out = run_cli(capsys, "peters", "--D", "2", "--elem", elem, "--format", "json")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "interval_hit"
    n = int(elem)
    # scale 4, center n, radicand n^2: every n in 0 .. n/2.
    assert record["certificate"]["admissible_range"] == {
        "first": 0, "last": n // 2, "step": 1, "count": n // 2 + 1,
    }
    assert "admissible_n" not in record["certificate"]
    code, out = run_cli(capsys, "peters", "--D", "2", "--elem", elem)
    assert code == 0 and f"({n // 2 + 1} integers)" in out


def test_peters_lists_up_to_the_limit(capsys):
    # 1000+w in D = 5: scale 5, parity 1, 400 admissible integers.
    code, out = run_cli(capsys, "peters", "--D", "5", "--elem", "1000+w", "--format", "json")
    assert code == 0
    certificate = json.loads(out)["certificate"]
    assert certificate["admissible_range"]["count"] == 400
    code, out = run_cli(capsys, "peters", "--D", "5", "--elem", "40+w", "--format", "json")
    certificate = json.loads(out)["certificate"]
    assert certificate["admissible_n"] == list(range(1, 33, 2))
    assert "admissible_range" not in certificate


def test_witness_kinds(capsys):
    code, out = run_cli(capsys, "witness", "--D", "6", "--kind", "doubling")
    assert code == 0 and "3+sqrt6" in out
    code, out = run_cli(capsys, "witness", "--D", "6", "--kind", "ramified")
    assert code == 0 and "4+sqrt6" in out
    code, out = run_cli(capsys, "witness", "--D", "6", "--kind", "odd-multiple", "--m", "3")
    assert code == 0 and "9+3sqrt6" in out


def test_witness_requires_ramified_context(capsys):
    code, out = run_cli(capsys, "witness", "--D", "5", "--kind", "ramified")
    assert code == 2


def test_sint_representable(capsys):
    code, out = run_cli(capsys, "sint", "--D", "6", "--elem", "4+sqrt6", "--m", "2")
    assert code == 0
    assert "(2+sqrt6)/2^1" in out


def test_sint_tsv_writes_terms_over_their_denominator(capsys):
    # 4+sqrt6 = ((2+sqrt6)/2)^2 + (2/2)^2 + (1/2)^2 + (1/2)^2 in O[1/2]; the
    # bare numerators would square to 4*(4+sqrt6).
    code, out = run_cli(
        capsys, "sint", "--D", "6", "--elem", "4+sqrt6", "--m", "2", "--format", "tsv"
    )
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[3] == "representable"
    assert fields[4] == "(2+sqrt6)/2^1;(2)/2^1;(1)/2^1;(1)/2^1"
    code, out = run_cli(
        capsys, "sint", "--D", "2", "--elem", "4+2sqrt2", "--m", "3", "--format", "tsv"
    )
    assert code == 0
    assert out.strip().split("\t")[4] == "1+sqrt2;1"  # j_used = 0: no denominator


def test_sint_obstructed(capsys):
    code, out = run_cli(capsys, "sint", "--D", "6", "--elem", "3+sqrt6", "--m", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "obstructed"
    assert "not a square" in record["certificate"]["reason"]


def test_sint_unknown_exits_3(capsys):
    code, out = run_cli(
        capsys, "sint", "--D", "6", "--elem", "3+sqrt6", "--m", "2", "--node-budget", "2",
        "--format", "json",
    )
    assert code == 3
    record = json.loads(out)
    assert record["verdict"] == "unknown"
    assert record["certificate"] == {"kind": "budget_exceeded", "budget": 2}
    assert record["gave_up_at_j"] == 1


@pytest.mark.parametrize("d,elem", [(8002, "90+sqrt8002"), (8005, "45+w")])
def test_sint_climbs_as_far_as_peters_needs(capsys, d, elem):
    # Both need five escalation levels above the input.
    code, out = run_cli(
        capsys, "sint", "--D", str(d), "--elem", elem, "--m", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "representable"
    assert record["certificate"]["j_used"] == 5


def test_scan_lists_elements(capsys):
    code, out = run_cli(capsys, "scan", "--D", "6", "--trace-bound", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("1\t")
    assert any("3-sqrt6" in line for line in lines)


def test_scan_with_oracle(capsys):
    code, out = run_cli(
        capsys, "scan", "--D", "6", "--trace-bound", "6", "--with-oracle", "--format", "json"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[0]) == {"schema": 1}
    rows = [json.loads(line) for line in lines[1:]]
    by_elem = {r["element"]: r for r in rows}
    assert by_elem["3+sqrt6"]["length"] is None
    assert by_elem["2"]["length"] == 2


def test_scan_tsv_writes_the_scan_record(capsys):
    # The columns of the JSON record, in its order; no length is empty.
    code, out = run_cli(capsys, "scan", "--D", "2", "--trace-bound", "6", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[1].split("\t") == ["2-sqrt2", "2", "-1", "4", "2", "False"]
    argv = ["scan", "--D", "6", "--trace-bound", "6", "--with-oracle", "--format", "tsv"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert [line.split("\t") for line in out.splitlines()] == [
        ["1", "1", "0", "2", "1", "True", "1"],
        ["2", "2", "0", "4", "4", "True", "2"],
        ["3-sqrt6", "3", "-1", "6", "3", "False", ""],
        ["3", "3", "0", "6", "9", "True", "3"],
        ["3+sqrt6", "3", "1", "6", "3", "False", ""],
    ]


def test_out_appends_exactly_what_stdout_prints(tmp_path, capsys):
    argv = ["scan", "--D", "6", "--trace-bound", "40", "--format", "json"]
    code, printed = run_cli(capsys, *argv)
    assert code == 0 and printed.count("\n") > 100
    out_path = tmp_path / "scan.jsonl"
    out_path.write_text("earlier\n")
    code, stdout = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0 and stdout == ""
    assert out_path.read_text() == "earlier\n" + printed


def test_verify_out_replaces_the_file(tmp_path, capsys):
    argv = ["verify", "doubling", "--D", "2..5", "--trace-bound", "8"]
    code, printed = run_cli(capsys, *argv)
    out_path = tmp_path / "rep.jsonl"
    out_path.write_text("stale\n")
    for _ in range(2):
        assert run_cli(capsys, *argv, "--out", str(out_path)) == (0, "")
    assert out_path.read_text() == printed


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "scan.jsonl"
    code = main(["scan", "--D", "6", "--trace-bound", "6", "--out", str(missing)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error:" in captured.err and "no-such-dir" in captured.err


def test_verify_single_claim(capsys):
    code, out = run_cli(capsys, "verify", "thm3", "--D", "2..8", "--trace-bound", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[0]) == {"schema": 1}
    assert len(lines) == 6  # D = 2, 3, 5, 6, 7


def test_verify_writes_file(tmp_path, capsys):
    out_path = tmp_path / "rep.jsonl"
    code, _ = run_cli(
        capsys, "verify", "doubling", "--D", "2..5", "--trace-bound", "8", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert json.loads(lines[0]) == {"schema": 1}


def test_verify_rejects_tsv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "doubling", "--D", "2", "--trace-bound", "8", "--format", "tsv"])
    assert exc.value.code == 2


def test_verify_resolves_aliases_and_rejects_unknown_claims(capsys):
    code, out = run_cli(capsys, "verify", "m0", "--D", "6", "--trace-bound", "8")
    assert code == 0
    assert json.loads(out.strip().split("\n")[1])["claim_id"].startswith("stable-multiplier")
    code = main(["verify", "fermat", "--D", "6", "--trace-bound", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown claim 'fermat'" in captured.err


def test_verify_human_summary(capsys):
    code, out = run_cli(
        capsys, "verify", "doubling", "--D", "2..5", "--trace-bound", "8",
        "--format", "human",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_human_lists_each_failure(capsys, monkeypatch):
    from soslab import verify

    failure = {"element": "3+sqrt6", "expected": "square mod 2*O", "got": "non-square class"}

    def failing(ctx, spec, elements, lengths):
        return verify.Report(f"local-necessity/D={ctx.D}", 1, [failure], [], {})

    # run_claims looks each claim up by name on the module.
    monkeypatch.setattr(verify, "verify_local_necessity", failing)
    code, out = run_cli(
        capsys, "verify", "lemma1", "--D", "6", "--trace-bound", "8", "--format", "human"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("local-necessity/D=6: FAIL (1 checked, 1 failures, ")
    assert lines[1:] == [f"  failure: {failure}"]


@pytest.mark.parametrize(
    "argv,line",
    [
        # A single multiplier is a range of one.
        (
            ["verify", "thresholds", "--D", "6", "--trace-bound", "10", "--m-range", "3"],
            '"m_range":[3,3]',
        ),
        (
            ["decompose", "--D", "6", "--elem", "6+2sqrt6", "--shortest"],
            "6+2sqrt6 is not a sum of squares in O(sqrt6)",
        ),
        (
            ["peters", "--D", "13", "--elem", "2+w"],
            "2+w: no admissible integer in the interval",
        ),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_call_prints_its_line(capsys, argv, line):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert line in out


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exits_2(capsys):
    code, _ = run_cli(capsys, "decompose", "--D", "6", "--elem", "1+sqrt7")
    assert code == 2
    code, _ = run_cli(capsys, "decompose", "--D", "12", "--elem", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv,verdict,nodes",
    [
        # The refutation is charged 7 units for 2 nodes: the root's window
        # tries 3 values of a (4 units), its one child's 2 (3 units).
        (["check", "--D", "6", "--elem", "6+2sqrt6"], "not_sum_of_squares", 2),
        # Level 0 exhausts in 2 nodes for 7 units; level 1 hits in 4 for 13.
        (["sint", "--D", "6", "--elem", "6+2sqrt6", "--m", "2"], "representable", 6),
    ],
)
def test_small_budget_covers_the_window_work_actually_done(capsys, argv, verdict, nodes):
    code, out = run_cli(capsys, *argv, "--node-budget", "35", "--format", "json")
    record = json.loads(out)
    assert (code, record["verdict"], record["nodes"]) == (0, verdict, nodes)


def test_budget_exhaustion_exits_3(capsys):
    code, out = run_cli(
        capsys, "decompose", "--D", "13", "--elem", "20+2w", "--node-budget", "2"
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv,ring",
    [
        (
            ["thresholds", "--D", "2..50", "--trace-bound", "60", "--m-range", "7..7"],
            "D=2 to trace 60",
        ),
        # D = 19's sweep fits the budget; the next ring's does not.
        (
            ["thresholds", "--D", "19,2", "--trace-bound", "20", "--m-range", "7..7"],
            "D=2 to trace 20",
        ),
        # doubling reads a sweep to twice the trace bound.
        (["all", "--D", "5", "--trace-bound", "20"], "D=5 to trace 40"),
    ],
)
def test_verify_budget_error_names_the_sweep(capsys, argv, ring):
    code = main(["verify", *argv, "--node-budget", "500"])
    err = capsys.readouterr().err
    assert code == 3
    assert f"the sweep of {ring} within the node budget of 500" in err


@pytest.mark.parametrize(
    "argv,scope",
    [
        (
            ["stable-multiplier", "--D", "7", "--trace-bound", "1000000", "--node-budget", "1000"],
            "the scan of D=7 to trace 1000000",
        ),
        (
            ["thresholds", "--D", "5", "--trace-bound", "4", "--m-range", "1..100000000000"],
            "the multiples of thresholds/D=5/m=1..100000000000",
        ),
        # kappa = 2, so about 5*10^8 multipliers are tabled, for each beta.
        (
            [
                "stable-multiplier", "--D", "1000000007", "--trace-bound", "4",
                "--m-range", "1..100000000000",
            ],
            "the multiples of stable-multiplier/D=1000000007/m_max=100000000000",
        ),
        # A D range is charged one unit per D before any D is listed.
        (
            ["doubling", "--D", "2..1000000000000", "--trace-bound", "2", "--node-budget", "10"],
            "the D range 2..1000000000000",
        ),
    ],
)
def test_verify_budget_error_names_the_scan_or_the_multiples(capsys, argv, scope):
    start = time.perf_counter()
    code = main(["verify", *argv])
    assert time.perf_counter() - start < 5
    assert code == 3
    assert f"no verdict for {scope} within the node budget" in capsys.readouterr().err


def test_stable_multiplier_charges_only_the_tabled_multiples(capsys, monkeypatch):
    # D = 5 tables m = 1 alone, so an m_max of 2*10^8 is charged one unit
    # per beta, not 2*10^8, and the box's one beta, 1, is tested at m = 1
    # alone: one (beta, m) interval test.
    tests = []

    def counted(*args):
        tests.append(args)
        return _admissible_points(*args)

    monkeypatch.setattr(criteria, "_admissible_points", counted)
    argv = ["stable-multiplier", "--D", "5", "--trace-bound", "2", "--m-range", "1..200000000"]
    code = main(["verify", *argv])
    assert len(tests) == 1
    assert code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out.split("\n")[1])["details"]["m_star"] == 1


HUGE_D = "1000000000000000000000000000057"


def _refuse(*args):
    """Stands in for work that a budget charge must refuse before it runs."""
    raise AssertionError("the work ran before its charge refused it")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--D", HUGE_D, "--elem", "1"],
        ["witness", "--D", HUGE_D],
        ["verify", "doubling", "--D", f"2,{HUGE_D}", "--trace-bound", "2"],
        ["verify", "doubling", "--D", f"{HUGE_D}..{HUGE_D}", "--trace-bound", "2"],
    ],
)
def test_a_huge_d_is_charged_before_its_squarefree_test(capsys, monkeypatch, argv):
    # Trial division up to the cube root of D, about 10^10 steps here, is
    # charged to the default node budget before any ring is built, so no
    # squarefree test runs at all.
    monkeypatch.setattr(quadfield, "square_factor", _refuse)
    code = main(argv)
    assert code == 3
    err = capsys.readouterr().err
    assert f"no verdict for the squarefree test of D={HUGE_D} within the node budget" in err


@pytest.mark.parametrize("budget,code", [("100", 0), ("99", 3)])
def test_a_modest_d_still_runs(capsys, budget, code):
    # The prime D = 1000003 has integer cube root 100: its squarefree test
    # fits a budget of 100 nodes, and not one of 99.
    argv = ["check", "--D", "1000003", "--elem", "1", "--node-budget", budget]
    assert run_cli(capsys, *argv) == (code, "1 is a sum of 1 squares\n" if code == 0 else "")


@pytest.mark.parametrize(
    "argv,scope",
    [
        # The scan's box is counted, with an early exit, before any line.
        (
            ["scan", "--D", "2", "--trace-bound", "1000000000000", "--node-budget", "100"],
            "the scan of D=2 to trace 1000000000000",
        ),
        # 10,001 D, each charged the cube root 10^5 of the largest: 10^9 in all.
        (
            ["verify", "doubling", "--D", "1000000000000000..1000000000010000",
             "--trace-bound", "2", "--node-budget", "100000"],
            "the squarefree tests of the D range 1000000000000000..1000000000010000",
        ),
    ],
)
def test_an_input_sized_loop_is_charged_before_it_runs(capsys, monkeypatch, argv, scope):
    # The loop itself never starts: the scan lists no element, and the D
    # range builds no ring.
    loop = {"scan": "scan_totally_positive", "verify": "RingContext"}[argv[0]]
    monkeypatch.setattr(cli, loop, _refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"no verdict for {scope} within the node budget" in captured.err


@pytest.mark.parametrize("budget,code", [("169", 0), ("168", 3)])
@pytest.mark.parametrize("fmt", ["human", "json"])
def test_scan_is_charged_its_box(capsys, budget, code, fmt):
    # D = 2 has 169 totally positive elements of trace at most 30.
    argv = ["scan", "--D", "2", "--trace-bound", "30", "--format", fmt, "--node-budget", budget]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert len(captured.out.splitlines()) == 169 + (fmt == "json")
    else:
        assert captured.out == ""
        assert "the scan of D=2 to trace 30 within the node budget of 168" in captured.err


@pytest.mark.parametrize("budget,code", [("400", 0), ("399", 3)])
def test_a_d_range_is_charged_its_width_times_its_cube_root(capsys, budget, code):
    # Four D, each charged the integer cube root 100 of 1000003: 400 units.
    argv = ["doubling", "--D", "1000000..1000003", "--trace-bound", "2", "--node-budget", budget]
    assert main(["verify", *argv]) == code
    err = capsys.readouterr().err
    scope = "the squarefree tests of the D range 1000000..1000003 within the node budget of 399"
    assert (scope in err) == (code == 3)


@pytest.mark.parametrize("budget,code", [("200", 0), ("199", 3), ("100", 3)])
def test_a_d_list_is_charged_the_sum_of_its_cube_roots(capsys, budget, code):
    # Two primes, each of integer cube root 100: 200 units for their tests
    # together, though each alone fits a budget of 100.
    argv = ["doubling", "--D", "1000003,1000033", "--trace-bound", "2", "--node-budget", budget]
    assert main(["verify", *argv]) == code
    err = capsys.readouterr().err
    scope = f"the squarefree tests of the D list 1000003,1000033 within the node budget of {budget}"
    assert (scope in err) == (code == 3)


@pytest.mark.parametrize(
    "d,witness",
    [
        ("1000000000000000002", "1000000002+sqrt1000000000000000002"),
        ("1000000000000000003", "1000000001+sqrt1000000000000000003"),
    ],
)
def test_ramified_witness_of_a_huge_d_is_immediate(capsys, monkeypatch, d, witness):
    # Counted in elements built, not in time: the witness builds 5 or 7,
    # where a search up to sqrt(D) would build about 10^9.  (The call's
    # time is D's squarefree test, about 0.1 s at this D.)
    built = 0
    from_pair = quadfield._from_pair

    def counted(*args):
        nonlocal built
        built += 1
        return from_pair(*args)

    monkeypatch.setattr(quadfield, "_from_pair", counted)
    code, out = run_cli(capsys, "witness", "--D", d, "--kind", "ramified")
    assert (code, out) == (0, f"ramified obstruction witness for D={d}: {witness}\n")
    assert 0 < built <= 20


def test_verify_doubling_outside_2_3_5_scans_nothing(capsys):
    # Only the witness is refuted, so no budget covers the box.
    argv = ["doubling", "--D", "7", "--trace-bound", "1000000", "--node-budget", "1000"]
    assert main(["verify", *argv]) == 0


@pytest.mark.parametrize("fmt", ["json", "human"])
@pytest.mark.parametrize("claim,d_spec", [("scharlau", "7"), ("maass", "2,3")])
def test_verify_of_a_claim_that_applies_to_no_listed_d_is_a_usage_error(
    capsys, tmp_path, fmt, claim, d_spec
):
    # A pass over zero instances would be a misleading verdict.
    out_path = tmp_path / "report"
    argv = ["verify", claim, "--D", d_spec, "--trace-bound", "10", "--format", fmt]
    assert main([*argv, "--out", str(out_path)]) == 2
    assert not out_path.exists()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{claim} applies to none of D = {d_spec}" in captured.err


# An empty range is charged nothing: its width is 0 or below.
@pytest.mark.parametrize("d_spec", ["2..1", "4..4", "10..5", "2..-5"])
def test_verify_rejects_an_empty_d_spec(capsys, d_spec):
    assert main(["verify", "pythagoras", "--D", d_spec, "--trace-bound", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the D list is empty" in captured.err


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--D", "2", "--elem", "4+2sqrt2"],
        ["verify", "doubling", "--D", "2", "--trace-bound", "8"],
    ],
)
def test_nonpositive_node_budget_is_a_usage_error(capsys, argv, budget):
    # Neither value may fall back to a default or report an exhausted budget.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--node-budget", budget])
    assert exc.value.code == 2
    assert "--node-budget" in capsys.readouterr().err


def test_tsv_format(capsys):
    code, out = run_cli(
        capsys, "decompose", "--D", "2", "--elem", "4+2sqrt2", "--format", "tsv"
    )
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "decompose"
    assert fields[1] == "2"
    assert fields[2] == "4+2sqrt2"
    assert fields[3] == "sum_of_squares"
    assert fields[4] == "1+sqrt2;1"


@pytest.mark.parametrize("bound", ["-3", "0", "1"])
@pytest.mark.parametrize("oracle", [[], ["--with-oracle"]])
def test_scan_rejects_trace_bound_below_two(capsys, bound, oracle):
    code = main(["scan", "--D", "6", "--trace-bound", bound, *oracle])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "trace bound below 2 scans nothing" in captured.err


def test_d_range_keeps_only_squarefree():
    # A range lists the ring of each D it keeps; a list lists its D.
    assert tuple(ctx.D for ctx in _parse_d_spec("1..30")) == (
        2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30,
    )
    assert _parse_d_spec("2,3,5") == (2, 3, 5)


def test_verify_tests_each_d_of_a_range_once(capsys, monkeypatch):
    # Four D of about 10^18, each test about 5 * 10^5 trial divisions: the
    # range's own test builds the ring that ScanSpec then keeps.
    calls = []
    square_factor = quadfield.square_factor

    def counting(d):
        calls.append(d)
        return square_factor(d)

    monkeypatch.setattr(quadfield, "square_factor", counting)
    d_range = "1000000000000000000..1000000000000000003"
    assert main(["verify", "doubling", "--D", d_range, "--trace-bound", "2"]) == 0
    assert sorted(calls) == list(range(10**18, 10**18 + 4))
    assert "doubling" in capsys.readouterr().out
