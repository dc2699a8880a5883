"""Command-line interface: grammar, verdicts, formats, exit codes."""

import json
import time

import pytest

from soslab import BasisMismatch, ParseError, RingContext
from soslab.cli import _parse_d_spec, main, parse_element

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


@pytest.mark.parametrize("bad", ["", "oops", "1+", "sqrt", "2+2", "w+1", "1.5", "++3"])
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


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--D", "2", "--elem", "6+2sqrt2", "--max-terms", "-1"],
        ["decompose", "--D", "2", "--elem", "6+2sqrt2", "--max-terms", "0"],
        ["decompose", "--D", "2", "--elem", "6+2sqrt2", "--max-terms", "two"],
        ["sint", "--D", "6", "--elem", "3+sqrt6", "--m", "2", "--j-budget", "-1"],
    ],
)
def test_out_of_range_search_limits_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exits_2(capsys):
    code, _ = run_cli(capsys, "decompose", "--D", "6", "--elem", "1+sqrt7")
    assert code == 2
    code, _ = run_cli(capsys, "decompose", "--D", "12", "--elem", "1")
    assert code == 2


def test_budget_exhaustion_exits_3(capsys):
    code, out = run_cli(
        capsys, "decompose", "--D", "13", "--elem", "20+2w", "--node-budget", "2"
    )
    assert code == 3


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
    assert _parse_d_spec("1..30") == (
        2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30,
    )
    assert _parse_d_spec("2,3,5") == (2, 3, 5)
