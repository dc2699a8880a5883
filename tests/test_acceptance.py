"""Acceptance gate: the eleven claims the package exists to check.

Every criterion is decided by exact integer arithmetic -- there is no
tolerance anywhere, only node/runtime budgets.  Each test prints a single
``ACCEPTANCE nn <label>: PASS|FAIL`` line (with capture suspended, so the
line shows up in ordinary pytest output) and then asserts.

The shared fixture computes all scans once and keeps every element that an
exhaustive search certified as a sum of squares; the local-necessity
criterion re-checks that whole pool at the end.
"""

from __future__ import annotations

import time
from itertools import islice

import pytest

from soslab import (
    RingContext,
    ScanSpec,
    SKind,
    VerdictKind,
    decompose_sos,
    doubling_witness,
    estimate_stable_multiplier,
    is_square_mod_two,
    odd_multiple_witness,
    peters_five_squares,
    pythagoras_length,
    ramified_obstruction_witness,
    reports_to_jsonl,
    run_claims,
    s_element,
    s_is_sum_of_squares,
    scan_totally_positive,
)

BUDGET = 10**8

PYTHAGORAS_DS = (2, 3, 5, 6, 7, 13, 17, 21)
SMALL_MULTIPLIER_CASES = ((6, 1), (7, 1), (101, 1), (101, 2), (17, 1))
LARGE_MULTIPLIER_CASES = ((6, 3), (6, 4), (7, 4), (13, 7))
ODD_MULTIPLE_DS = (6, 7, 11)
S_INTEGER_DS = (3, 6, 7)
STABLE_MULTIPLIER_DS = (2, 5, 6, 13)

SQUAREFREE_6_TO_50 = tuple(
    d for d in range(6, 51) if all(d % (p * p) for p in range(2, 8))
)


def _finish(results: dict, ordinal: int, label: str, capsys) -> dict:
    status, payload = results[ordinal]
    ok = status == "ok" and not payload["failures"]
    line = f"ACCEPTANCE {ordinal:02d} {label}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    if status == "error":
        raise payload
    assert ok, payload["failures"][:8]
    return payload


# ---------------------------------------------------------------------------
# per-criterion computations


def _c01_doubling(pool: list) -> dict:
    started = time.perf_counter()
    failures = []
    checked = 0
    for d in (2, 3, 5):
        ctx = RingContext(d)
        for alpha in scan_totally_positive(ctx, 30):
            target = 2 * alpha
            verdict = decompose_sos(target, node_budget=BUDGET)
            checked += 1
            if verdict.kind is VerdictKind.FOUND:
                pool.append(target)
            else:
                failures.append(f"D={d}: 2*({alpha}) -> {verdict.kind.name}")
    for d in SQUAREFREE_6_TO_50:
        ctx = RingContext(d)
        target = 2 * doubling_witness(ctx)
        verdict = decompose_sos(target, node_budget=BUDGET)
        checked += 1
        if verdict.kind is not VerdictKind.EXHAUSTED_NONE:
            failures.append(f"D={d}: {target} -> {verdict.kind.name}")
    elapsed = time.perf_counter() - started
    if elapsed > 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 10 minute budget")
    return {"failures": failures, "checked": checked, "elapsed": elapsed}


def _c02_three_squares(pool: list) -> dict:
    ctx = RingContext(5)
    failures = []
    checked = 0
    for alpha in scan_totally_positive(ctx, 30):
        checked += 1
        n = pythagoras_length(alpha, node_budget=BUDGET)
        if n is None or n > 3:
            failures.append(f"{alpha}: length {n}")
        if n is not None:
            pool.append(alpha)
    return {"failures": failures, "checked": checked}


def _c03_square_implies_sos(pool: list) -> dict:
    failures = []
    checked = 0
    for d in (2, 3):
        ctx = RingContext(d)
        for alpha in scan_totally_positive(ctx, 24):
            if not is_square_mod_two(alpha):
                continue
            checked += 1
            verdict = decompose_sos(alpha, node_budget=BUDGET)
            if verdict.kind is VerdictKind.FOUND:
                pool.append(alpha)
            else:
                failures.append(f"D={d}: {alpha} -> {verdict.kind.name}")
    return {"failures": failures, "checked": checked}


def _scan_oracle_table() -> dict[int, list[tuple]]:
    """(alpha, oracle_found, length, peters) for every TP alpha, Tr <= 24."""
    table: dict[int, list[tuple]] = {}
    for d in PYTHAGORAS_DS:
        ctx = RingContext(d)
        rows = []
        for alpha in scan_totally_positive(ctx, 24):
            n = pythagoras_length(alpha, node_budget=BUDGET)
            rows.append((alpha, n is not None, n, peters_five_squares(alpha)))
        table[d] = rows
    return table


def _c04_pythagoras_bounds(pool: list, table: dict) -> dict:
    failures = []
    checked = 0
    for d in PYTHAGORAS_DS:
        lengths = []
        for alpha, found, n, _ in table[d]:
            if not found:
                continue
            checked += 1
            lengths.append(n)
            pool.append(alpha)
            if n > 5:
                failures.append(f"D={d}: {alpha} needs {n} squares")
        if d in (2, 3, 5) and max(lengths) != 3:
            failures.append(f"D={d}: max length {max(lengths)}, expected exactly 3")
    return {"failures": failures, "checked": checked}


def _c05_interval_vs_oracle(table: dict) -> dict:
    failures = []
    findings = []
    checked = 0
    for d in PYTHAGORAS_DS:
        kappa = RingContext(d).kappa
        for alpha, found, _, hit in table[d]:
            checked += 1
            if hit and not found:
                failures.append(f"D={d}: {alpha} interval hit but search refuted")
            elif found and not hit:
                if kappa == 1:
                    failures.append(f"D={d}: {alpha} representable but interval missed")
                else:
                    findings.append(f"D={d}: {alpha}")
    return {"failures": failures, "checked": checked, "findings": findings}


def _c06_small_multipliers(pool: list) -> dict:
    del pool  # refutations only; nothing representable to collect
    failures = []
    for d, m in SMALL_MULTIPLIER_CASES:
        ctx = RingContext(d)
        target = m * doubling_witness(ctx)
        verdict = decompose_sos(target, node_budget=BUDGET)
        if verdict.kind is not VerdictKind.EXHAUSTED_NONE:
            failures.append(f"D={d}, m={m}: {target} -> {verdict.kind.name}")
    return {"failures": failures, "checked": len(SMALL_MULTIPLIER_CASES)}


def _c07_large_multipliers(pool: list) -> dict:
    failures = []
    checked = 0
    for d, m in LARGE_MULTIPLIER_CASES:
        ctx = RingContext(d)
        betas = list(islice(scan_totally_positive(ctx, 40), 20))
        assert len(betas) == 20
        for rank, beta in enumerate(betas):
            target = ctx.kappa * m * beta
            checked += 1
            if not peters_five_squares(target):
                failures.append(f"D={d}, m={m}: interval missed {target}")
            if rank < 5:
                verdict = decompose_sos(target, node_budget=BUDGET)
                if verdict.kind is VerdictKind.FOUND:
                    pool.append(target)
                else:
                    failures.append(f"D={d}, m={m}: oracle refuted {target}")
    return {"failures": failures, "checked": checked}


def _c08_odd_multiples(pool: list) -> dict:
    del pool
    failures = []
    checked = 0
    for d in ODD_MULTIPLE_DS:
        ctx = RingContext(d)
        for m in (1, 3, 5):
            witness = odd_multiple_witness(ctx, m)
            checked += 1
            if is_square_mod_two(witness):
                failures.append(f"D={d}, m={m}: {witness} is a square mod 2*O")
            if witness.trace <= 40:
                verdict = decompose_sos(witness, node_budget=BUDGET)
                if verdict.kind is not VerdictKind.EXHAUSTED_NONE:
                    failures.append(f"D={d}, m={m}: {witness} -> {verdict.kind.name}")
    return {"failures": failures, "checked": checked}


def _c09_s_integers(pool: list) -> dict:
    failures = []
    checked = 0
    for d in S_INTEGER_DS:
        ctx = RingContext(d)
        for m in (3, 5):
            xi = s_element(ramified_obstruction_witness(ctx), 0, m)
            checked += 1
            verdict = s_is_sum_of_squares(xi, node_budget=BUDGET)
            if verdict.kind is not SKind.OBSTRUCTED:
                failures.append(f"D={d}, m={m}: {xi} -> {verdict.kind.name}")
        for beta in islice(scan_totally_positive(ctx, 20), 10):
            xi = s_element(beta, 0, 2)
            checked += 1
            verdict = s_is_sum_of_squares(xi, node_budget=BUDGET)
            if verdict.kind is not SKind.REPRESENTABLE:
                failures.append(f"D={d}, m=2: {xi} -> {verdict.kind.name}")
                continue
            if len(verdict.terms) > 5:
                failures.append(f"D={d}, m=2: {xi} took {len(verdict.terms)} terms")
            # the integral identity behind the verdict is itself a Found target
            scale = 2 ** (2 * verdict.j_used)
            pool.append(beta * scale)
    return {"failures": failures, "checked": checked}


def _c10_local_necessity(pool: list) -> dict:
    unique = {(t.ctx.D, t.u, t.v): t for t in pool}
    failures = [
        f"D={t.ctx.D}: {t} found but not a square mod 2*O"
        for t in unique.values()
        if not is_square_mod_two(t)
    ]
    return {"failures": failures, "checked": len(unique)}


def _c11_stable_multiplier() -> dict:
    failures = []
    checked = 0
    for d in STABLE_MULTIPLIER_DS:
        ctx = RingContext(d)
        cap = (d + 1) // 2
        report = estimate_stable_multiplier(ctx, cap + 1, 16)
        checked += 1
        m_star = report.details.get("m_star")
        if m_star is None or m_star > cap:
            failures.append(f"D={d}: m* = {m_star}, expected <= {cap}")
    spec = ScanSpec(d_list=list(STABLE_MULTIPLIER_DS), trace_bound=16, node_budget=BUDGET)
    first = reports_to_jsonl(run_claims(spec, ["stable-multiplier"]))
    second = reports_to_jsonl(run_claims(spec, ["stable-multiplier"]))
    if first != second:
        failures.append("stable-multiplier JSONL differs between identical runs")
    return {"failures": failures, "checked": checked}


@pytest.fixture(scope="module")
def results() -> dict:
    out: dict = {}
    pool: list = []

    def run(ordinal, fn, *args):
        try:
            out[ordinal] = ("ok", fn(*args))
        except Exception as exc:  # noqa: BLE001 - reported by the test itself
            out[ordinal] = ("error", exc)

    run(1, _c01_doubling, pool)
    run(2, _c02_three_squares, pool)
    run(3, _c03_square_implies_sos, pool)
    try:
        table = _scan_oracle_table()
    except Exception as exc:  # noqa: BLE001
        out[4] = out[5] = ("error", exc)
    else:
        run(4, _c04_pythagoras_bounds, pool, table)
        run(5, _c05_interval_vs_oracle, table)
    run(6, _c06_small_multipliers, pool)
    run(7, _c07_large_multipliers, pool)
    run(8, _c08_odd_multiples, pool)
    run(9, _c09_s_integers, pool)
    run(10, _c10_local_necessity, pool)
    run(11, _c11_stable_multiplier)
    return out


# ---------------------------------------------------------------------------
# the eleven gates


def test_acceptance_01_doubling_classification(results, capsys):
    payload = _finish(
        results, 1, "doubled elements: representable iff D in {2,3,5}", capsys
    )
    assert payload["checked"] > 500
    assert payload["elapsed"] <= 600.0


def test_acceptance_02_three_squares_bound(results, capsys):
    payload = _finish(
        results, 2, "every TP element of Z[(1+sqrt5)/2] needs <= 3 squares", capsys
    )
    assert payload["checked"] > 150


def test_acceptance_03_square_class_suffices_for_small_d(results, capsys):
    payload = _finish(
        results, 3, "D in {2,3}: square mod 2*O implies sum of squares", capsys
    )
    assert payload["checked"] > 50


def test_acceptance_04_pythagoras_bounds(results, capsys):
    payload = _finish(
        results, 4, "lengths cap at 5, and exactly 3 for D in {2,3,5}", capsys
    )
    assert payload["checked"] > 200


def test_acceptance_05_interval_test_matches_oracle(results, capsys):
    payload = _finish(results, 5, "interval test vs exhaustive oracle", capsys)
    assert payload["checked"] > 500


def test_acceptance_06_small_multiplier_obstructions(results, capsys):
    _finish(results, 6, "below threshold, multiplied witnesses stay obstructed", capsys)


def test_acceptance_07_large_multiplier_guarantees(results, capsys):
    payload = _finish(
        results, 7, "above threshold, scaled elements are five squares", capsys
    )
    assert payload["checked"] == 80


def test_acceptance_08_odd_multiple_witnesses(results, capsys):
    payload = _finish(
        results, 8, "odd multiples of the witness stay non-square", capsys
    )
    assert payload["checked"] == 9


def test_acceptance_09_s_integer_verdicts(results, capsys):
    payload = _finish(
        results, 9, "S-integer ladder: obstructed odd m, representable m=2", capsys
    )
    assert payload["checked"] == (2 + 10) * len(S_INTEGER_DS)


def test_acceptance_10_local_necessity(results, capsys):
    payload = _finish(results, 10, "every found target is a square mod 2*O", capsys)
    assert payload["checked"] > 400


def test_acceptance_11_stable_multiplier_reports(results, capsys):
    payload = _finish(
        results, 11, "stable multiplier estimates and reproducible reports", capsys
    )
    assert payload["checked"] == len(STABLE_MULTIPLIER_DS)
