"""Scan harness: finite verifications of the package's headline claims.

Each verifier walks an exactly-enumerated stream of totally positive
elements (ordered by (trace, a, b)), applies a claim-specific check, and
returns a Report: instances checked, failures (element, expected, got),
standalone-checkable witnesses, and claim-specific scalars.
Representability and shortest lengths over the box are read from one
`Sweep` per ring, which `run_claims` shares across the claims, and so
are the refutations of the odd multiple witnesses; the doubling and
small-multiplier witness refutations run the search oracle.  Reports
serialize to JSONL with a schema header; serialization is canonical
(sorted keys, no timestamps), so a rerun with the same parameters
produces byte-identical output.

Failures are the load-bearing part: an empty failure list from an honest
oracle is the whole point of the harness.  Mismatches in directions that
no theorem promises (e.g. the converse of the interval test for
D = 2, 3 mod 4) are reported under `details` as findings, not failures.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple

from .criteria import (
    doubling_witness,
    large_multiplier_guaranteed,
    odd_multiple_witness,
    peters_five_squares,
    small_multiplier_obstructed,
)
from .decompose import DEFAULT_NODE_BUDGET, VerdictKind, decompose_sos
from .errors import WrongField
from .quadfield import DyadicClass, QuadInt, RingContext
from .residues import is_square_mod_two
from .sintegers import PYTHAGORAS_CAP
from .sweep import Sweep

SCHEMA_VERSION = 1

# Smallest trace at which a length-3 element exists for D in {2, 3, 5}
# (6+2*sqrt(2), 6+2*sqrt(3), and 3+w for D=5, the latter at trace 7); the
# "length 3 is attained" check only applies at or beyond this bound.
LENGTH3_ATTAINED_TRACE = 12


@dataclass(frozen=True)
class ScanSpec:
    """Validated parameters for a batch of verifications.

    `workers` has no effect: the claims read one sweep per ring in this
    process.  It is still accepted, and must be at least 1, so that
    existing callers keep working.
    """

    d_list: tuple[int, ...]
    trace_bound: int
    m_range: tuple[int, int] | None = None
    node_budget: int = DEFAULT_NODE_BUDGET
    workers: int = 1

    def __post_init__(self) -> None:
        if self.trace_bound < 2:
            raise ValueError("trace bound below 2 scans nothing")
        if self.m_range is not None and not 1 <= self.m_range[0] <= self.m_range[1]:
            raise ValueError(f"bad multiplier range {self.m_range}")
        if self.node_budget < 1:
            raise ValueError("node budget must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for d in self.d_list:
            RingContext(d)  # raises unless squarefree and >= 2


@dataclass
class Report:
    """Outcome of one verification claim over one scan."""

    claim_id: str
    instances_checked: int
    failures: list[dict]
    witnesses: list[str]
    details: dict
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_record(self) -> dict:
        # Canonical form: everything except wall-clock time, which would
        # break byte-identical reproducibility of report files.
        return {
            "claim_id": self.claim_id,
            "instances_checked": self.instances_checked,
            "failures": self.failures,
            "witnesses": self.witnesses,
            "details": self.details,
        }


def dumps_canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reports_to_jsonl(reports: list[Report]) -> str:
    lines = [dumps_canonical({"schema": SCHEMA_VERSION})]
    lines.extend(dumps_canonical(r.to_record()) for r in reports)
    return "\n".join(lines) + "\n"


def write_reports_jsonl(reports: list[Report], dest: IO[str] | str | Path) -> None:
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(reports_to_jsonl(reports))
    else:
        dest.write(reports_to_jsonl(reports))


def scan_totally_positive(ctx: RingContext, trace_bound: int) -> Iterator[QuadInt]:
    """Every totally positive element with trace <= trace_bound, exactly once,
    in (trace, a, b) lexicographic order.

    For fixed trace t = 2a, total positivity is |b| < a/sqrt(D), i.e.
    D*(2b)^2 < t^2, resolved in integers.
    """
    for t in range(1, trace_bound + 1):
        if ctx.kappa == 1:
            # v runs over integers of t's parity with D*v^2 < t^2.
            v_max = isqrt((t * t - 1) // ctx.D)
            start = -v_max if (v_max - t) % 2 == 0 else -v_max + 1
            for v in range(start, v_max + 1, 2):
                yield ctx.element((t - v) // 2, v)
        else:
            if t % 2:
                continue
            u = t // 2
            v_max = isqrt((u * u - 1) // ctx.D)
            for v in range(-v_max, v_max + 1):
                yield ctx.element(u, v)


# -- claims read lengths from a sweep ----------------------------------------


def _covering_sweep(
    ctx: RingContext, trace_bound: int, node_budget: int, sweep: Sweep | None
) -> Sweep:
    """`sweep` after checking that it covers the box, or a new sweep of it."""
    if sweep is None:
        return Sweep(ctx, trace_bound, node_budget=node_budget)
    if sweep.ctx.D != ctx.D or sweep.trace_bound < trace_bound:
        raise ValueError(
            f"a sweep of D={sweep.ctx.D} up to trace {sweep.trace_bound} does "
            f"not cover D={ctx.D} up to trace {trace_bound}"
        )
    return sweep


def _timed_report(
    claim_id: str,
    build: Callable[[], tuple[int, list[dict], list[str], dict]],
) -> Report:
    start = time.perf_counter()
    instances, failures, witnesses, details = build()
    return Report(
        claim_id, instances, failures, witnesses, details, time.perf_counter() - start
    )


# -- individual claims --------------------------------------------------------


def verify_doubling(
    ctx: RingContext,
    trace_bound: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    sweep: Sweep | None = None,
) -> Report:
    """Doubled totally positive elements: all sums of squares for D in
    {2, 3, 5}, read from a sweep up to 2*trace_bound; for other D the
    doubled witness is refuted by exhaustion."""

    def build() -> tuple[int, list[dict], list[str], dict]:
        if ctx.D in (2, 3, 5):
            lengths = _covering_sweep(ctx, 2 * trace_bound, node_budget, sweep)
            elements = list(scan_totally_positive(ctx, trace_bound))
            failures = [
                {"element": str(alpha), "expected": "2*alpha sum of squares", "got": "refuted"}
                for alpha in elements
                if not lengths.is_sum_of_squares(2 * alpha)
            ]
            return len(elements), failures, [], {"branch": "all_doubles_representable"}
        witness = 2 * doubling_witness(ctx)
        verdict = decompose_sos(witness, node_budget=node_budget)
        if verdict.kind is VerdictKind.EXHAUSTED_NONE:
            return 1, [], [str(witness)], {"branch": "witness_refuted", "nodes": verdict.nodes}
        failures = [
            {
                "element": str(witness),
                "expected": "exhausted_none",
                "got": verdict.kind.value,
            }
        ]
        return 1, failures, [], {"branch": "witness_refuted"}

    return _timed_report(f"doubling/D={ctx.D}", build)


def verify_scharlau(
    ctx: RingContext,
    trace_bound: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    sweep: Sweep | None = None,
) -> Report:
    """For D in {2, 3}: totally positive and square mod 2*O implies sum of
    squares (the everywhere-local test is exact in these two rings)."""
    if ctx.D not in (2, 3):
        raise WrongField(f"claim is specific to D in {{2, 3}}, got D={ctx.D}")

    def build() -> tuple[int, list[dict], list[str], dict]:
        lengths = _covering_sweep(ctx, trace_bound, node_budget, sweep)
        elements = list(scan_totally_positive(ctx, trace_bound))
        squares = [alpha for alpha in elements if is_square_mod_two(alpha)]
        failures = [
            {"element": str(alpha), "expected": "sum of squares", "got": "refuted"}
            for alpha in squares
            if not lengths.is_sum_of_squares(alpha)
        ]
        return len(squares), failures, [], {"scanned": len(elements)}

    return _timed_report(f"scharlau/D={ctx.D}", build)


def verify_maass_three_squares(
    trace_bound: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    sweep: Sweep | None = None,
) -> Report:
    """For D = 5: every totally positive element is a sum of three squares."""
    ctx = RingContext(5)

    def build() -> tuple[int, list[dict], list[str], dict]:
        shortest = _covering_sweep(ctx, trace_bound, node_budget, sweep)
        rows = [
            (alpha, shortest.length(alpha))
            for alpha in scan_totally_positive(ctx, trace_bound)
        ]
        failures = [
            {
                "element": str(alpha),
                "expected": "length <= 3",
                "got": "not a sum of squares" if n is None else f"length {n}",
            }
            for alpha, n in rows
            if n is None or n > 3
        ]
        lengths = [n for _, n in rows if n is not None]
        return len(rows), failures, [], {"max_length": max(lengths, default=0)}

    return _timed_report("maass/D=5", build)


def verify_pythagoras(
    ctx: RingContext,
    trace_bound: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    sweep: Sweep | None = None,
) -> Report:
    """Shortest representations never need more than five squares; for
    D in {2, 3, 5} never more than three, and three really occurs."""

    def build() -> tuple[int, list[dict], list[str], dict]:
        cap = 3 if ctx.D in (2, 3, 5) else 5
        shortest = _covering_sweep(ctx, trace_bound, node_budget, sweep)
        rows = [
            (alpha, shortest.length(alpha))
            for alpha in scan_totally_positive(ctx, trace_bound)
        ]
        lengths = [n for _, n in rows if n is not None]
        failures = [
            {
                "element": str(alpha),
                "expected": f"length <= {cap}",
                "got": f"length {n}",
            }
            for alpha, n in rows
            if n is not None and n > cap
        ]
        details = {
            "cap": cap,
            "max_length": max(lengths, default=0),
            "sums_of_squares": len(lengths),
        }
        if cap == 3 and trace_bound >= LENGTH3_ATTAINED_TRACE:
            details["length3_attained"] = 3 in lengths
            if not details["length3_attained"]:
                failures.append(
                    {
                        "element": f"scan(trace<={trace_bound})",
                        "expected": "some element of length exactly 3",
                        "got": f"max length {max(lengths, default=0)}",
                    }
                )
        return len(rows), failures, [], details

    return _timed_report(f"pythagoras/D={ctx.D}", build)


def verify_peters_equivalence(
    ctx: RingContext,
    trace_bound: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    sweep: Sweep | None = None,
) -> Report:
    """Interval test vs. the sweep on every scanned totally positive element.

    A hit that the sweep refutes breaks the criterion's stated
    (sufficiency) direction and is a failure.  A sum of squares the interval
    test misses is only a failure where the criterion is an equivalence
    (D = 1 mod 4); for D = 2, 3 (mod 4) it would be a new phenomenon, so it
    is recorded under details["findings"] instead.
    """

    def build() -> tuple[int, list[dict], list[str], dict]:
        lengths = _covering_sweep(ctx, trace_bound, node_budget, sweep)
        elements = list(scan_totally_positive(ctx, trace_bound))
        failures = []
        findings = []
        for alpha in elements:
            peters = peters_five_squares(alpha)
            sos = lengths.is_sum_of_squares(alpha)
            if peters and not sos:
                failures.append(
                    {
                        "element": str(alpha),
                        "expected": "sum of five squares (interval hit)",
                        "got": "refuted by exhaustion",
                    }
                )
            elif sos and not peters:
                record = {
                    "element": str(alpha),
                    "expected": "interval hit (element is a sum of squares)",
                    "got": "empty interval",
                }
                if ctx.kappa == 1:
                    failures.append(record)
                else:
                    findings.append(record)
        return len(elements), failures, [], {"findings": findings}

    return _timed_report(f"peters-oracle/D={ctx.D}", build)


def verify_multiplier_thresholds(
    ctx: RingContext,
    m_range: tuple[int, int],
    trace_bound: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    sweep: Sweep | None = None,
) -> Report:
    """Multiplier thresholds, for each m in m_range.

    Small m (16m^2 < kappa^2*D): the m-fold doubling witness is refuted by
    exhaustion.  Large m (2m >= D): the interval test accepts kappa*m*beta
    for every scanned beta, confirmed by a sweep up to trace_bound whenever
    the scaled trace still fits under it.  Odd m with 2 ramified:
    the odd multiple witness is never a square mod 2*O -- already a proof
    of non-representability by local necessity -- and, whenever its trace
    is at most trace_bound, the sweep refutes it independently (the sweep
    has no parity rule; the search oracle settles odd coefficients by
    parity, so it would not be independent).  Which witnesses are refuted
    therefore follows trace_bound.
    """

    def build() -> tuple[int, list[dict], list[str], dict]:
        instances = 0
        failures: list[dict] = []
        witnesses: list[str] = []
        details: dict = {"m_range": list(m_range), "cases": []}
        betas = list(scan_totally_positive(ctx, trace_bound))
        lengths = None
        for m in range(m_range[0], m_range[1] + 1):
            case: dict = {"m": m}
            if small_multiplier_obstructed(ctx, m):
                target = m * doubling_witness(ctx)
                verdict = decompose_sos(target, node_budget=node_budget)
                instances += 1
                case["small_multiplier_refuted"] = (
                    verdict.kind is VerdictKind.EXHAUSTED_NONE
                )
                if verdict.kind is VerdictKind.EXHAUSTED_NONE:
                    witnesses.append(str(target))
                else:
                    failures.append(
                        {
                            "element": str(target),
                            "expected": "exhausted_none",
                            "got": verdict.kind.value,
                        }
                    )
            if large_multiplier_guaranteed(ctx, m):
                if lengths is None:
                    lengths = _covering_sweep(ctx, trace_bound, node_budget, sweep)
                scale = ctx.kappa * m
                confirmed = 0
                for beta in betas:
                    target = scale * beta
                    instances += 1
                    if not peters_five_squares(target):
                        failures.append(
                            {
                                "element": str(target),
                                "expected": "interval hit",
                                "got": "empty interval",
                            }
                        )
                    if target.trace <= trace_bound:
                        confirmed += 1
                        if not lengths.is_sum_of_squares(target):
                            failures.append(
                                {
                                    "element": str(target),
                                    "expected": "sum of squares",
                                    "got": "refuted by exhaustion",
                                }
                            )
                case["large_multiplier_checked"] = len(betas)
                case["oracle_confirmed"] = confirmed
            if m % 2 == 1 and ctx.dyadic is DyadicClass.RAMIFIED:
                target = odd_multiple_witness(ctx, m)
                instances += 1
                if is_square_mod_two(target):
                    failures.append(
                        {
                            "element": str(target),
                            "expected": "not a square mod 2*O",
                            "got": "square class",
                        }
                    )
                if target.trace <= trace_bound:
                    if lengths is None:
                        lengths = _covering_sweep(ctx, trace_bound, node_budget, sweep)
                    refuted = not lengths.is_sum_of_squares(target)
                    case["odd_multiple_refuted"] = refuted
                    if refuted:
                        witnesses.append(str(target))
                    else:
                        failures.append(
                            {
                                "element": str(target),
                                "expected": "refuted by exhaustion",
                                "got": "sum of squares",
                            }
                        )
            details["cases"].append(case)
        details["pythagoras_cap"] = PYTHAGORAS_CAP
        return instances, failures, witnesses, details

    lo, hi = m_range
    return _timed_report(f"thresholds/D={ctx.D}/m={lo}..{hi}", build)


def estimate_stable_multiplier(
    ctx: RingContext,
    m_max: int,
    trace_bound: int,
) -> Report:
    """Smallest m* such that the interval test accepts 2*m*beta for every
    scanned totally positive beta and every m in [m*, m_max].

    An empirical estimate of the stabilization threshold: some such m
    exists (any m >= D/2 qualifies), and the report records the largest
    multiplier below m* that still fails, with a failing element.
    """
    def build() -> tuple[int, list[dict], list[str], dict]:
        betas = list(scan_totally_positive(ctx, trace_bound))
        first_bad: dict[int, str] = {}
        instances = 0
        for m in range(1, m_max + 1):
            for beta in betas:
                instances += 1
                if not peters_five_squares(2 * m * beta):
                    first_bad[m] = str(beta)
                    break
        m_star = None
        for m in range(m_max, 0, -1):
            if m in first_bad:
                break
            m_star = m
        largest_failing = max(first_bad, default=None)
        details = {
            "m_max": m_max,
            "m_star": m_star,
            "largest_failing_m": largest_failing,
            "failing_example": (
                {"m": largest_failing, "beta": first_bad[largest_failing]}
                if largest_failing is not None
                else None
            ),
        }
        return instances, [], [], details

    return _timed_report(f"stable-multiplier/D={ctx.D}/m_max={m_max}", build)


def verify_local_necessity(
    ctx: RingContext,
    trace_bound: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    sweep: Sweep | None = None,
) -> Report:
    """Every scanned sum of squares is a square mod 2*O (the local test is
    necessary; its failure is a genuine obstruction)."""

    def build() -> tuple[int, list[dict], list[str], dict]:
        lengths = _covering_sweep(ctx, trace_bound, node_budget, sweep)
        elements = list(scan_totally_positive(ctx, trace_bound))
        sums = [alpha for alpha in elements if lengths.is_sum_of_squares(alpha)]
        failures = [
            {
                "element": str(alpha),
                "expected": "square mod 2*O",
                "got": "non-square class",
            }
            for alpha in sums
            if not is_square_mod_two(alpha)
        ]
        return len(elements), failures, [], {"sums_of_squares": len(sums)}

    return _timed_report(f"local-necessity/D={ctx.D}", build)


# -- claim registry ------------------------------------------------------------

CLAIM_ALIASES = {
    "thm3": "doubling",
    "thm4": "thresholds",
    "lemma1": "local-necessity",
    "m0": "stable-multiplier",
    "peters": "peters-oracle",
}


def _every_d(d: int) -> bool:
    return True


def _trace_box(ctx: RingContext, spec: ScanSpec) -> int:
    return spec.trace_bound


def _thresholds_m_range(spec: ScanSpec, d: int) -> tuple[int, int]:
    return spec.m_range or (1, max(4, -(-d // 2)))


def _thresholds_box(ctx: RingContext, spec: ScanSpec) -> int:
    # The sweep confirms the large multipliers and refutes the odd
    # multiple witnesses of trace <= trace_bound.
    lo, hi = _thresholds_m_range(spec, ctx.D)
    witness_fits = (
        ctx.dyadic is DyadicClass.RAMIFIED
        and (lo | 1) <= hi
        and (lo | 1) * doubling_witness(ctx).trace <= spec.trace_bound
    )
    if large_multiplier_guaranteed(ctx, hi) or witness_fits:
        return spec.trace_bound
    return 0


class _Claim(NamedTuple):
    """How run_claims runs one claim on one ring."""

    applies: Callable[[int], bool]
    # Trace bound of the sweep the claim reads on this ring; 0 reads none.
    box: Callable[[RingContext, ScanSpec], int]
    run: Callable[[RingContext, ScanSpec, Sweep | None], Report]


# In report order: run_claims walks claims outer, D inner, and the JSONL
# output keeps that order.  The runners look the verify_* functions up by
# name when called, so wrappers put on this module's attributes (as
# perfbench's tracer does) see every call.
_CLAIMS: dict[str, _Claim] = {
    "doubling": _Claim(
        _every_d,
        lambda ctx, spec: 2 * spec.trace_bound if ctx.D in (2, 3, 5) else 0,
        lambda ctx, spec, sweep: verify_doubling(
            ctx, spec.trace_bound, node_budget=spec.node_budget, sweep=sweep
        ),
    ),
    "scharlau": _Claim(
        lambda d: d in (2, 3),
        _trace_box,
        lambda ctx, spec, sweep: verify_scharlau(
            ctx, spec.trace_bound, node_budget=spec.node_budget, sweep=sweep
        ),
    ),
    "maass": _Claim(
        lambda d: d == 5,
        _trace_box,
        lambda ctx, spec, sweep: verify_maass_three_squares(
            spec.trace_bound, node_budget=spec.node_budget, sweep=sweep
        ),
    ),
    "pythagoras": _Claim(
        _every_d,
        _trace_box,
        lambda ctx, spec, sweep: verify_pythagoras(
            ctx, spec.trace_bound, node_budget=spec.node_budget, sweep=sweep
        ),
    ),
    "peters-oracle": _Claim(
        _every_d,
        _trace_box,
        lambda ctx, spec, sweep: verify_peters_equivalence(
            ctx, spec.trace_bound, node_budget=spec.node_budget, sweep=sweep
        ),
    ),
    "thresholds": _Claim(
        _every_d,
        _thresholds_box,
        lambda ctx, spec, sweep: verify_multiplier_thresholds(
            ctx,
            _thresholds_m_range(spec, ctx.D),
            spec.trace_bound,
            node_budget=spec.node_budget,
            sweep=sweep,
        ),
    ),
    "stable-multiplier": _Claim(
        _every_d,
        lambda ctx, spec: 0,
        lambda ctx, spec, sweep: estimate_stable_multiplier(
            ctx,
            spec.m_range[1] if spec.m_range else -(-ctx.D // 2) + 1,
            spec.trace_bound,
        ),
    ),
    "local-necessity": _Claim(
        _every_d,
        _trace_box,
        lambda ctx, spec, sweep: verify_local_necessity(
            ctx, spec.trace_bound, node_budget=spec.node_budget, sweep=sweep
        ),
    ),
}

CLAIM_NAMES = tuple(_CLAIMS)


def run_claims(spec: ScanSpec, claims: list[str]) -> list[Report]:
    """Run named claims over every applicable D in the spec, in order.

    Each ring gets at most one sweep per call, as large as the largest box
    any requested claim reads on it, built when a claim first needs it.
    """
    names = [CLAIM_ALIASES.get(name, name) for name in claims]
    for name, claim in zip(claims, names):
        if claim not in _CLAIMS:
            raise ValueError(f"unknown claim {name!r}")
    contexts = {d: RingContext(d) for d in spec.d_list}
    boxes = {
        d: max(
            (_CLAIMS[c].box(ctx, spec) for c in names if _CLAIMS[c].applies(d)),
            default=0,
        )
        for d, ctx in contexts.items()
    }
    sweeps: dict[int, Sweep] = {}
    reports: list[Report] = []
    for claim in names:
        entry = _CLAIMS[claim]
        for d in spec.d_list:
            if not entry.applies(d):
                continue
            ctx = contexts[d]
            sweep = None
            if entry.box(ctx, spec):
                if d not in sweeps:
                    sweeps[d] = Sweep(ctx, boxes[d], node_budget=spec.node_budget)
                sweep = sweeps[d]
            reports.append(entry.run(ctx, spec, sweep))
    return reports
