"""Scan harness: finite verifications of the package's headline claims.

Each claim checks the totally positive elements of trace at most the
bound, in (trace, a, b) order, and returns a Report: instances checked,
failures (element, expected, got), standalone-checkable witnesses, and
claim-specific scalars.  Every claim is a function
`verify_*(ctx, spec, elements, lengths)` of the ring, the `ScanSpec`, the
ring's elements and what the claim reads lengths from.  The five claims
that ask only about the scanned elements (`scharlau`, `maass`,
`pythagoras`, `peters-oracle`, `local-necessity`) read a list of their
shortest lengths, in scan order, None where an element is no sum of
squares; `doubling` and `thresholds`, whose targets lie off the scan,
read the ring's `Sweep`.  `run_claims` is the one entry point: it walks
ring by ring, scans each ring at most once, builds at most one sweep and
reads each scanned element's length from it at most once, each charged to
the node budget first (the lengths ride on the scan's charge), shared by
every claim that reads it and dropped before the next ring's; it times
each claim alone and returns the reports claims outer, D inner.  The
doubling and small-multiplier witnesses are refuted by the search oracle.
Both interval claims work per row of one trace: along a row the test's
center is fixed, and its radicand falls as |B| grows.  `peters-oracle`
states the test once per row as a bound on D*B^2 (`criteria._row_bound`)
and compares one integer per element.  `stable-multiplier` lists no
element: it walks the box's rows (`quadfield._box_rows`) and hands
`criteria.multiple_misses` one beta per row, the row's first in scan
order, whose norm is the row's least, so it misses exactly when some
element of its row misses.  `multiple_misses` decides the interval test
of each multiple 2m*beta in integers: it reads each beta's trace and norm
once and walks m = 1, 2, ..., m_max up to the first 2m*beta whose
radicand reaches D^2 (the bound `peters_guaranteed` states), past which
every multiple hits; the admissible range is computed only below it, and
the multiplier table stops where every beta reaches it, at ceil(D/4) - 1
entries when D = 1 (mod 4) and ceil(D/2) - 1 otherwise
(`criteria.tabled_multipliers`), so its work and memory do not grow with
m_max.  For a large m, `thresholds` tests no interval at all:
kappa*m's own radicand reaches D^2 (`large_multiplier_guaranteed`), so
every kappa*m*beta hits by the same bound, and the harness relies on that
proof instead of checking it; the sweep still confirms each multiple it
reaches.  Both charge one budget unit per multiple they can test first:
`thresholds` each multiple of its range, `stable-multiplier` each beta
times each tabled multiplier.  Reports serialize to canonical JSONL (a
schema header, sorted keys, no timestamps), so a rerun with the same
parameters is byte-identical.

Failures are the load-bearing part: an empty failure list from an honest
oracle is the whole point of the harness.  Mismatches in directions that
no theorem promises (e.g. the converse of the interval test for
D = 2, 3 mod 4) are reported under `details` as findings, not failures.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from operator import attrgetter
from typing import Literal, NamedTuple

from ._record import Record
from .criteria import (
    _row_bound,
    doubling_witness,
    large_multiplier_guaranteed,
    multiple_misses,
    odd_multiple_witness,
    small_multiplier_obstructed,
    tabled_multipliers,
)
from .decompose import DEFAULT_NODE_BUDGET, VerdictKind, decompose_sos
from .errors import WrongField, charge
from .quadfield import (
    QuadInt,
    RingContext,
    _box_rows,
    _from_pair,
    charge_scan,
    charge_square_factor,
    cube_root,
    scan_totally_positive,
)
from .residues import is_square_mod_two
from .sintegers import PYTHAGORAS_CAP
from .sweep import Sweep

SCHEMA_VERSION = 1

# Smallest trace at which a length-3 element exists for D in {2, 3, 5}
# (6+2*sqrt(2), 6+2*sqrt(3), and 3+w for D=5, the latter at trace 7); the
# "length 3 is attained" check only applies at or beyond this bound.
LENGTH3_ATTAINED_TRACE = 12


class ScanSpec(Record):
    """Validated parameters for a batch of verifications.

    `workers` has no effect: the claims read one sweep per ring in this
    process.  It is still accepted, and must be at least 1, so that
    existing callers keep working.  `contexts` holds the RingContext of
    each D, built here, after each D's squarefree test and then their sum
    are charged to the node budget; `run_claims` reads them, so each D is
    tested once.  An entry of `d_list` may already be a RingContext (as
    `cli`'s D ranges are), which is kept instead of tested again; the
    charges are the same, and `d_list` holds its D.
    """

    __slots__ = ("d_list", "trace_bound", "m_range", "node_budget", "workers", "contexts")
    d_list: tuple[int, ...]
    trace_bound: int
    m_range: tuple[int, int] | None
    node_budget: int
    workers: int
    contexts: tuple[RingContext, ...]

    def __init__(
        self,
        d_list: tuple[int | RingContext, ...],
        trace_bound: int,
        m_range: tuple[int, int] | None = None,
        node_budget: int = DEFAULT_NODE_BUDGET,
        workers: int = 1,
    ) -> None:
        if trace_bound < 2:
            raise ValueError("trace bound below 2 scans nothing")
        if m_range is not None and not 1 <= m_range[0] <= m_range[1]:
            raise ValueError(f"bad multiplier range {m_range}")
        if node_budget < 1:
            raise ValueError("node budget must be positive")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if not d_list:
            raise ValueError("no squarefree D to scan: the D list is empty")
        ds = tuple(d.D if isinstance(d, RingContext) else d for d in d_list)
        for d in ds:
            charge_square_factor(d, node_budget)
        listed = ",".join(map(str, ds))
        tests = sum(cube_root(max(d, 0)) for d in ds)
        charge(tests, node_budget, f"the squarefree tests of the D list {listed}")
        # Each raises unless its D is squarefree and >= 2.
        contexts = tuple(d if isinstance(d, RingContext) else RingContext(d) for d in d_list)
        if m_range is not None:
            m_range = tuple(m_range)
        super().__init__(ds, trace_bound, m_range, node_budget, workers, contexts)

    def __repr__(self) -> str:
        # The parameters alone: the contexts follow from d_list.
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"ScanSpec({shown})"


class Report:
    """Outcome of one verification claim over one scan."""

    __slots__ = ("claim_id", "instances_checked", "failures", "witnesses", "details", "elapsed")

    def __init__(
        self,
        claim_id: str,
        instances_checked: int,
        failures: list[dict],
        witnesses: list[str],
        details: dict,
    ) -> None:
        self.claim_id = claim_id
        self.instances_checked = instances_checked
        self.failures = failures
        self.witnesses = witnesses
        self.details = details
        # Wall-clock seconds of the claim alone, set by run_claims.
        self.elapsed = 0.0

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


# -- individual claims --------------------------------------------------------


def _failure(element: object, expected: str, got: str) -> dict:
    return {"element": str(element), "expected": expected, "got": got}


def _refute_by_search(
    target: QuadInt, spec: ScanSpec, witnesses: list[str], failures: list[dict]
) -> int | None:
    """The node count of an exhaustive refutation of target, which joins
    the witnesses; None, with a failure recorded, if the search did not
    exhaust."""
    verdict = decompose_sos(target, node_budget=spec.node_budget)
    if verdict.kind is VerdictKind.EXHAUSTED_NONE:
        witnesses.append(str(target))
        return verdict.nodes
    failures.append(_failure(target, "exhausted_none", verdict.kind.value))
    return None


def verify_doubling(
    ctx: RingContext, spec: ScanSpec, elements: list[QuadInt] | None, lengths: Sweep | None
) -> Report:
    """Doubled totally positive elements: all sums of squares for D in
    {2, 3, 5}, read from a sweep up to 2*trace_bound (run_claims passes one,
    and the elements, exactly there); for other D the doubled witness is
    refuted by exhaustion."""
    claim_id = f"doubling/D={ctx.D}"
    failures: list[dict] = []
    if lengths is not None and elements is not None:
        failures += [
            _failure(alpha, "2*alpha sum of squares", "refuted")
            for alpha in elements
            if not lengths.is_sum_of_squares(2 * alpha)
        ]
        branch = {"branch": "all_doubles_representable"}
        return Report(claim_id, len(elements), failures, [], branch)
    witnesses: list[str] = []
    details: dict[str, object] = {"branch": "witness_refuted"}
    nodes = _refute_by_search(2 * doubling_witness(ctx), spec, witnesses, failures)
    if nodes is not None:
        details["nodes"] = nodes
    return Report(claim_id, 1, failures, witnesses, details)


def verify_scharlau(
    ctx: RingContext, spec: ScanSpec, elements: list[QuadInt], lengths: list[int | None]
) -> Report:
    """For D in {2, 3}: totally positive and square mod 2*O implies sum of
    squares (the everywhere-local test is exact in these two rings)."""
    if ctx.D not in (2, 3):
        raise WrongField(f"claim is specific to D in {{2, 3}}, got D={ctx.D}")
    rows = [
        (alpha, n) for alpha, n in zip(elements, lengths, strict=True) if is_square_mod_two(alpha)
    ]
    failures = [_failure(alpha, "sum of squares", "refuted") for alpha, n in rows if n is None]
    return Report(f"scharlau/D={ctx.D}", len(rows), failures, [], {"scanned": len(elements)})


def verify_maass_three_squares(
    ctx: RingContext, spec: ScanSpec, elements: list[QuadInt], lengths: list[int | None]
) -> Report:
    """For D = 5: every totally positive element is a sum of three squares."""
    if ctx.D != 5:
        raise WrongField(f"claim is specific to D = 5, got D={ctx.D}")
    failures = [
        _failure(alpha, "length <= 3", "not a sum of squares" if n is None else f"length {n}")
        for alpha, n in zip(elements, lengths, strict=True)
        if n is None or n > 3
    ]
    found = [n for n in lengths if n is not None]
    return Report("maass/D=5", len(elements), failures, [], {"max_length": max(found, default=0)})


def verify_pythagoras(
    ctx: RingContext, spec: ScanSpec, elements: list[QuadInt], lengths: list[int | None]
) -> Report:
    """Shortest representations never need more than five squares; for
    D in {2, 3, 5} never more than three, and three really occurs."""
    cap = 3 if ctx.D in (2, 3, 5) else PYTHAGORAS_CAP
    found = [n for n in lengths if n is not None]
    failures = [
        _failure(alpha, f"length <= {cap}", f"length {n}")
        for alpha, n in zip(elements, lengths, strict=True)
        if n is not None and n > cap
    ]
    details = {"cap": cap, "max_length": max(found, default=0), "sums_of_squares": len(found)}
    if cap == 3 and spec.trace_bound >= LENGTH3_ATTAINED_TRACE:
        details["length3_attained"] = 3 in found
        if not details["length3_attained"]:
            failures.append(
                _failure(
                    f"scan(trace<={spec.trace_bound})",
                    "some element of length exactly 3",
                    f"max length {max(found, default=0)}",
                )
            )
    return Report(f"pythagoras/D={ctx.D}", len(elements), failures, [], details)


def verify_peters_equivalence(
    ctx: RingContext, spec: ScanSpec, elements: list[QuadInt], lengths: list[int | None]
) -> Report:
    """Interval test vs. the sweep on every scanned totally positive element.

    The elements come row by row, one row per trace A, so the test is
    stated once per row as a bound on D*B^2 (`criteria._row_bound`, the
    bound `peters_five_squares` reads) and decided per element by one
    integer compare, with the square class where 2 ramifies.

    A hit that the sweep refutes breaks the criterion's stated
    (sufficiency) direction and is a failure.  A sum of squares the interval
    test misses is only a failure where the criterion is an equivalence
    (D = 1 mod 4); for D = 2, 3 (mod 4) it would be a new phenomenon, so it
    is recorded under details["findings"] instead.
    """
    failures = []
    findings = []
    row = bound = None
    for alpha, n in zip(elements, lengths, strict=True):
        big_a, big_b = alpha.half_coords
        if big_a != row:
            row, bound = big_a, _row_bound(ctx, big_a)
        peters = ctx.D * big_b * big_b <= bound and is_square_mod_two(alpha)
        sos = n is not None
        if peters and not sos:
            failures.append(
                _failure(alpha, "sum of five squares (interval hit)", "refuted by exhaustion")
            )
        elif sos and not peters:
            record = _failure(
                alpha, "interval hit (element is a sum of squares)", "empty interval"
            )
            (failures if ctx.kappa == 1 else findings).append(record)
    return Report(f"peters-oracle/D={ctx.D}", len(elements), failures, [], {"findings": findings})


def verify_multiplier_thresholds(
    ctx: RingContext, spec: ScanSpec, betas: list[QuadInt], lengths: Sweep
) -> Report:
    """Multiplier thresholds, for each m in the spec's m_range (by default
    1 up to max(4, ceil(D/2))).

    Small m (16m^2 < kappa^2*D): the m-fold doubling witness is refuted by
    exhaustion.  Large m (2m >= D): the interval test accepts kappa*m*beta
    for every scanned beta by the radicand bound alone -- N(beta) >= 1, so
    the radicand is at least kappa*m's, which reaches D^2
    (`large_multiplier_guaranteed`, proved at `criteria._radicand_hits`)
    -- so no beta's interval is tested; the sweep confirms kappa*m*beta
    whenever the scaled trace still fits under trace_bound.  Odd m with 2
    ramified: the odd multiple witness is never a square mod 2*O --
    already a proof of non-representability by local necessity -- and,
    whenever its trace is at most trace_bound, the sweep refutes it
    independently (the sweep has no parity rule; the search oracle settles
    odd coefficients by parity, so it would not be independent).  Which
    witnesses are refuted therefore follows trace_bound.
    """
    lo, hi = spec.m_range or (1, max(4, -(-ctx.D // 2)))
    claim_id = f"thresholds/D={ctx.D}/m={lo}..{hi}"
    charge((hi - lo + 1) * len(betas), spec.node_budget, f"the multiples of {claim_id}")
    instances = 0
    failures: list[dict] = []
    witnesses: list[str] = []
    cases: list[dict] = []
    for m in range(lo, hi + 1):
        case: dict = {"m": m}
        if small_multiplier_obstructed(ctx, m):
            instances += 1
            nodes = _refute_by_search(m * doubling_witness(ctx), spec, witnesses, failures)
            case["small_multiplier_refuted"] = nodes is not None
        if large_multiplier_guaranteed(ctx, m):
            scale = ctx.kappa * m
            # In trace order, the betas the sweep confirms are a prefix.
            fits = bisect_right(betas, spec.trace_bound // scale, key=attrgetter("trace"))
            for beta in betas[:fits]:
                target = scale * beta
                if not lengths.is_sum_of_squares(target):
                    failures.append(_failure(target, "sum of squares", "refuted by exhaustion"))
            instances += len(betas)
            case["large_multiplier_checked"] = len(betas)
            case["oracle_confirmed"] = fits
        if m % 2 == 1 and ctx.kappa == 2:
            target = odd_multiple_witness(ctx, m)
            instances += 1
            if is_square_mod_two(target):
                failures.append(_failure(target, "not a square mod 2*O", "square class"))
            if target.trace <= spec.trace_bound:
                refuted = not lengths.is_sum_of_squares(target)
                case["odd_multiple_refuted"] = refuted
                if refuted:
                    witnesses.append(str(target))
                else:
                    failures.append(_failure(target, "refuted by exhaustion", "sum of squares"))
        cases.append(case)
    details = {"m_range": [lo, hi], "cases": cases, "pythagoras_cap": PYTHAGORAS_CAP}
    return Report(claim_id, instances, failures, witnesses, details)


def estimate_stable_multiplier(
    ctx: RingContext, spec: ScanSpec, betas: None, lengths: None
) -> Report:
    """Smallest m* such that the interval test accepts 2*m*beta for every
    scanned totally positive beta and every m in [m*, m_max], where m_max
    is the top of the spec's m_range (by default ceil(D/2) + 1); the scan
    always starts at m = 1, whatever the range's lower end.

    An empirical estimate of the stabilization threshold, bounded by the
    box: a beta beyond the trace bound may still fail for some m >= m*
    (for D = 31 the estimate is 4 at trace 40, yet 10*beta and 12*beta are
    no sums of squares for beta = 39 - 7*sqrt31, of trace 78).  Some such
    m exists (any m >= D/2 qualifies), and the report records the largest
    multiplier below m* that still fails, with a failing element: the
    first scanned beta at which it misses.  `instances_checked` counts, for
    each m, the betas up to and including that first miss.

    The claim walks the box by rows of one trace (`quadfield._box_rows`)
    and lists no element.  Along a row the test of 2m*beta has a fixed
    center and a radicand that grows with N(beta), so it cannot get worse
    as the norm grows, and the least norm is at the row's ends.  So the
    row's first element in scan order misses exactly when some element of
    the row misses, and it is then the row's first miss: `multiple_misses`
    is handed that one beta per row, and its row indexes map back to scan
    indexes.  The pass is charged first, one unit per scanned beta and
    tabled multiplier (`criteria.tabled_multipliers`), so an m_max past
    the table costs no more than one at its end; the rows walked to count
    the betas are those of the scan that `run_claims` charged before.
    """
    m_max = spec.m_range[1] if spec.m_range else -(-ctx.D // 2) + 1
    claim_id = f"stable-multiplier/D={ctx.D}/m_max={m_max}"
    # The scan index and the element of each nonempty row's first beta.
    starts: list[int] = []
    firsts: list[QuadInt] = []
    n = 0
    for big_a, row in _box_rows(ctx, spec.trace_bound):
        if row:
            starts.append(n)
            firsts.append(_from_pair(ctx, big_a, row[0]))
            n += len(row)
    charge(tabled_multipliers(ctx, m_max) * n, spec.node_budget, f"the multiples of {claim_id}")
    first_bad: dict[int, int] = {}
    for i, m in multiple_misses(ctx, firsts, m_max):
        first_bad.setdefault(m, i)
    instances = m_max * n - sum(n - starts[i] - 1 for i in first_bad.values())
    largest_failing = max(first_bad, default=None)
    m_star = None if largest_failing == m_max else (largest_failing or 0) + 1
    details = {
        "m_max": m_max,
        "m_star": m_star,
        "largest_failing_m": largest_failing,
        "failing_example": (
            {"m": largest_failing, "beta": str(firsts[first_bad[largest_failing]])}
            if largest_failing is not None
            else None
        ),
    }
    return Report(claim_id, instances, [], [], details)


def verify_local_necessity(
    ctx: RingContext, spec: ScanSpec, elements: list[QuadInt], lengths: list[int | None]
) -> Report:
    """Every scanned sum of squares is a square mod 2*O (the local test is
    necessary; its failure is a genuine obstruction)."""
    sums = [alpha for alpha, n in zip(elements, lengths, strict=True) if n is not None]
    failures = [
        _failure(alpha, "square mod 2*O", "non-square class")
        for alpha in sums
        if not is_square_mod_two(alpha)
    ]
    return Report(
        f"local-necessity/D={ctx.D}", len(elements), failures, [], {"sums_of_squares": len(sums)}
    )


# -- claim registry ------------------------------------------------------------

CLAIM_ALIASES = {
    "thm3": "doubling",
    "thm4": "thresholds",
    "lemma1": "local-necessity",
    "m0": "stable-multiplier",
    "peters": "peters-oracle",
}


class _Claim(NamedTuple):
    # Name of the claim's function in this module, looked up when called,
    # so that wrappers put on the module's attributes (as perfbench's
    # tracer does) see every call.
    function: str
    # The D the claim applies to, and the D on which it reads the ring's
    # scanned elements and its fourth argument; None is every D.
    rings: tuple[int, ...] | None
    reads: tuple[int, ...] | None
    # The fourth argument: "lengths", the shortest length of each scanned
    # element in scan order, or "sweep", the ring's Sweep, for claims whose
    # targets lie off the scan; both come with the scanned elements.
    # "rows" passes neither, nor the elements: the claim walks the box's
    # rows itself, and the scan is charged but not listed for it.
    fourth: Literal["sweep", "lengths", "rows"]


# In report order: run_claims walks D outer, but its reports, and so the
# JSONL output, keep the order claims outer, D inner.
_CLAIMS: dict[str, _Claim] = {
    "doubling": _Claim("verify_doubling", None, (2, 3, 5), "sweep"),
    "scharlau": _Claim("verify_scharlau", (2, 3), None, "lengths"),
    "maass": _Claim("verify_maass_three_squares", (5,), None, "lengths"),
    "pythagoras": _Claim("verify_pythagoras", None, None, "lengths"),
    "peters-oracle": _Claim("verify_peters_equivalence", None, None, "lengths"),
    "thresholds": _Claim("verify_multiplier_thresholds", None, None, "sweep"),
    "stable-multiplier": _Claim("estimate_stable_multiplier", None, None, "rows"),
    "local-necessity": _Claim("verify_local_necessity", None, None, "lengths"),
}

CLAIM_NAMES = tuple(_CLAIMS)


def _covers(rings: tuple[int, ...] | None, d: int) -> bool:
    return rings is None or d in rings


def run_claims(spec: ScanSpec, claims: list[str]) -> list[Report]:
    """Run named claims over every applicable D in the spec.

    The walk goes ring by ring, over the spec's contexts, so no D is
    tested for squarefreeness again.  Each ring gets at most one sweep, one
    scan of its elements and one list of their shortest lengths, read off
    the sweep once per element.  Each is made when a claim first reads it
    (the sweep first), before that claim's clock starts, so
    `Report.elapsed` times the claim alone; the sweep and the scan are
    charged first (`errors.charge`), and the lengths ride on the scan's
    one unit per element.  All three are dropped before the next ring's.
    `scharlau`, `maass`, `pythagoras`, `peters-oracle` and
    `local-necessity` read the lengths; `doubling` and `thresholds` read
    the sweep, since their targets lie off the scan; `stable-multiplier`
    reads neither, and walks the box's rows itself, so its scan is charged
    but not listed.  The sweep reaches 2*trace_bound when `doubling` reads
    it (it checks doubled elements) and trace_bound otherwise.  The
    reports come back claims outer, D inner, in the order the claims were
    named.
    """
    names = [CLAIM_ALIASES.get(name, name) for name in claims]
    for name, claim in zip(claims, names):
        if claim not in _CLAIMS:
            raise ValueError(f"unknown claim {name!r}")
    runs: list[tuple[int, Report]] = []
    for ctx in spec.contexts:
        d = ctx.D
        sweep = elements = lengths = None  # drops the previous ring's
        for position, claim in enumerate(names):
            entry = _CLAIMS[claim]
            if not _covers(entry.rings, d):
                continue
            reads = _covers(entry.reads, d)
            lists = reads and entry.fourth != "rows"
            if lists and sweep is None:
                doubled = "doubling" in names and _covers(_CLAIMS["doubling"].reads, d)
                trace = 2 * spec.trace_bound if doubled else spec.trace_bound
                sweep = Sweep(ctx, trace, node_budget=spec.node_budget)
            if reads and elements is None:
                charge_scan(ctx, spec.trace_bound, spec.node_budget)
                if lists:
                    elements = list(scan_totally_positive(ctx, spec.trace_bound))
            if lists and entry.fourth == "lengths" and lengths is None:
                lengths = [sweep.length(alpha) for alpha in elements]
            fourth = {"sweep": sweep, "lengths": lengths}.get(entry.fourth) if lists else None
            start = time.perf_counter()
            report = globals()[entry.function](ctx, spec, elements if lists else None, fourth)
            report.elapsed = time.perf_counter() - start
            runs.append((position, report))
    runs.sort(key=lambda run: run[0])
    return [report for _, report in runs]
