"""Command-line interface.

Element grammar (whitespace ignored; positions in errors refer to the
de-spaced string):

    omega basis:   INT (('+'|'-') INT? 'w')?          e.g.  1+w, 3-2w
    sqrt basis:    INT (('+'|'-') INT? 'sqrt' INT)?   e.g.  3+sqrt6, 9-3sqrt6
    radical only:  [sign] INT? ('w' | 'sqrt' INT)     e.g.  sqrt6, -2w

The radicand must equal the context's D.  Output always uses the canonical
form (omega basis; for D = 2, 3 mod 4 omega is sqrt(D) and prints as such),
so every printed element re-parses.

Exit codes: 0 verdict computed (positive or negative), 1 verification
failures found, 2 usage or parse errors, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, TextIO

from .errors import (
    DEFAULT_NODE_BUDGET, BasisMismatch, BudgetExceeded, NotSquarefree, ParseError, SoslabError,
    charge,
)
from .quadfield import (
    QuadInt, RingContext, charge_scan, charge_square_factor, cube_root, scan_totally_positive,
)

if TYPE_CHECKING:
    from typing import Callable, TypeVar

    from .sintegers import SElement

    T = TypeVar("T")

# Each handler imports the modules that only it calls (`peters` and
# `witness` not even `decompose`): interpreter start and import are most of
# the time of a single call, more than a `check` spends in its search.

# -- element grammar -----------------------------------------------------------


def _read_sign(s: str, pos: int) -> tuple[int, int]:
    if pos < len(s) and s[pos] in "+-":
        return (-1 if s[pos] == "-" else 1), pos + 1
    return 1, pos


def _read_digits(s: str, pos: int) -> tuple[int | None, int]:
    start = pos
    while pos < len(s) and s[pos].isdigit():
        pos += 1
    return (int(s[start:pos]) if pos > start else None), pos


def _read_unit(ctx: RingContext, s: str, pos: int) -> tuple[str | None, int]:
    """Reads 'w' or 'sqrtN' (N must equal D); returns (kind, new_pos)."""
    if pos < len(s) and s[pos] == "w":
        return "w", pos + 1
    if s.startswith("sqrt", pos):
        radicand, end = _read_digits(s, pos + 4)
        if radicand is None:
            raise ParseError("expected a radicand after 'sqrt'", pos + 4)
        if radicand != ctx.D:
            raise BasisMismatch(
                f"sqrt{radicand} is not an element of Q(sqrt{ctx.D})"
            )
        return "sqrt", end
    return None, pos


def parse_element(ctx: RingContext, text: str) -> QuadInt:
    s = "".join(text.split())
    if not s:
        raise ParseError("empty element string", 0)
    sign1, pos = _read_sign(s, 0)
    int1, pos = _read_digits(s, pos)
    unit, after_unit = _read_unit(ctx, s, pos)
    if unit is not None:
        if after_unit != len(s):
            raise ParseError("unexpected trailing input", after_unit)
        coeff = sign1 * (1 if int1 is None else int1)
        return ctx.element(0, coeff) if unit == "w" else ctx.from_sqrt_pair(0, coeff)
    if int1 is None:
        raise ParseError("expected an integer or a radical term", pos)
    rational = sign1 * int1
    if pos == len(s):
        return ctx.from_int(rational)
    sign2, p = _read_sign(s, pos)
    if p == pos:
        raise ParseError("expected '+' or '-' before the radical term", pos)
    int2, p = _read_digits(s, p)
    unit, p = _read_unit(ctx, s, p)
    if unit is None:
        raise ParseError("expected 'w' or 'sqrtD' in the radical term", p)
    if p != len(s):
        raise ParseError("unexpected trailing input", p)
    coeff = sign2 * (1 if int2 is None else int2)
    if unit == "w":
        return ctx.element(rational, coeff)
    return ctx.from_sqrt_pair(rational, coeff)


# -- config and output ---------------------------------------------------------

# The TSV columns of the records of `_record`; scan's rows have their own.
RECORD_COLUMNS = ("command", "D", "element", "verdict", "terms", "nodes", "elapsed_ms")


class CliConfig:
    """Everything a subcommand handler needs, read from the parsed (and so
    validated) arguments.

    For every subcommand but verify (whose --D is a spec, charged as it is
    parsed), this is the one place that reads --D and --elem: it charges
    D's squarefree test, builds `ctx`, then parses --elem, where the
    subcommand takes one, as `alpha`, each once, before the handler's own
    checks.
    """

    ctx: RingContext
    alpha: QuadInt

    def __init__(self, args: argparse.Namespace) -> None:
        self.command = args.command
        self.fmt = args.fmt
        self.node_budget = args.node_budget
        self.out = args.out
        self.args = args
        self.stream: TextIO | None = None
        if args.command != "verify":
            charge_square_factor(args.D, args.node_budget)
            self.ctx = RingContext(args.D)
            if "elem" in args:
                self.alpha = parse_element(self.ctx, args.elem)

    def write(self, text: str) -> None:
        """Writes to stdout, or to --out, opened once on the first write:
        verify's JSONL report replaces the file, everything else appends."""
        if self.stream is None:
            if self.out is None:
                self.stream = sys.stdout
            else:
                overwrite = self.command == "verify" and self.fmt == "json"
                self.stream = open(self.out, "w" if overwrite else "a")
        self.stream.write(text)

    def close(self) -> None:
        if self.stream is not None and self.out is not None:
            self.stream.close()

    def emit(
        self, record: dict, human: str, denom: str = "", columns: tuple[str, ...] = RECORD_COLUMNS
    ) -> None:
        """Writes one record; a TSV row writes its `columns`, None as an
        empty field, and each term over `denom` (sint's "/m^j"), as the
        human line does."""
        if self.fmt == "json":
            line = json.dumps(record, sort_keys=True)
        elif self.fmt == "tsv":
            row = []
            for key in columns:
                value = record.get(key)
                if isinstance(value, list):
                    value = ";".join(f"({x}){denom}" if denom else str(x) for x in value)
                row.append("" if value is None else str(value))
            line = "\t".join(row)
        else:
            line = human
        self.write(line + "\n")


def _parse_d_spec(
    spec: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, ...] | tuple[RingContext, ...]:
    """'6' | '2,3,5' | '2..50' (ranges keep only squarefree D).  Before any
    D is listed, a range is charged one unit per D, as a scan charges one
    per element, then its largest D's squarefree test, then all its tests,
    each costing at most that largest D's cube root (BudgetExceeded).  A
    range is listed as the RingContext of each D it keeps, so that the one
    squarefree test that kept it also built its ring (`ScanSpec` takes
    either); a list is listed as its D, tested by `ScanSpec`."""
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = max(int(lo_s), 2), int(hi_s)
        charge(hi - lo + 1, node_budget, f"the D range {spec}")
        charge_square_factor(hi, node_budget)
        tests = f"the squarefree tests of the D range {spec}"
        charge((hi - lo + 1) * cube_root(max(hi, 0)), node_budget, tests)
        contexts = []
        for d in range(lo, hi + 1):
            try:
                contexts.append(RingContext(d))
            except NotSquarefree:
                pass
        return tuple(contexts)
    return tuple(int(part) for part in spec.split(","))


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _parse_m_range(spec: str) -> tuple[int, int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return int(lo), int(hi)
    m = int(spec)
    return m, m


# -- subcommand handlers ---------------------------------------------------------

# `peters` lists at most this many admissible integers; beyond it the record
# gives the range (first, last, step, count) instead.
PETERS_LISTED = 100


def _record(
    cfg: CliConfig,
    element: QuadInt | SElement,
    verdict: str,
    certificate: dict | None,
    terms: tuple[QuadInt, ...] | None = None,
    nodes: int = 0,
    elapsed_ms: int = 0,
) -> dict:
    """The JSON record every subcommand but scan and verify prints."""
    return {
        "command": cfg.command,
        "D": element.ctx.D,
        "element": str(element),
        "verdict": verdict,
        "certificate": certificate,
        "terms": None if terms is None else [str(t) for t in terms],
        "nodes": nodes,
        "elapsed_ms": elapsed_ms,
    }


def _budget_certificate(cfg: CliConfig) -> dict:
    return {"kind": "budget_exceeded", "budget": cfg.node_budget}


def _timed(call: Callable[..., T], *args: object, **kwargs: object) -> tuple[T, int]:
    """call(*args, **kwargs), and the whole milliseconds it took."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return result, int(1000 * (time.perf_counter() - start))


def _no_verdict(cfg: CliConfig, alpha: QuadInt) -> str:
    return f"no verdict for {alpha}: node budget {cfg.node_budget} exceeded"


def cmd_search(cfg: CliConfig) -> int:
    """check and decompose: one search, and the record, human line and exit
    code of its verdict, each decided once (check's parser sets
    shortest=False and max_terms=None)."""
    from .decompose import VerdictKind, decompose_sos, shortest_decomposition
    from .residues import is_square_mod_two

    alpha, shortest, max_terms = cfg.alpha, cfg.args.shortest, cfg.args.max_terms
    if shortest:
        verdict, elapsed_ms = _timed(shortest_decomposition, alpha, node_budget=cfg.node_budget)
    else:
        verdict, elapsed_ms = _timed(
            decompose_sos, alpha, max_terms=max_terms, node_budget=cfg.node_budget
        )
    decomposition, nodes = verdict.decomposition, verdict.nodes
    terms = None if decomposition is None else decomposition.terms
    if decomposition is not None:
        kind, length = "sum_of_squares", len(decomposition)
        if cfg.command == "check":
            certificate = {"kind": "decomposition", "terms": [str(t) for t in decomposition.terms]}
            human = f"{alpha} is a sum of {length} squares"
        else:
            certificate = {"kind": "decomposition", "length": length}
            shown = f"  [shortest: {length} squares]" if shortest else ""
            human = f"{decomposition}{shown}"
    elif verdict.kind is VerdictKind.BUDGET_EXCEEDED:
        kind, certificate, human = "unknown", _budget_certificate(cfg), _no_verdict(cfg, alpha)
    elif max_terms is not None:
        # Exhausting a capped search says nothing about longer sums.
        kind = "none_within_max_terms"
        certificate = {"kind": "exhaustion", "nodes": nodes, "max_terms": max_terms}
        human = f"{alpha} is not a sum of at most {max_terms} squares [exhausted {nodes} nodes]"
    else:
        kind, certificate = "not_sum_of_squares", {"kind": "exhaustion", "nodes": nodes}
        if shortest:
            human = f"{alpha} is not a sum of squares in O(sqrt{cfg.ctx.D})"
        else:
            human = f"{alpha} is not a sum of squares [exhausted {nodes} nodes]"
    record = _record(cfg, alpha, kind, certificate, terms, nodes, elapsed_ms)
    if cfg.command == "check":
        record["totally_positive"] = alpha.is_totally_positive()
        record["square_mod_2O"] = is_square_mod_two(alpha)
    cfg.emit(record, human)
    return 3 if kind == "unknown" else 0


def cmd_peters(cfg: CliConfig) -> int:
    from .criteria import peters_interval

    alpha = cfg.alpha
    interval = peters_interval(alpha)
    points = interval.admissible if interval is not None else range(0)
    certificate: dict | None
    if interval is None:
        certificate = {"kind": "odd_sqrt_coefficient"}
        human = (
            f"{alpha}: interval test inapplicable (odd sqrt coefficient); "
            "not a sum of squares"
        )
    else:
        certificate = {
            "kind": "interval",
            "scale": interval.scale,
            "center": interval.center,
            "radicand": interval.radicand,
            "parity_required": interval.parity_required,
        }
        if points[PETERS_LISTED:]:
            # Too many to list: the closed-form range stands in for them
            # (len() of a range fails beyond sys.maxsize points).
            count = (points[-1] - points[0]) // points.step + 1
            certificate["admissible_range"] = {
                "first": points[0], "last": points[-1], "step": points.step, "count": count,
            }
            shown = f"{points[0]}, {points[1]}, ..., {points[-1]} ({count} integers)"
        else:
            certificate["admissible_n"] = list(points)
            shown = str(list(points))
        if points:
            human = f"{alpha} is a sum of five squares: n in {shown}"
        else:
            human = f"{alpha}: no admissible integer in the interval"
    record = _record(cfg, alpha, "interval_hit" if points else "no_interval_hit", certificate)
    cfg.emit(record, human)
    return 0


def cmd_witness(cfg: CliConfig) -> int:
    from .criteria import doubling_witness, odd_multiple_witness, ramified_obstruction_witness

    ctx = cfg.ctx
    kind = cfg.args.kind
    if kind == "doubling":
        element = doubling_witness(ctx)
        human = f"doubling witness for D={ctx.D}: {element}"
    elif kind == "ramified":
        element = ramified_obstruction_witness(ctx)
        human = f"ramified obstruction witness for D={ctx.D}: {element}"
    else:
        element = odd_multiple_witness(ctx, cfg.args.m)
        human = f"odd multiple witness for D={ctx.D}, m={cfg.args.m}: {element}"
    cfg.emit(_record(cfg, element, kind, None), human)
    return 0


def cmd_sint(cfg: CliConfig) -> int:
    from .sintegers import SKind, s_element, s_is_sum_of_squares

    xi = s_element(cfg.alpha, cfg.args.j, cfg.args.m)
    verdict, elapsed_ms = _timed(s_is_sum_of_squares, xi, node_budget=cfg.node_budget)

    def record(kind: str, certificate: dict, terms: tuple[QuadInt, ...] | None = None) -> dict:
        return {**_record(cfg, xi, kind, certificate, terms, verdict.nodes, elapsed_ms), "m": xi.m}

    # SVerdict.__post_init__ guarantees terms and j_used on a representable
    # verdict and a certificate on an obstructed one.
    if verdict.kind is SKind.REPRESENTABLE:
        certificate = {"kind": "decomposition", "j_used": verdict.j_used}
        denom = f"/{xi.m}^{verdict.j_used}" if verdict.j_used else ""
        squares = " + ".join(f"(({t}){denom})^2" for t in verdict.terms)
        cfg.emit(record("representable", certificate, verdict.terms), f"{xi} = {squares}", denom)
        return 0
    if verdict.kind is SKind.OBSTRUCTED:
        cert = verdict.certificate
        certificate = {
            "kind": "local_obstruction",
            "residue": list(cert.residue),
            "reason": cert.reason,
        }
        cfg.emit(
            record("obstructed", certificate),
            f"{xi} is not a sum of squares in O[1/{xi.m}]: {cert.reason}",
        )
        return 0
    cfg.emit(
        {**record("unknown", _budget_certificate(cfg)), "gave_up_at_j": verdict.gave_up_at_j},
        f"{_no_verdict(cfg, xi)} at denominator exponent {verdict.gave_up_at_j}",
    )
    return 3


def cmd_scan(cfg: CliConfig) -> int:
    from .residues import is_square_mod_two

    ctx = cfg.ctx
    if cfg.args.trace_bound < 2:
        raise ValueError("trace bound below 2 scans nothing")
    charge_scan(ctx, cfg.args.trace_bound, cfg.node_budget)
    sweep = None
    if cfg.args.with_oracle:
        from .sweep import Sweep

        sweep = Sweep(ctx, cfg.args.trace_bound, node_budget=cfg.node_budget)
    if cfg.fmt == "json":
        cfg.emit({"schema": 1}, "")
    for alpha in scan_totally_positive(ctx, cfg.args.trace_bound):
        record = {
            "element": str(alpha),
            "u": alpha.u,
            "v": alpha.v,
            "trace": alpha.trace,
            "norm": alpha.norm,
            "square_mod_2O": is_square_mod_two(alpha),
        }
        human = (
            f"{alpha}\ttrace={alpha.trace}\tnorm={alpha.norm}"
            f"\tsquare_mod_2O={record['square_mod_2O']}"
        )
        if sweep is not None:
            length = sweep.length(alpha)
            record["length"] = length
            human += f"\tlength={length}"
        # A TSV row holds the record's own fields, in its order.
        cfg.emit(record, human, columns=tuple(record))
    return 0


def cmd_verify(cfg: CliConfig) -> int:
    from .verify import CLAIM_NAMES, ScanSpec, reports_to_jsonl, run_claims

    spec = ScanSpec(
        d_list=_parse_d_spec(cfg.args.D, cfg.node_budget),
        trace_bound=cfg.args.trace_bound,
        m_range=_parse_m_range(cfg.args.m_range) if cfg.args.m_range else None,
        node_budget=cfg.node_budget,
    )
    claims = list(CLAIM_NAMES) if cfg.args.claim == "all" else [cfg.args.claim]
    reports = run_claims(spec, claims)
    if not reports:
        raise ValueError(f"{cfg.args.claim} applies to none of D = {cfg.args.D}")
    if cfg.fmt == "human":
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            cfg.write(
                f"{report.claim_id}: {status} "
                f"({report.instances_checked} checked, "
                f"{len(report.failures)} failures, {report.elapsed:.2f}s)\n"
            )
            for failure in report.failures:
                cfg.write(f"  failure: {failure}\n")
    else:
        cfg.write(reports_to_jsonl(reports))
    return 0 if all(r.passed for r in reports) else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soslab",
        description="Sums of squares in real quadratic rings of integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, elem: bool = True) -> None:
        p.add_argument("--D", type=int, required=True, help="squarefree D >= 2")
        if elem:
            p.add_argument("--elem", required=True, help="element, e.g. '3+sqrt6' or '1+w'")
        p.add_argument(
            "--format", choices=("human", "json", "tsv"), default="human", dest="fmt"
        )
        p.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
        p.add_argument("--out", default=None, help="append output to this file")

    p = sub.add_parser("decompose", help="find an explicit sum-of-squares decomposition")
    common(p)
    terms = p.add_mutually_exclusive_group()
    terms.add_argument("--max-terms", type=_positive_int, default=None)
    terms.add_argument("--shortest", action="store_true", help="minimize the number of squares")

    p = sub.add_parser("check", help="decide sum-of-squares representability")
    common(p)
    p.set_defaults(shortest=False, max_terms=None)

    p = sub.add_parser("peters", help="five-square interval test")
    common(p)

    p = sub.add_parser("witness", help="construct a named witness element")
    common(p, elem=False)
    p.add_argument(
        "--kind",
        choices=("doubling", "ramified", "odd-multiple"),
        default="doubling",
    )
    p.add_argument("--m", type=int, default=1, help="multiplier for odd-multiple witnesses")

    p = sub.add_parser("sint", help="decide representability in O[1/m]")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, default=0, help="denominator exponent of the input")

    p = sub.add_parser("scan", help="stream totally positive elements")
    common(p, elem=False)
    p.add_argument("--trace-bound", type=int, required=True)
    p.add_argument("--with-oracle", action="store_true")

    p = sub.add_parser("verify", help="run verification claims, emit JSONL reports")
    p.add_argument(
        "claim",
        help="claim name, an alias (thm3, thm4, lemma1, m0, peters), or 'all'",
    )
    p.add_argument("--D", required=True, help="D spec: '6', '2,3,5', or '2..50'")
    p.add_argument("--trace-bound", type=int, required=True)
    p.add_argument(
        "--m-range",
        default=None,
        help="multiplier range, e.g. '1..5': thresholds reads both ends; "
        "stable-multiplier reads only the top, as m_max, and always starts at m = 1",
    )
    p.add_argument("--format", choices=("human", "json"), default="json", dest="fmt")
    p.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", default=None, help="write the JSONL report here")

    return parser


HANDLERS = {
    "decompose": cmd_search,
    "check": cmd_search,
    "peters": cmd_peters,
    "witness": cmd_witness,
    "sint": cmd_sint,
    "scan": cmd_scan,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = CliConfig(args)
        try:
            return HANDLERS[args.command](cfg)
        finally:
            cfg.close()
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SoslabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
