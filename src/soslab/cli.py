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
import os
import sys
import time
from dataclasses import dataclass

from .criteria import (
    doubling_witness,
    odd_multiple_witness,
    peters_interval,
    ramified_obstruction_witness,
)
from .decompose import (
    DEFAULT_NODE_BUDGET,
    SearchVerdict,
    VerdictKind,
    decompose_sos,
    pythagoras_length,
)
from .errors import (
    BasisMismatch,
    BudgetExceeded,
    ParseError,
    SoslabError,
)
from .quadfield import QuadInt, RingContext, square_factor
from .residues import is_square_mod_two
from .sintegers import SKind, s_element, s_is_sum_of_squares
from .sweep import Sweep
from .verify import (
    CLAIM_ALIASES,
    CLAIM_NAMES,
    ScanSpec,
    reports_to_jsonl,
    run_claims,
    scan_totally_positive,
)

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


def format_element(alpha: QuadInt) -> str:
    return str(alpha)


# -- config and output ---------------------------------------------------------


@dataclass
class CliConfig:
    """Everything a subcommand handler needs, already validated."""

    command: str
    fmt: str
    node_budget: int
    out: str | None
    args: argparse.Namespace

    def emit(self, record: dict, human: str) -> None:
        stream = open(self.out, "a") if self.out else sys.stdout
        try:
            if self.fmt == "json":
                print(json.dumps(record, sort_keys=True), file=stream)
            elif self.fmt == "tsv":
                fields = ("command", "D", "element", "verdict", "terms", "nodes", "elapsed_ms")
                row = []
                for key in fields:
                    value = record.get(key)
                    if isinstance(value, list):
                        value = ";".join(str(x) for x in value)
                    row.append("" if value is None else str(value))
                print("\t".join(row), file=stream)
            else:
                print(human, file=stream)
        finally:
            if self.out:
                stream.close()


def _env_node_budget() -> int:
    raw = os.environ.get("SOSLAB_NODE_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise SoslabError(f"SOSLAB_NODE_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise SoslabError("SOSLAB_NODE_BUDGET must be positive")
    return value


def _parse_d_spec(spec: str) -> tuple[int, ...]:
    """'6' | '2,3,5' | '2..50' (ranges keep only squarefree D)."""
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        return tuple(d for d in range(max(lo, 2), hi + 1) if square_factor(d) is None)
    return tuple(int(part) for part in spec.split(","))


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _parse_m_range(spec: str) -> tuple[int, int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return int(lo), int(hi)
    m = int(spec)
    return m, m


# -- subcommand handlers ---------------------------------------------------------


def _search_record(
    cfg: CliConfig, alpha: QuadInt, verdict: SearchVerdict, elapsed_ms: int
) -> tuple[dict, int]:
    """The JSON record of one check/decompose verdict, and its exit code."""
    record = {
        "command": cfg.command,
        "D": alpha.ctx.D,
        "element": str(alpha),
        "terms": None,
        "nodes": verdict.nodes,
        "elapsed_ms": elapsed_ms,
    }
    decomposition = verdict.decomposition
    if decomposition is not None:
        terms = [str(t) for t in decomposition.terms]
        if cfg.command == "check":
            certificate = {"kind": "decomposition", "terms": terms}
        else:
            certificate = {"kind": "decomposition", "length": len(decomposition)}
        record.update(verdict="sum_of_squares", certificate=certificate, terms=terms)
        return record, 0
    if verdict.kind is VerdictKind.EXHAUSTED_NONE:
        certificate = {"kind": "exhaustion", "nodes": verdict.nodes}
        record.update(verdict="not_sum_of_squares", certificate=certificate)
        return record, 0
    certificate = {"kind": "budget_exceeded", "budget": cfg.node_budget}
    record.update(verdict="unknown", certificate=certificate)
    return record, 3


def _no_verdict(cfg: CliConfig, alpha: QuadInt) -> str:
    return f"no verdict for {alpha}: node budget {cfg.node_budget} exceeded"


def cmd_decompose(cfg: CliConfig) -> int:
    ctx = RingContext(cfg.args.D)
    alpha = parse_element(ctx, cfg.args.elem)
    shortest = cfg.args.shortest
    start = time.perf_counter()
    # --shortest reruns one search capped at the shortest length, for its
    # terms; a None length makes that the unbounded search, which refutes.
    if shortest:
        max_terms = pythagoras_length(alpha, node_budget=cfg.node_budget)
    else:
        max_terms = cfg.args.max_terms
    verdict = decompose_sos(alpha, max_terms=max_terms, node_budget=cfg.node_budget)
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    record, code = _search_record(cfg, alpha, verdict, elapsed_ms)
    decomposition = verdict.decomposition
    if decomposition is not None:
        human = str(decomposition)
        if shortest:
            human += f"  [shortest: {len(decomposition)} squares]"
    elif code == 3:
        human = _no_verdict(cfg, alpha)
    elif shortest:
        human = f"{alpha} is not a sum of squares in O(sqrt{ctx.D})"
    else:
        bound = "" if max_terms is None else f" with at most {max_terms} terms"
        human = f"{alpha} is not a sum of squares{bound} [exhausted {verdict.nodes} nodes]"
    cfg.emit(record, human)
    return code


def cmd_check(cfg: CliConfig) -> int:
    ctx = RingContext(cfg.args.D)
    alpha = parse_element(ctx, cfg.args.elem)
    start = time.perf_counter()
    verdict = decompose_sos(alpha, node_budget=cfg.node_budget)
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    record, code = _search_record(cfg, alpha, verdict, elapsed_ms)
    record["totally_positive"] = alpha.is_totally_positive()
    record["square_mod_2O"] = is_square_mod_two(alpha)
    if verdict.decomposition is not None:
        human = f"{alpha} is a sum of {len(verdict.decomposition)} squares"
    elif code == 3:
        human = _no_verdict(cfg, alpha)
    else:
        human = f"{alpha} is not a sum of squares [exhausted {verdict.nodes} nodes]"
    cfg.emit(record, human)
    return code


def cmd_peters(cfg: CliConfig) -> int:
    ctx = RingContext(cfg.args.D)
    alpha = parse_element(ctx, cfg.args.elem)
    interval = peters_interval(alpha)
    hit = interval is not None and bool(interval.admissible_n)
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
            "admissible_n": list(interval.admissible_n),
        }
        if hit:
            human = f"{alpha} is a sum of five squares: n in {list(interval.admissible_n)}"
        else:
            human = f"{alpha}: no admissible integer in the interval"
    record = {
        "command": "peters",
        "D": ctx.D,
        "element": str(alpha),
        "verdict": "interval_hit" if hit else "no_interval_hit",
        "certificate": certificate,
        "terms": None,
        "nodes": 0,
        "elapsed_ms": 0,
    }
    cfg.emit(record, human)
    return 0


def cmd_witness(cfg: CliConfig) -> int:
    ctx = RingContext(cfg.args.D)
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
    record = {
        "command": "witness",
        "D": ctx.D,
        "element": str(element),
        "verdict": kind,
        "certificate": None,
        "terms": None,
        "nodes": 0,
        "elapsed_ms": 0,
    }
    cfg.emit(record, human)
    return 0


def cmd_sint(cfg: CliConfig) -> int:
    ctx = RingContext(cfg.args.D)
    gamma = parse_element(ctx, cfg.args.elem)
    xi = s_element(gamma, cfg.args.j, cfg.args.m)
    start = time.perf_counter()
    verdict = s_is_sum_of_squares(
        xi, cfg.args.j_budget, node_budget=cfg.node_budget
    )
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    base = {
        "command": "sint",
        "D": ctx.D,
        "element": str(xi),
        "m": xi.m,
        "nodes": verdict.nodes,
        "elapsed_ms": elapsed_ms,
    }
    if verdict.kind is SKind.REPRESENTABLE:
        assert verdict.terms is not None and verdict.j_used is not None
        record = {
            **base,
            "verdict": "representable",
            "certificate": {"kind": "decomposition", "j_used": verdict.j_used},
            "terms": [str(t) for t in verdict.terms],
        }
        denom = f"/{xi.m}^{verdict.j_used}" if verdict.j_used else ""
        squares = " + ".join(f"(({t}){denom})^2" for t in verdict.terms)
        cfg.emit(record, f"{xi} = {squares}")
        return 0
    if verdict.kind is SKind.OBSTRUCTED:
        assert verdict.certificate is not None
        record = {
            **base,
            "verdict": "obstructed",
            "certificate": {
                "kind": "local_obstruction",
                "residue": list(verdict.certificate.residue),
                "reason": verdict.certificate.reason,
            },
            "terms": None,
        }
        cfg.emit(record, f"{xi} is not a sum of squares in O[1/{xi.m}]: {verdict.certificate.reason}")
        return 0
    record = {
        **base,
        "verdict": "unknown",
        "certificate": {"kind": "escalation_exhausted", "gave_up_at_j": verdict.gave_up_at_j},
        "terms": None,
    }
    cfg.emit(
        record,
        f"no verdict for {xi}: escalation searched up to denominator "
        f"exponent {verdict.gave_up_at_j}",
    )
    return 3


def cmd_scan(cfg: CliConfig) -> int:
    ctx = RingContext(cfg.args.D)
    if cfg.args.trace_bound < 2:
        raise ValueError("trace bound below 2 scans nothing")
    sweep = (
        Sweep(ctx, cfg.args.trace_bound, node_budget=cfg.node_budget)
        if cfg.args.with_oracle
        else None
    )
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
        cfg.emit(record, human)
    return 0


def cmd_verify(cfg: CliConfig) -> int:
    spec = ScanSpec(
        d_list=_parse_d_spec(cfg.args.D),
        trace_bound=cfg.args.trace_bound,
        m_range=_parse_m_range(cfg.args.m_range) if cfg.args.m_range else None,
        node_budget=cfg.node_budget,
    )
    claims = list(CLAIM_NAMES) if cfg.args.claim == "all" else [cfg.args.claim]
    reports = run_claims(spec, claims)
    if cfg.fmt == "human":
        stream = open(cfg.out, "a") if cfg.out else sys.stdout
        try:
            for report in reports:
                status = "PASS" if report.passed else "FAIL"
                print(
                    f"{report.claim_id}: {status} "
                    f"({report.instances_checked} checked, "
                    f"{len(report.failures)} failures, {report.elapsed:.2f}s)",
                    file=stream,
                )
                for failure in report.failures:
                    print(f"  failure: {failure}", file=stream)
        finally:
            if cfg.out:
                stream.close()
    else:
        text = reports_to_jsonl(reports)
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
        p.add_argument("--node-budget", type=_positive_int, default=None)
        p.add_argument("--out", default=None, help="append output to this file")

    p = sub.add_parser("decompose", help="find an explicit sum-of-squares decomposition")
    common(p)
    p.add_argument("--max-terms", type=int, default=None)
    p.add_argument("--shortest", action="store_true", help="minimize the number of squares")

    p = sub.add_parser("check", help="decide sum-of-squares representability")
    common(p)

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
    p.add_argument("--j-budget", type=int, default=4, help="extra escalation levels to try")

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
    p.add_argument("--m-range", default=None, help="multiplier range, e.g. '1..5'")
    p.add_argument(
        "--format", choices=("human", "json", "tsv"), default="json", dest="fmt"
    )
    p.add_argument("--node-budget", type=_positive_int, default=None)
    p.add_argument("--out", default=None, help="write the JSONL report here")

    return parser


HANDLERS = {
    "decompose": cmd_decompose,
    "check": cmd_check,
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
        node_budget = args.node_budget if args.node_budget is not None else _env_node_budget()
        cfg = CliConfig(
            command=args.command,
            fmt=args.fmt,
            node_budget=node_budget,
            out=args.out,
            args=args,
        )
        if args.command == "verify" and args.claim != "all":
            claim = CLAIM_ALIASES.get(args.claim, args.claim)
            if claim not in CLAIM_NAMES:
                parser.error(f"unknown claim {args.claim!r}")
            args.claim = claim
        return HANDLERS[args.command](cfg)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SoslabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
