"""Verdict gate: checks every output with the benchmark's own arithmetic.

Found verdicts are re-squared here, refutations of elements with an odd
sqrt(D)-coefficient in a ramified ring are confirmed by that parity (such
an element is not a square mod 2*O, so no sum of squares), and claim
reports must all pass.  Everything else is pinned by a digest of the
verdicts, compared with `digests.json` (for queries and cli, the default
seed's; the claims box does not depend on the seed).  Node counts,
timings and the particular terms found are stripped before hashing: a new
engine may change them without changing a verdict.

Each check returns a list of mismatch descriptions; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from inputs import omega_half, ramified

DIGESTS = Path(__file__).with_name("digests.json")


def multiply(d: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (u1, v1), (u2, v2) = x, y
    if omega_half(d):  # w^2 = (D-1)/4 + w
        return u1 * u2 + (d - 1) // 4 * v1 * v2, u1 * v2 + v1 * u2 + v1 * v2
    return u1 * u2 + d * v1 * v2, u1 * v2 + v1 * u2


def sum_of_squares(d: int, terms) -> tuple[int, int]:
    total = (0, 0)
    for term in terms:
        sq = multiply(d, tuple(term), tuple(term))
        total = (total[0] + sq[0], total[1] + sq[1])
    return total


def parity_obstructed(d: int, v: int) -> bool:
    """Odd sqrt(D)-coefficient in a ramified ring: not a square mod 2*O."""
    return ramified(d) and v % 2 == 1


def digest(records: list) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(workload: str, records: list) -> list[str]:
    got, want = digest(records), json.loads(DIGESTS.read_text()).get(workload)
    if got != want:
        return [f"{workload} verdict digest {got} differs from the committed {want}"]
    return []


def check_representation(d: int, target: tuple[int, int], terms, scale: int = 1) -> list[str]:
    want = (target[0] * scale, target[1] * scale)
    got = sum_of_squares(d, terms)
    if got != want:
        return [f"D={d}: terms {terms} square to {got}, not {want}"]
    return []


# -- queries ------------------------------------------------------------------


def check_query(rec: dict) -> list[str]:
    """rec: op, d, u, v, kind, terms, length, j_used (see worker.run_query)."""
    op, d, u, v, kind = rec["op"], rec["d"], rec["u"], rec["v"], rec["kind"]
    where = f"{op} D={d} ({u},{v})"
    obstructed = parity_obstructed(d, v)
    if kind == "found":
        scale = int(op[-1]) ** (2 * rec["j_used"]) if op.startswith("sint") else 1
        problems = check_representation(d, (u, v), rec["terms"], scale)
        if op == "shortest" and len(rec["terms"]) != rec["length"]:
            problems.append(f"{where}: length {rec['length']} but {len(rec['terms'])} terms")
        if obstructed and op != "sint2":
            problems.append(f"{where}: represented, but not a square mod 2*O")
        return problems
    if kind == "refuted" and op in ("check", "shortest"):
        return []
    if kind == "obstructed" and op == "sint3" and obstructed:
        return []
    return [f"{where}: unexpected verdict {kind}"]


def query_digest_records(records: list[dict]) -> list:
    return [
        [r["op"], r["d"], r["u"], r["v"], r["kind"], r["length"] if r["op"] == "shortest" else None,
         r["j_used"]]
        for r in records
    ]


# -- claims -------------------------------------------------------------------


def strip_nodes(obj):
    if isinstance(obj, dict):
        return {k: strip_nodes(v) for k, v in obj.items() if k != "nodes"}
    if isinstance(obj, list):
        return [strip_nodes(x) for x in obj]
    return obj


def claim_records(jsonl: str) -> list[dict]:
    """The report records of one sweep's JSONL, after its schema header."""
    lines = jsonl.splitlines()
    if not lines or json.loads(lines[0]) != {"schema": 1}:
        raise ValueError("claims JSONL lacks its schema header")
    return [json.loads(line) for line in lines[1:]]


def check_claim(rec: dict) -> list[str]:
    if rec["failures"]:
        return [f"{rec['claim_id']}: {len(rec['failures'])} failures, e.g. {rec['failures'][0]}"]
    return []


# -- cli ----------------------------------------------------------------------

_ELEMENT = re.compile(r"^(?:(-?\d+)(?=[+-]|$))?(?:([+-]?)(\d*)(w|sqrt(\d+)))?$")


def parse_element(d: int, text: str) -> tuple[int, int]:
    """Inverse of soslab's element printing ('3', '-w', '1+2sqrt6', ...)."""
    m = _ELEMENT.match(text)
    if not m or (m.group(1) is None and m.group(4) is None):
        raise ValueError(f"unparseable element {text!r}")
    if m.group(5) is not None and (omega_half(d) or int(m.group(5)) != d):
        raise ValueError(f"{text!r} is not written in the basis of D={d}")
    u = int(m.group(1) or 0)
    if m.group(4) is None:
        return u, 0
    v = int(m.group(3) or 1)
    return u, -v if m.group(2) == "-" else v


def check_cli(argv: list[str], code: int, out: str) -> tuple[list[str], dict | None]:
    """Mismatches and the stripped record of one `soslab.cli` invocation."""
    where = " ".join(argv)
    if code != 0:
        return [f"`{where}` exited with {code}"], None
    try:
        rec = json.loads(out)
    except ValueError:
        return [f"`{where}` printed no JSON record: {out[:200]!r}"], None
    command, d = argv[0], int(argv[argv.index("--D") + 1])
    problems: list[str] = []
    if command in ("check", "decompose", "sint"):
        u, v = parse_element(d, argv[argv.index("--elem") + 1])
        verdict = rec["verdict"]
        m = int(argv[argv.index("--m") + 1]) if command == "sint" else 1
        terms = [parse_element(d, t) for t in rec["terms"] or []]
        if verdict in ("sum_of_squares", "representable"):
            j_used = rec["certificate"].get("j_used", 0)
            problems += check_representation(d, (u, v), terms, m ** (2 * j_used))
            if command == "decompose" and rec["certificate"]["length"] != len(terms):
                problems.append(f"`{where}`: shortest length disagrees with its terms")
            if parity_obstructed(d, v) and (command != "sint" or m % 2):
                problems.append(f"`{where}`: represented, but not a square mod 2*O")
        elif verdict == "not_sum_of_squares" and command != "sint":
            pass
        elif verdict == "obstructed" and command == "sint" and m % 2 and parity_obstructed(d, v):
            pass
        else:
            problems.append(f"`{where}`: unexpected verdict {verdict}")
    stripped = {k: val for k, val in rec.items() if k not in ("nodes", "elapsed_ms", "terms")}
    if isinstance(stripped.get("certificate"), dict):
        stripped["certificate"] = {
            k: val for k, val in stripped["certificate"].items() if k not in ("nodes", "terms")
        }
    return problems, stripped
