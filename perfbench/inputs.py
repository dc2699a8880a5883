"""Seeded workload inputs, built with the benchmark's own integer code.

Nothing here imports soslab: the inputs (and the verdict gate that reads
them back) must not depend on the program under measurement.  Elements are
(D, u, v) triples meaning u + v*w, with w = sqrt(D) for D = 2, 3 (mod 4) and
w = (1 + sqrt(D))/2 for D = 1 (mod 4), the coordinates soslab uses.
"""

from __future__ import annotations

import random
from math import isqrt

# claims: ROADMAP's acceptance box, every squarefree D in 2..50.
CLAIMS_TRACE = 40
# queries and cli: ramified, inert and split 2, and both integral bases.
QUERY_DS = (2, 3, 5, 6, 7, 13, 17, 21)
# The query band sits above the claims box, so no query repeats a claim
# element.  One pass over its 5,396 elements takes about 17 s on a 2-vCPU
# Xeon VM, inside the 40 s a run may measure.
QUERY_TRACES = (CLAIMS_TRACE + 1, 80)
QUERY_OPS = ("check", "shortest", "sint2", "sint3")
# Requests that always complete, whatever --seconds says: the default
# seed's verdict digest covers exactly these.
QUERY_MIN_REQUESTS = 300
QUERY_WARMUP_ROUNDS = 3
CLI_TRACE = 24
DEFAULT_SEED = 0


def squarefree(d: int) -> bool:
    return all(d % (p * p) for p in range(2, isqrt(d) + 1))


def claims_ds() -> tuple[int, ...]:
    return tuple(d for d in range(2, 51) if squarefree(d))


def omega_half(d: int) -> bool:
    """Whether w = (1 + sqrt(D))/2, i.e. D = 1 (mod 4)."""
    return d % 4 == 1


def ramified(d: int) -> bool:
    return not omega_half(d)


def trace(d: int, u: int, v: int) -> int:
    return 2 * u + v if omega_half(d) else 2 * u


def totally_positive(d: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Every totally positive (u, v) with lo <= trace <= hi, in (trace, v) order."""
    out = []
    for t in range(max(lo, 1), hi + 1):
        if omega_half(d):
            # u + v*w = (t + v*sqrt(D))/2 with t = 2u + v: positive in both
            # embeddings iff D*v^2 < t^2.
            v_max = isqrt((t * t - 1) // d)
            out.extend(((t - v) // 2, v) for v in range(-v_max, v_max + 1) if (t - v) % 2 == 0)
        elif t % 2 == 0:
            u = t // 2
            v_max = isqrt((u * u - 1) // d)
            out.extend((u, v) for v in range(-v_max, v_max + 1))
    return out


def claims_element_count() -> int:
    """Distinct elements the claims box scans (totally positive, trace <= bound)."""
    return sum(len(totally_positive(d, 1, CLAIMS_TRACE)) for d in claims_ds())


def query_stream(seed: int) -> list[tuple[str, int, int, int]]:
    """Every element of the query band once, as (op, D, u, v), in seeded order.

    Each D deals the four operations round-robin over its elements, odd
    sqrt(D)-coefficients in ramified rings apart from the rest, so the mix
    of operations, hits and refutations is even.  The dealing does not
    depend on the seed: one refutation can cost a hundred times another of
    the same trace, and nothing (sint with m=3 on an odd coefficient) or
    three searches (sint with m=2), so a seeded dealing would move the
    throughput by more than the bound.  The seed orders the stream, which
    decides the requests that the time budget, if it runs out, leaves out.
    """
    lo, hi = QUERY_TRACES
    stream = []
    for d in QUERY_DS:
        elements = totally_positive(d, lo, hi)
        for odd in (False, True):
            group = [(u, v) for u, v in elements if (ramified(d) and v % 2 == 1) == odd]
            stream.extend((QUERY_OPS[i % len(QUERY_OPS)], d, u, v) for i, (u, v) in enumerate(group))
    random.Random(seed).shuffle(stream)
    return stream


def query_warmup(seed: int) -> list[tuple[str, int, int, int]]:
    """A few requests on elements below the query band (never measured)."""
    rng = random.Random(seed + 1)
    return [
        (QUERY_OPS[i % len(QUERY_OPS)], d, *rng.choice(totally_positive(d, 20, CLAIMS_TRACE)))
        for i, d in enumerate(QUERY_DS * QUERY_WARMUP_ROUNDS)
    ]


def format_element(d: int, u: int, v: int) -> str:
    """Element string in the CLI grammar, e.g. '3-2w' or '4+sqrt6'."""
    if v == 0:
        return str(u)
    unit = "w" if omega_half(d) else f"sqrt{d}"
    return f"{u}{'+' if v > 0 else '-'}{abs(v)}{unit}"


def cli_requests(seed: int) -> list[list[str]]:
    """One round of CLI argument lists: small elements, every subcommand."""
    rng = random.Random(seed)
    pools = {d: totally_positive(d, 1, CLI_TRACE) for d in QUERY_DS}
    ramified_ds = [d for d in QUERY_DS if ramified(d)]

    def elem() -> tuple[int, str]:
        d = rng.choice(QUERY_DS)
        return d, format_element(d, *rng.choice(pools[d]))

    rounds: list[list[str]] = []
    for _ in range(4):
        d, e = elem()
        rounds.append(["check", "--D", str(d), "--elem", e])
        d, e = elem()
        rounds.append(["decompose", "--D", str(d), "--elem", e, "--shortest"])
        d, e = elem()
        rounds.append(["sint", "--D", str(d), "--elem", e, "--m", str(rng.choice((2, 3)))])
    for _ in range(2):
        d, e = elem()
        rounds.append(["peters", "--D", str(d), "--elem", e])
    rounds.append(["witness", "--D", str(rng.choice(QUERY_DS)), "--kind", "doubling"])
    rounds.append(["witness", "--D", str(rng.choice(ramified_ds)), "--kind", "ramified"])
    rounds.append(
        ["witness", "--D", str(rng.choice(ramified_ds)), "--kind", "odd-multiple",
         "--m", str(rng.choice((1, 3, 5)))]
    )
    rng.shuffle(rounds)
    return [argv + ["--format", "json"] for argv in rounds]
