"""soslab benchmark: claim-box throughput, single-query latency, CLI cold start.

    python3 perfbench/run.py --workload {claims,queries,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; soslab is imported from its `src/`, and
the run refuses any other copy.  Each workload runs in a fresh interpreter
(perfbench/worker.py).  With --trace 0 the run measures the end-to-end
metrics; with --trace 1 it runs the workload untraced and then traced on
the same inputs, and reports the per-layer metrics.  Either way every
verdict goes through the gate in gate.py, and any mismatch makes the run
exit 1.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end times are scaled to a nominal machine speed (speed.py).  The
lines before the result give every metric by name and unit, unscaled
values too, the sample counts, and the provenance of the run (engine, Python, CPU count, soslab
path, SOSLAB_* variables).  Workloads, metrics and the layer map are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import inputs
from speed import NOMINAL_S
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (name, unit, better) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
]
WORKLOAD_DS = {"claims": inputs.claims_ds(), "queries": inputs.QUERY_DS, "cli": inputs.QUERY_DS}
# Set-up is timed in the workload process and in this many extra fresh
# interpreters; setup_s is the median.
SETUP_PROBES = 4
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not measure (as opposed to measuring a wrong verdict)."""


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spawn_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds),
        str(args.trace), ",".join(map(str, WORKLOAD_DS[args.workload])), *extra,
    ]
    # Its own session, so that a timeout also stops the CLI subprocesses it runs.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran past the {DEADLINE_S:.0f} s deadline") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


class Verdicts:
    """Tally of gate checks: one per operation, plus whole-run checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def flip_first_verdict(workload: str, payload: dict) -> None:
    """Fault injection for the gate's own test: flip one verdict."""
    if workload == "claims":
        lines = payload["jsonl"].splitlines()
        record = json.loads(lines[1])
        record["failures"].append({"element": "injected", "expected": "pass", "got": "flipped"})
        lines[1] = json.dumps(record)
        payload["jsonl"] = "\n".join(lines) + "\n"
    elif workload == "queries":
        record = payload["records"][0]
        record["kind"] = "refuted" if record["kind"] == "found" else "found"
        record["terms"] = record["terms"] or []
    else:
        call = payload["calls"][0]
        record = json.loads(call["out"])
        record["verdict"] = "flipped-" + record["verdict"]
        call["out"] = json.dumps(record)


def gate_claims(payload: dict, seed: int, verdicts: Verdicts) -> None:
    del seed  # the claims box is exhaustive, so its digest is checked on every seed
    records = gate.claim_records(payload["jsonl"])
    for rec in records:
        verdicts.check(gate.check_claim(rec))
    sha = hashlib.sha256(payload["jsonl"].encode()).hexdigest()
    for i, digest in enumerate(payload["sweep_digests"]):
        verdicts.check([] if digest == sha else [f"sweep {i} wrote different JSONL"])
    verdicts.check(gate.check_digest("claims", gate.strip_nodes(records)))


def gate_queries(payload: dict, seed: int, verdicts: Verdicts) -> None:
    records = payload["records"]
    for rec in records:
        verdicts.check(gate.check_query(rec))
    if seed == inputs.DEFAULT_SEED:
        verdicts.check(gate.check_digest("queries", gate.query_digest_records(records[: inputs.QUERY_MIN_REQUESTS])))
    if "traced_records" in payload:
        traced = gate.query_digest_records(payload["traced_records"])
        same = traced == gate.query_digest_records(records[: len(traced)])
        verdicts.check([] if same else ["the traced pass reached different verdicts"])
        mismatches = payload["parity_mismatches"]
        verdicts.check([f"{mismatches} kernel calls differ between engines"] if mismatches else [])


def gate_cli(payload: dict, seed: int, verdicts: Verdicts) -> None:
    first: dict[tuple, dict] = {}
    for call in payload["calls"]:
        problems, stripped = gate.check_cli(call["argv"], call["code"], call["out"])
        key = tuple(call["argv"])
        if problems and call["err"]:
            problems.append(f"stderr: {call['err']}")
        if stripped is not None and first.setdefault(key, stripped) != stripped:
            problems.append(f"`{' '.join(key)}` answered differently on a repeat call")
        verdicts.check(problems)
    if seed == inputs.DEFAULT_SEED:
        verdicts.check(gate.check_digest("cli", [first.get(tuple(a)) for a in inputs.cli_requests(seed)]))


GATES = {"claims": gate_claims, "queries": gate_queries, "cli": gate_cli}


def end_to_end(workload: str, payload: dict, setup: list[float]) -> tuple[dict, dict]:
    """(BENCHMARK.json's metrics, every metric printed for this workload)."""
    if workload == "claims":
        elements = inputs.claims_element_count()
        samples = payload["report_ms"]
        ops = statistics.median(elements / s for s in payload["sweep_s"])
        named = {"claims_elems_per_s": (ops, "1/s"), "sweeps": (len(payload["sweep_s"]), "count"),
                 "reports": (len(samples), "count"), "elements_per_sweep": (elements, "count")}
    elif workload == "queries":
        records = payload["records"]
        samples = [r["ms"] for r in records]
        ops = len(records) / payload["wall_s"]
        hits = [r["ms"] for r in records if r["kind"] == "found"]
        refutes = [r["ms"] for r in records if r["kind"] == "refuted"]
        named = {
            "queries_per_s": (ops, "1/s"), "query_p50_ms": (percentile(samples, 50), "ms"),
            "query_p90_ms": (percentile(samples, 90), "ms"), "hit_p50_ms": (percentile(hits, 50), "ms"),
            "refute_p50_ms": (percentile(refutes, 50), "ms"), "refute_p90_ms": (percentile(refutes, 90), "ms"),
            "requests": (len(records), "count"), "hits": (len(hits), "count"), "refutations": (len(refutes), "count"),
        }
    else:
        samples = [c["ms"] for c in payload["calls"]]
        ops = len(samples) / payload["wall_s"]
        named = {"cli_p50_ms": (percentile(samples, 50), "ms"), "cli_p90_ms": (percentile(samples, 90), "ms"),
                 "calls": (len(samples), "count")}
    units = {name: unit for name, unit, _ in END_TO_END}
    raw = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": payload["peak_rss_kb"] / 1024,
        "ops_per_s": ops,
        "op_p50_ms": percentile(samples, 50),
        "op_p90_ms": percentile(samples, 90),
    }
    # Scale the op times and rates to the nominal machine speed (see
    # speed.py).  Set-up is left alone: import time followed the reference
    # loop less well than it followed nothing.
    speed = NOMINAL_S / statistics.median(payload["speed_s"])

    def scaled(value: float, unit: str) -> float:
        return value * speed if unit == "ms" else value / speed if unit == "1/s" else value

    metrics = {k: {"value": scaled(v, units[k]), "unit": units[k]} for k, v in raw.items()}
    named = {
        **{k: (m["value"], m["unit"]) for k, m in metrics.items()},
        **{k: (scaled(v, unit), unit) for k, (v, unit) in named.items()},
        "setup_samples": (len(setup), "count"),
        "speed": (speed, "ratio"),
        "speed_probes": (len(payload["speed_s"]), "count"),
        **{f"unscaled_{k}": (v, units[k]) for k, v in raw.items() if units[k] in ("ms", "1/s")},
    }
    return metrics, named


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(GATES), required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-flip", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "soslab" / "__init__.py").is_file():
        print(f"error: no soslab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = [] if args.trace else [spawn_worker(args, deadline, "setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        payload = spawn_worker(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.inject_flip:
        flip_first_verdict(args.workload, payload)

    verdicts = Verdicts()
    GATES[args.workload](payload, args.seed, verdicts)
    if args.trace:
        spans, calls = payload["span_count"], payload["call_count"]
        verdicts.check([] if spans == calls else [f"{spans} spans but {calls} wrapped calls"])
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": payload["per_layer"][name], "unit": unit} for name, unit in units.items()}
        named = {"spans": (spans, "count"), "wrapped_calls": (calls, "count")}
        named.update({k: (v["value"], v["unit"]) for k, v in metrics.items()})
    else:
        metrics, named = end_to_end(args.workload, payload, [payload["setup_s"], *setup])
    named["failed_frac"] = (verdicts.failed / max(verdicts.attempted, 1), "ratio")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in named.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for problem in verdicts.problems[:20]:
        print(f"  MISMATCH {problem}")
    summary = {"provenance": payload["provenance"], "parity": payload.get("parity"),
               "mismatches": len(verdicts.problems)}
    print(json.dumps({"summary": summary}, sort_keys=True))
    result = {"correct": not verdicts.problems, "attempted": verdicts.attempted, "failed": verdicts.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
