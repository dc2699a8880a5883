"""The three workloads, each a closed loop with one caller and workers=1.

Each function takes the imported soslab package, the RingContexts built
during set-up, the seed, the time budget and whether to trace, and returns
the raw samples and verdicts for run.py.  soslab is always called through
module attributes (`soslab.decompose_sos`, ...), so that the tracer's
wrappers see these calls as they see the library's own.

An untraced run measures, and times speed.py's reference loop between
its operations; a traced run first runs the workload untraced, then runs
the same inputs again under the tracer, so that the difference between
the two is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import inputs
from speed import SpeedProbe
from tracer import Tracer
from worker import ROOT, SRC

SPANS_DIR = os.path.join(ROOT, ".bench_out")


def provenance(soslab, engine: str | None) -> dict:
    try:
        from soslab import _speedups  # noqa: F401
        speedups = True
    except ImportError:
        speedups = False
    return {
        "engine": engine or ("c" if soslab.decompose._compiled is not None else "python") + " (not traced)",
        "speedups_importable": speedups,
        "soslab_file": soslab.__file__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("SOSLAB_")},
    }


def _finish_trace(tracer: Tracer, workload: str, untraced_s: float, traced_s: float, extra: dict) -> dict:
    metrics = tracer.metrics()
    metrics.update({"cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.handler_ms": 0.0})
    metrics.update(extra)
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    tracer.write(os.path.join(SPANS_DIR, f"spans-{workload}.jsonl"))
    return {
        "per_layer": metrics,
        "span_count": len(tracer.spans),
        "call_count": sum(tracer.calls.values()),
        "engine": tracer.engine(),
    }


# -- claims -------------------------------------------------------------------


def claims(soslab, contexts, seed: int, seconds: float, traced: bool) -> dict:
    """run_claims over every claim for the claims D range at one trace bound.

    The box is exhaustive, so the seed does not change it.  Sweeps repeat
    until the time budget is spent; each is timed whole, JSONL included.
    """
    del seed
    names = list(soslab.verify.CLAIM_NAMES)
    ds = tuple(contexts)
    soslab.run_claims(soslab.ScanSpec(d_list=ds, trace_bound=12), names)  # warm-up
    spec = soslab.ScanSpec(d_list=ds, trace_bound=inputs.CLAIMS_TRACE, workers=1)

    def sweep():
        start = perf_counter()
        reports = soslab.run_claims(spec, names)
        text = soslab.reports_to_jsonl(reports)
        return perf_counter() - start, reports, text

    start = perf_counter()
    wall, reports, text = sweep()
    if traced:
        tracer = Tracer()
        tracer.install()
        tracer.request = "claims"
        traced_wall, _, traced_text = sweep()
        out = _finish_trace(tracer, "claims", wall, traced_wall, {})
        out.update(jsonl=text, sweep_digests=[hashlib.sha256(traced_text.encode()).hexdigest()])
        return out
    walls, report_ms, digests = [], [], []
    probe = SpeedProbe()
    while True:
        probe.tick()
        walls.append(wall)
        report_ms.extend(1000 * r.elapsed for r in reports)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if perf_counter() - start >= seconds:
            break
        wall, reports, _ = sweep()
    return {"sweep_s": walls, "report_ms": report_ms, "jsonl": text, "sweep_digests": digests,
            "speed_s": probe.samples}


# -- queries ------------------------------------------------------------------


def run_query(soslab, contexts, op: str, d: int, u: int, v: int) -> dict:
    """One library request; the verdict in the benchmark's own terms."""
    alpha = contexts[d].element(u, v)
    rec = {"op": op, "d": d, "u": u, "v": v, "terms": None, "length": None, "j_used": None}
    kinds = {"found": "found", "exhausted_none": "refuted", "budget_exceeded": "budget"}
    try:
        if op == "check":
            verdict = soslab.decompose_sos(alpha)
        elif op == "shortest":
            # What `soslab decompose --shortest` does: the length, then a
            # decomposition of that length.
            rec["length"] = soslab.pythagoras_length(alpha)
            if rec["length"] is None:
                rec["kind"] = "refuted"
                return rec
            verdict = soslab.decompose_sos(alpha, max_terms=rec["length"])
        else:
            s = soslab.s_is_sum_of_squares(soslab.s_element(alpha, 0, int(op[-1])))
            rec["kind"] = "found" if s.kind.value == "representable" else s.kind.value
            if s.terms is not None:
                rec["terms"] = [[t.u, t.v] for t in s.terms]
                rec["j_used"] = s.j_used
            return rec
    except soslab.SoslabError as exc:
        rec["kind"] = f"error: {exc}"
        return rec
    rec["kind"] = kinds[verdict.kind.value]
    if verdict.decomposition is not None:
        rec["terms"] = [[t.u, t.v] for t in verdict.decomposition.terms]
    return rec


def _query_pass(soslab, contexts, stream, budget_s: float, tracer: Tracer | None = None,
                probe: SpeedProbe | None = None):
    """(wall time less probing, records) of the stream's prefix that fits budget_s."""
    records = []
    probing = 0.0
    start = perf_counter()
    for i, request in enumerate(stream):
        if i >= inputs.QUERY_MIN_REQUESTS and perf_counter() - start >= budget_s:
            break
        if tracer is not None:
            tracer.request = i
        if probe is not None:
            probing += probe.tick()
        t = perf_counter()
        rec = run_query(soslab, contexts, *request)
        rec["ms"] = 1000 * (perf_counter() - t)
        records.append(rec)
    return perf_counter() - start - probing, records


def _replay_other_kernel(tracer: Tracer) -> tuple[str, dict, int]:
    """Engine parity: rerun every recorded kernel call on the other kernel.

    Returns "replayed", or "absent" when the compiled kernel cannot be
    imported; the other kernel's metrics on the replay; and the number of
    calls whose status, node count or terms differ.
    """
    try:
        from soslab import _speedups

        compiled = tracer.originals.get("speedups.run_search", _speedups.run_search)
    except ImportError:
        compiled = None
    other = {"python": ("speedups", compiled), "c": ("pysearch", tracer.originals["pysearch.run_search"])}
    totals: Counter[str] = Counter()
    mismatches = 0
    for engine, args, result in tracer.kernel_calls:
        prefix, kernel = other[engine]
        if kernel is None:
            continue
        start = perf_counter()
        status, nodes, terms = kernel(*args)
        totals[f"{prefix}.search_s"] += perf_counter() - start
        totals[f"{prefix}.search_calls"] += 1
        totals[f"{prefix}.nodes"] += nodes
        totals[f"{prefix}.found"] += status == 1
        same_terms = [tuple(t) for t in terms or []] == [tuple(t) for t in result[2] or []]
        mismatches += (status, nodes) != tuple(result[:2]) or not same_terms
    metrics = {k: v for k, v in totals.items() if not k.endswith(".found")}
    if totals["pysearch.search_calls"]:
        metrics["pysearch.nodes_per_s"] = totals["pysearch.nodes"] / totals["pysearch.search_s"]
        metrics["pysearch.found_ratio"] = totals["pysearch.found"] / totals["pysearch.search_calls"]
    return ("absent" if compiled is None else "replayed"), metrics, mismatches


def queries(soslab, contexts, seed: int, seconds: float, traced: bool) -> dict:
    """A seeded stream of independent check / shortest / sint requests."""
    for request in inputs.query_warmup(seed):
        run_query(soslab, contexts, *request)
    stream = inputs.query_stream(seed)
    if not traced:
        probe = SpeedProbe()
        wall, records = _query_pass(soslab, contexts, stream, seconds, probe=probe)
        probe.tick()
        return {"wall_s": wall, "records": records, "speed_s": probe.samples}
    wall, records = _query_pass(soslab, contexts, stream, seconds / 2)
    tracer = Tracer()
    tracer.install()
    tracer.keep_kernel_calls = True
    traced_wall, traced_records = _query_pass(soslab, contexts, stream[: len(records)], float("inf"), tracer)
    status, replay_metrics, mismatches = _replay_other_kernel(tracer)
    out = _finish_trace(tracer, "queries", wall, traced_wall, replay_metrics)
    out.update(records=records, traced_records=traced_records, parity=status, parity_mismatches=mismatches)
    return out


# -- cli ----------------------------------------------------------------------


def _cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _spawn(args: list[str], env: dict) -> tuple[float, int, str, str]:
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    return 1000 * (perf_counter() - start), proc.returncode, proc.stdout, proc.stderr


def cli(soslab, contexts, seed: int, seconds: float, traced: bool) -> dict:
    """Sequential `python -m soslab.cli ... --format json` subprocesses.

    Each subprocess pays interpreter start and import, as a user's call
    does.  One untimed call first writes the bytecode caches, a one-time
    cost of installing, not of each call.
    """
    del contexts
    requests = inputs.cli_requests(seed)
    env = _cli_env()
    _spawn(["-m", "soslab.cli", *requests[0]], env)
    if traced:
        return _cli_traced(soslab, requests, env)
    calls = []
    probe = SpeedProbe()
    probing = 0.0
    start = perf_counter()
    while len(calls) < len(requests) or perf_counter() - start < seconds:
        probing += probe.tick()
        argv = requests[len(calls) % len(requests)]
        ms, code, out, err = _spawn(["-m", "soslab.cli", *argv], env)
        calls.append({"argv": argv, "ms": ms, "code": code, "out": out, "err": err[-500:]})
    wall = perf_counter() - start - probing
    probe.tick()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"wall_s": wall, "calls": calls, "peak_rss_kb": peak, "speed_s": probe.samples}


def _cli_traced(soslab, requests: list[list[str]], env: dict) -> dict:
    """Layers of one CLI call: interpreter start, import, and the handler."""
    interp = statistics.median(_spawn(["-c", "pass"], env)[0] for _ in range(5))
    imported = statistics.median(_spawn(["-c", "import soslab.cli"], env)[0] for _ in range(5))
    import soslab.cli

    def handle(argv, tracer=None):
        buf = io.StringIO()
        t = perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = soslab.cli.main(argv)
            else:
                code = tracer.span("cli.main", soslab.cli.main, argv)
        return 1000 * (perf_counter() - t), code, buf.getvalue()

    for argv in requests:  # warm-up: first calls fill soslab's caches
        handle(argv)
    untraced = [handle(argv) for argv in requests]
    tracer = Tracer()
    tracer.install()
    traced = []
    for i, argv in enumerate(requests):
        tracer.request = i
        traced.append(handle(argv, tracer))
    extra = {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.handler_ms": statistics.median(ms for ms, _, _ in untraced),
    }
    untraced_s = sum(ms for ms, _, _ in untraced) / 1000
    traced_s = sum(ms for ms, _, _ in traced) / 1000
    out = _finish_trace(tracer, "cli", untraced_s, traced_s, extra)
    out["calls"] = [
        {"argv": argv, "ms": ms, "code": code, "out": text, "err": ""}
        for outputs in (untraced, traced)
        for argv, (ms, code, text) in zip(requests, outputs)
    ]
    return out
