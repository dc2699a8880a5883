"""Spans around soslab's layers, installed from outside the package.

`Tracer.install` wraps the public functions of each module and puts the
wrapper on every binding a caller uses: `verify`, `sintegers` and `cli`
import `decompose_sos` and friends by name, and `decompose` reaches the
kernels through the `_pysearch.` and `_compiled.` module attributes, so a
wrapper replaces every `soslab.*` module attribute that holds the original.

A span records its name, start, end, parent span and request id.  Spans are
kept in memory and written out when the run ends.  A span's self time is
its duration minus that of its child spans; calls run sequentially on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

# The eight claims of soslab.verify, by the function that checks each.
CLAIM_FUNCTIONS = {
    "verify_doubling": "doubling",
    "verify_scharlau": "scharlau",
    "verify_maass_three_squares": "maass",
    "verify_pythagoras": "pythagoras",
    "verify_peters_equivalence": "peters-oracle",
    "verify_multiplier_thresholds": "thresholds",
    "estimate_stable_multiplier": "stable-multiplier",
    "verify_local_necessity": "local-necessity",
}

# (name, unit, better) of every per-layer metric; the layer is the module.
PER_LAYER = [
    ("quadfield.context_calls", "count", "lower"),
    ("quadfield.context_s", "s", "lower"),
    ("quadfield.scan_elements", "count", "lower"),
    ("quadfield.scan_s", "s", "lower"),
    ("residues.calls", "count", "lower"),
    ("residues.s", "s", "lower"),
    ("criteria.peters_calls", "count", "lower"),
    ("criteria.peters_s", "s", "lower"),
    ("pysearch.cand_calls", "count", "lower"),
    ("pysearch.cand_total", "count", "lower"),
    ("pysearch.cand_s", "s", "lower"),
    ("pysearch.search_calls", "count", "lower"),
    ("pysearch.search_s", "s", "lower"),
    ("pysearch.nodes", "count", "lower"),
    ("pysearch.nodes_per_s", "1/s", "higher"),
    ("pysearch.found_ratio", "ratio", "higher"),
    ("speedups.search_calls", "count", "lower"),
    ("speedups.search_s", "s", "lower"),
    ("speedups.nodes", "count", "lower"),
    ("decompose.sos_calls", "count", "lower"),
    ("decompose.sos_self_s", "s", "lower"),
    ("decompose.found", "count", "higher"),
    ("decompose.exhausted", "count", "lower"),
    ("decompose.budget_exceeded", "count", "lower"),
    ("decompose.length_calls", "count", "lower"),
    ("decompose.length_s", "s", "lower"),
    ("decompose.searches_per_length", "ratio", "lower"),
    ("sintegers.calls", "count", "lower"),
    ("sintegers.s", "s", "lower"),
    ("sintegers.searches_per_call", "ratio", "lower"),
    ("sintegers.obstructed", "count", "higher"),
    *((f"verify.claim_s.{claim}", "s", "lower") for claim in CLAIM_FUNCTIONS.values()),
    ("verify.self_s", "s", "lower"),
    ("verify.searches", "count", "lower"),
    ("verify.elements", "count", "higher"),
    ("verify.searches_per_element", "ratio", "lower"),
    ("verify.jsonl_s", "s", "lower"),
    ("verify.jsonl_bytes", "B", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.handler_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Ancestor flags, for counting searches made on behalf of a caller.
_UNDER_LENGTH, _UNDER_SINT, _UNDER_CLAIMS = 1, 2, 4
_FLAG_OF = {
    "decompose.pythagoras_length": _UNDER_LENGTH,
    "sintegers.s_is_sum_of_squares": _UNDER_SINT,
    "verify.run_claims": _UNDER_CLAIMS,
}


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, request id, attribute]
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.request: object = None
        self.originals: dict[str, object] = {}
        # Kernel calls as (kernel, args, result), for the engine-parity replay;
        # kept only when asked for, since a claims sweep makes thousands.
        self.keep_kernel_calls = False
        self.kernel_calls: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attribute=None):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if attribute is not None:
                span[5] = attribute(args, result)
            return result

        self.originals[name] = fn
        return functools.update_wrapper(wrapper, fn)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span (for the benchmark's own calls)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every layer function on every binding soslab's modules hold."""
        from soslab import _pysearch, criteria, decompose, quadfield, residues, sintegers, verify

        def kernel(engine):
            def attribute(args, result):
                if self.keep_kernel_calls:
                    self.kernel_calls.append((engine, args, result))
                return result[:2]
            return attribute

        targets = [
            ("residues.is_square_mod_two", residues.is_square_mod_two, None),
            ("criteria.peters_five_squares", criteria.peters_five_squares, None),
            ("pysearch.generate_candidates", _pysearch.generate_candidates, lambda a, r: len(r)),
            ("pysearch.run_search", _pysearch.run_search, kernel("python")),
            ("decompose.decompose_sos", decompose.decompose_sos, lambda a, r: r.kind.value),
            ("decompose.pythagoras_length", decompose.pythagoras_length, None),
            ("sintegers.s_is_sum_of_squares", sintegers.s_is_sum_of_squares, lambda a, r: r.kind.value),
            ("verify.run_claims", verify.run_claims, None),
            ("verify.reports_to_jsonl", verify.reports_to_jsonl, lambda a, r: len(r.encode())),
        ]
        targets += [(f"verify.{fn}", getattr(verify, fn), None) for fn in CLAIM_FUNCTIONS]
        if decompose._compiled is not None:
            targets.append(("speedups.run_search", decompose._compiled.run_search, kernel("c")))
        # A generator's work happens while it is consumed; verify always
        # consumes it whole, so the span materializes it.
        scan = verify.scan_totally_positive
        targets.append((
            "quadfield.scan_totally_positive",
            functools.wraps(scan)(lambda ctx, bound: list(scan(ctx, bound))),
            lambda a, r: (a[0].D, len(r)),
        ))
        modules = [m for n, m in list(sys.modules.items()) if n == "soslab" or n.startswith("soslab.")]
        for name, fn, attribute in targets:
            wrapper = self.wrap(name, fn, attribute)
            original = scan if name == "quadfield.scan_totally_positive" else fn
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        post_init = quadfield.RingContext.__post_init__
        quadfield.RingContext.__post_init__ = self.wrap("quadfield.RingContext", post_init)

    def engine(self) -> str:
        """The kernel(s) that ran, as the kernel wrappers saw them."""
        ran = [e for e, n in (("python", "pysearch"), ("c", "speedups")) if self.calls[f"{n}.run_search"]]
        return "+".join(ran) or "none"

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans (cli.* and trace.* are the caller's)."""
        n = len(self.spans)
        child = [0.0] * n
        flags = [0] * n
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                flags[i] = flags[parent] | _FLAG_OF.get(self.spans[parent][0], 0)
        total: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        attrs: Counter[str] = Counter()
        scanned: dict[int, int] = {}
        searches = Counter()
        for i, (name, start, end, _, _, attribute) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if name.endswith("run_search"):
                attrs[name + ".nodes"] += attribute[1]
                attrs[name + ".found"] += attribute[0] == 1
            elif name == "decompose.decompose_sos":
                attrs[attribute] += 1
                for flag in (_UNDER_LENGTH, _UNDER_SINT, _UNDER_CLAIMS):
                    searches[flag] += bool(flags[i] & flag)
            elif name == "sintegers.s_is_sum_of_squares":
                attrs["sint." + attribute] += 1
            elif name == "quadfield.scan_totally_positive":
                attrs[name] += attribute[1]
                scanned[attribute[0]] = max(scanned.get(attribute[0], 0), attribute[1])
            elif attribute is not None:
                attrs[name] += attribute

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        calls = self.calls
        claim_fns = [f"verify.{fn}" for fn in CLAIM_FUNCTIONS]
        elements = sum(scanned.values())
        out = {
            "quadfield.context_calls": calls["quadfield.RingContext"],
            "quadfield.context_s": total["quadfield.RingContext"],
            "quadfield.scan_elements": attrs["quadfield.scan_totally_positive"],
            "quadfield.scan_s": total["quadfield.scan_totally_positive"],
            "residues.calls": calls["residues.is_square_mod_two"],
            "residues.s": total["residues.is_square_mod_two"],
            "criteria.peters_calls": calls["criteria.peters_five_squares"],
            "criteria.peters_s": total["criteria.peters_five_squares"],
            "pysearch.cand_calls": calls["pysearch.generate_candidates"],
            "pysearch.cand_total": attrs["pysearch.generate_candidates"],
            "pysearch.cand_s": total["pysearch.generate_candidates"],
            "pysearch.search_calls": calls["pysearch.run_search"],
            "pysearch.search_s": total["pysearch.run_search"],
            "pysearch.nodes": attrs["pysearch.run_search.nodes"],
            "pysearch.nodes_per_s": ratio(attrs["pysearch.run_search.nodes"], total["pysearch.run_search"]),
            "pysearch.found_ratio": ratio(attrs["pysearch.run_search.found"], calls["pysearch.run_search"]),
            "speedups.search_calls": calls["speedups.run_search"],
            "speedups.search_s": total["speedups.run_search"],
            "speedups.nodes": attrs["speedups.run_search.nodes"],
            "decompose.sos_calls": calls["decompose.decompose_sos"],
            "decompose.sos_self_s": self_s["decompose.decompose_sos"],
            "decompose.found": attrs["found"],
            "decompose.exhausted": attrs["exhausted_none"],
            "decompose.budget_exceeded": attrs["budget_exceeded"],
            "decompose.length_calls": calls["decompose.pythagoras_length"],
            "decompose.length_s": total["decompose.pythagoras_length"],
            "decompose.searches_per_length": ratio(searches[_UNDER_LENGTH], calls["decompose.pythagoras_length"]),
            "sintegers.calls": calls["sintegers.s_is_sum_of_squares"],
            "sintegers.s": total["sintegers.s_is_sum_of_squares"],
            "sintegers.searches_per_call": ratio(searches[_UNDER_SINT], calls["sintegers.s_is_sum_of_squares"]),
            "sintegers.obstructed": attrs["sint.obstructed"],
            **{f"verify.claim_s.{claim}": total[f"verify.{fn}"] for fn, claim in CLAIM_FUNCTIONS.items()},
            "verify.self_s": sum(self_s[name] for name in ["verify.run_claims", *claim_fns]),
            "verify.searches": searches[_UNDER_CLAIMS],
            "verify.elements": elements,
            "verify.searches_per_element": ratio(searches[_UNDER_CLAIMS], elements),
            "verify.jsonl_s": total["verify.reports_to_jsonl"],
            "verify.jsonl_bytes": attrs["verify.reports_to_jsonl"],
        }
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")
