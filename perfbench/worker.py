"""One workload in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE DS [setup-only]

DS is the comma-separated list of discriminants the workload uses.  The
worker times `import soslab` plus building those RingContexts before it
imports anything else, so the benchmark's own imports cannot pre-load
modules soslab needs.  It prints one JSON object: the raw samples and
verdicts, which run.py checks and reduces to metrics.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def timed_setup(ds):
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import soslab

    contexts = {d: soslab.RingContext(d) for d in ds}
    return time.perf_counter() - start, soslab, contexts


def main(argv):
    workload, seed, seconds, trace, ds = argv[:5]
    setup_s, soslab, contexts = timed_setup([int(d) for d in ds.split(",")])

    import json
    import resource

    here = os.path.realpath(os.path.dirname(soslab.__file__))
    if here != os.path.realpath(os.path.join(SRC, "soslab")):
        print(f"soslab resolves to {here}, not this checkout's src/", file=sys.stderr)
        return 2
    if argv[5:] == ["setup-only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    run = getattr(workloads, workload)
    payload = run(soslab, contexts, int(seed), float(seconds), trace == "1")
    payload["setup_s"] = setup_s
    payload["peak_rss_kb"] = payload.get("peak_rss_kb") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload["provenance"] = workloads.provenance(soslab, payload.pop("engine", None))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
