"""One iteration of one workload, in a process of its own.

Usage (run.py starts it; the checkout root is the working directory):

    python3 perfbench/worker.py --workload W --seed N --work DIR
        --spawned-at T [--trace] [--setup-only]

Prints one JSON object as the last line of standard output.  ``--spawned-at``
is the parent's ``time.monotonic()`` just before it started this process, so
setup time covers interpreter start, imports and input construction.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ksgrowup
    if Path(ksgrowup.__file__).resolve().parent != SRC / "ksgrowup":
        raise SystemExit(f"ksgrowup imported from {ksgrowup.__file__}, not {SRC}")
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    work = Path(args.work)
    inputs = workloads.prepare(args.workload, args.seed, work)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wall0, cpu0 = time.perf_counter(), time.process_time()
    checks, artifacts, findings = workloads.execute(args.workload, args.seed, inputs)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "checks": checks.items,
        "artifacts": artifacts, "findings": findings,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        summary = tracing.Summary(tracer)
        metrics = summary.metrics(args.workload)
        metrics["serialize.bytes"] = {"value": findings["artifact_bytes"], "unit": "B"}
        result["layers"] = metrics
        result["spans"] = summary.spans_table()
        tracer.write_spans(work / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
