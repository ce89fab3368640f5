"""ksgrowup benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload {pipeline,certify,radial_w}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
The load is one client in a closed loop: each iteration is a fresh worker
process (perfbench/worker.py) that imports the package, builds the inputs,
runs the workload once and checks its outputs; the next starts when it has
ended.  BLAS and OpenMP are pinned to one thread.  Iterations repeat while
another one, as long as the last, still fits in ``--seconds`` (at least one
untraced iteration, or one untraced and one traced with ``--trace 1``).

--trace 0 reports the end-to-end metrics: medians over iterations of
wall_s, cpu_s and peak_rss_mb, and setup_s as the median over every worker
start, including SETUP_SAMPLES workers that only set up.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (counts must repeat exactly) plus
trace.overhead_s, the traced minus the untraced median wall time.

Every check of every iteration counts in ``attempted``/``failed``; their
ratio is the failure fraction.  Scientific artifacts must also be
byte-identical to those of the first run of the same code and seed, whose
digests are kept under .perfbench/.  The last line of standard output is
the result object; the line before it is the full record (environment,
checks, findings, span table), also written to .perfbench/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("pipeline", "certify", "radial_w")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 2
WORKER_TIMEOUT_S = 150
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(),
            "threads": {k: os.environ[k] for k in THREAD_PINS}}


def _code_digest() -> str:
    """Digest of the package and the workload definitions."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _spawn(args, work: Path, traced: bool, setup_only: bool) -> dict:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work)]
    cmd += ["--trace"] if traced else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = work / "spans.json"
    if spans.exists():
        spans.replace(STATE / f"spans-{args.workload}-seed{args.seed}.json")
    shutil.rmtree(work)
    return result


def _artifact_check(args, code: str, artifacts: dict) -> list:
    """Compare digests with the first run of this code and seed."""
    record = STATE / "artifacts" / f"{args.workload}-seed{args.seed}-{code}.json"
    if not record.exists():
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(artifacts, sort_keys=True))
        tmp.replace(record)
        return ["artifacts.identical_to_first_run", True, "first run: recorded"]
    first = json.loads(record.read_text())
    differ = sorted(k for k in first.keys() | artifacts.keys()
                    if first.get(k) != artifacts.get(k))
    return ["artifacts.identical_to_first_run", not differ,
            f"differ: {differ}" if differ else f"{len(first)} identical"]


def _layer_metrics(traced: list, untraced: list) -> tuple[dict, list]:
    """Median per-layer times over traced iterations; counts must repeat."""
    problems = []
    metrics = {}
    for name, first in traced[0]["layers"].items():
        values = [r["layers"][name]["value"] for r in traced]
        entry = dict(first)
        if first["value"] is not None and first["unit"] == "s":
            entry["value"] = statistics.median(values)
        elif len(set(values)) != 1:
            problems.append(["layers.counts_repeat." + name, False, f"{values}"])
        metrics[name] = entry
    metrics["trace.overhead_s"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced), "unit": "s"}
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "ksgrowup" / "__init__.py").is_file():
        print(f"error: no src/ksgrowup under {ROOT}; run from a checkout root",
              file=sys.stderr)
        return 2
    for key in THREAD_PINS:
        os.environ[key] = "1"
    # users run compiled bytecode; compile once, before anything is timed
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            print(f"error: cannot compile {tree}", file=sys.stderr)
            return 2
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{args.workload}-{os.getpid()}"
    code = _code_digest()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "code": code, "environment": _environment(),
              "loadavg_start": os.getloadavg()}

    start = time.monotonic()
    setups = []
    if not args.trace:
        setups = [_spawn(args, work, False, True)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
    runs = []
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        t0 = time.monotonic()
        result = _spawn(args, work, traced, False)
        result["traced"] = traced
        result["iteration_s"] = time.monotonic() - t0
        result["checks"].append(_artifact_check(args, code, result.pop("artifacts")))
        runs.append(result)
        elapsed = time.monotonic() - start
        enough = len(runs) >= (2 if args.trace else 1)
        if enough and elapsed + result["iteration_s"] > args.seconds:
            break
    record["loadavg_end"] = os.getloadavg()

    checks = [c for r in runs for c in r["checks"]]
    if args.trace:
        traced_runs = [r for r in runs if r["traced"]]
        metrics, problems = _layer_metrics(
            traced_runs, [r for r in runs if not r["traced"]])
        checks += problems
        record["spans"] = traced_runs[-1]["spans"]
    else:
        setups += [r["setup_s"] for r in runs]
        metrics = {name: {"value": statistics.median(
                       setups if name == "setup_s" else [r[name] for r in runs]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if declared != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ declared)} are reported or "
              "declared in BENCHMARK.json but not both", file=sys.stderr)
        return 2
    failed = sum(1 for c in checks if not c[1])
    record.update({
        "versions": runs[0]["versions"], "iterations": len(runs),
        "setup_samples": setups,
        "per_iteration": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "cpu_s",
                                              "peak_rss_mb", "iteration_s")}
                          for r in runs],
        "findings": runs[0]["findings"], "checks": checks,
        "fail_frac": failed / len(checks)})
    for c in checks:
        if not c[1]:
            print(f"FAILED {c[0]}: {c[2]}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}
    line = json.dumps({"record": record, "result": result})
    (STATE / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line)
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
