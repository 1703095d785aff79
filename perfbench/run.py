#!/usr/bin/env python3
"""colavoid benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload adaptive_us --seed 0 --seconds 8 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json at the root of
the checkout; perfbench/README.md explains them.  Every workload runs in
worker processes (worker.py) with the BLAS thread count fixed at 1.

--trace 0  end-to-end metrics.  Set-up runs in several fresh processes and
           its median is reported; the timed part repeats in one process
           as often as fits in --seconds (at least once; twice on
           adaptive_us, three times on synth_sweep).  run_s and
           queries_per_s are medians over the repetitions, the interval
           metrics medians and tails over the intervals of all of them.
--trace 1  per-layer metrics from one traced run, plus the tracing overhead
           against an untraced run of the same seed in the same invocation.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when a correctness check
fails, and no result is printed when a worker cannot run at all.
"""

from __future__ import annotations

import argparse
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_runs")
#: Set-up samples per run: fresh processes, median reported.  The trace
#: generation of static_rw makes its set-up expensive.
SETUPS = {"static_rw": 3}
DEFAULT_SETUPS = 5
DEADLINE_S = 170.0
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


def spawn(mode, args, workdir, deadline):
    """Run worker.py once; returns (result dict, setup seconds measured from
    just before the process started)."""
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir, "--result", result_path]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, **WORKER_ENV), cwd=ROOT,
                              stdout=sys.stderr, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    return result, result["setup_end"] - started


def machine_record(worker_result):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    blas = worker_result["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": worker_result["numpy"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(WORKER_ENV["OPENBLAS_NUM_THREADS"]),
        "commit": commit, "src_sha256": src.hexdigest(),
    }


def tally(reps, checks):
    """(attempted, failed, failed check lines): every operation the
    repetitions served or left unserved, and every check."""
    attempted = sum(r["operations"] for r in reps)
    failed = sum(r["unserved"] for r in reps)
    checks = [c for r in reps for c in r["checks"]] + checks
    lines = [f"check failed: {name}: {detail}" for name, ok, detail in checks if not ok]
    return attempted + len(checks), failed + len(lines), lines


def same_outputs(a, b):
    """Artifacts, outcomes and, on the sweep, every chosen controller agree."""
    return all(a[key] == b[key] for key in ("fingerprints", "outcomes", "kappas"))


def end_to_end(args, workdir, deadline):
    setups = []
    for k in range(SETUPS.get(args.workload, DEFAULT_SETUPS) - 1):
        setups.append(spawn("setup", args, os.path.join(workdir, f"setup{k}"), deadline)[1])
    result, setup_s = spawn("untraced", args, os.path.join(workdir, "main"), deadline)
    setups.append(setup_s)
    reps = result["reps"]
    checks = []
    if len(reps) > 1:
        checks.append(["repeat_identical", all(same_outputs(reps[0], r) for r in reps[1:]),
                       f"{len(reps)} repetitions of seed {args.seed}"])

    def med(key):
        return statistics.median(r[key] for r in reps)

    timing = result["timing"]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": med("run_s"),
        "queries_per_s": med("queries_per_s"),
        "step_p50_us": timing["step_p50_us"],
        "step_tail_us": timing["step_tail_us"],
        "stall_s": timing["stall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        **reps[0]["outcomes"],
    }
    info = {"setup_samples_s": setups, "rep_run_s": [r["run_s"] for r in reps],
            "interval_samples": timing["samples"], "stall_max_s": timing["stall_max_s"],
            "fingerprints": reps[0]["fingerprints"]}
    return result, reps, checks, metrics, info


def per_layer(args, workdir, deadline):
    untraced, _ = spawn("untraced", args, os.path.join(workdir, "main"), deadline)
    traced, _ = spawn("traced", args, os.path.join(workdir, "traced"), deadline)
    reps = untraced["reps"] + traced["reps"]
    checks = [["traced_matches_untraced", same_outputs(untraced["reps"][0], traced["reps"][0]),
               "artifacts and outcomes of the traced run against the untraced run"]]
    untraced_s = statistics.median(r["run_s"] for r in untraced["reps"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["reps"][0]["run_s"] - untraced_s
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
    shutil.move(os.path.join(workdir, "traced", "spans.csv"), spans)
    # span_accounted_s is harness.self_s plus the child spans of
    # run_experiment; beside traced_run_s it shows what the spans account for.
    info = {"untraced_run_s": untraced_s, "traced_run_s": traced["reps"][0]["run_s"],
            "span_accounted_s": traced["span_accounted_s"],
            "spans_file": os.path.relpath(spans, ROOT),
            "fingerprints": untraced["reps"][0]["fingerprints"]}
    return untraced, reps, checks, metrics, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(OUT, f"work-{args.workload}-seed{args.seed}-{os.getpid()}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        measure = per_layer if args.trace else end_to_end
        worker_result, reps, checks, values, info = measure(args, workdir, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, lines = tally(reps, checks)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_record(worker_result), **info}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2)
    for key, value in record.items():
        print(f"{key}: {json.dumps(value)}")
    for line in lines:
        print(line)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
