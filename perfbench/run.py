"""hprelu benchmark: time to a certified network, serving throughput, and
per-module cost.

    python3 perfbench/run.py --workload eval-2d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10 --out .perfbench/all.json

One workload per call prints, as its last stdout line, one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  ``all`` runs
every workload untraced and traced, each in a fresh process, prints every
metric by name and unit, and states the tracing overhead.

The workload runs in a child process (perfbench/worker.py) started with
single-threaded BLAS, so that its start time, peak memory and thread
setting belong to it alone.  set-up is timed SETUP_PROBES more times in
further fresh processes and setup_s is the median.  Only the standard
library is imported here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build-3d", "eval-2d")
SETUP_PROBES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    # same set and dict orders in every run, so builds take the same path
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def spawn(args, echo):
    """Run worker.py to completion; return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t-spawn"]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + [repr(t_spawn)], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, echo=True):
    out = spawn(["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)], echo)
    if echo:
        print("build " + json.dumps(out["build"]))
        print("env " + json.dumps(out["env"]))
        print("raw " + json.dumps(out["raw"]))
    metrics = out["metrics"]
    if not trace:
        setups = [out["setup_s"]] + [
            spawn(["--probe-setup"], False)["setup_s"]
            for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    return result, out["build"], out["env"], out["raw"]


def run_all(seed, seconds, out_path):
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain, build, env, raw = run_workload(workload, seed, seconds, 0,
                                              echo=False)
        traced = run_workload(workload, seed, seconds, 1)[0]
        # both raw wall seconds: traced runs are not speed-normalized
        overhead = traced["metrics"]["trace.build_s"]["value"] - raw["build_s"]
        report["workloads"][workload] = {
            "end_to_end": plain, "per_layer": traced, "build": build,
            "env": env, "raw": raw, "trace_overhead_build_s": overhead}
        print(f"== {workload}: correct={plain['correct'] and traced['correct']}"
              f" attempted={plain['attempted']} failed={plain['failed']}")
        for name, m in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        print(f"  tracing overhead on build_s: {overhead:+.3f} s")
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(json.dumps(report, indent=1) + "\n")
    return all(w["end_to_end"]["correct"] and w["per_layer"]["correct"]
               for w in report["workloads"].values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write the results here")
    args = ap.parse_args()
    if not (ROOT / "src" / "hprelu" / "__init__.py").is_file():
        sys.exit(f"hprelu sources not found under {ROOT / 'src'}")
    if args.workload == "all":
        return 0 if run_all(args.seed, args.seconds, args.out) else 1
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
