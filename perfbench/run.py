#!/usr/bin/env python3
"""RockFS benchmark: builds the program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload update_large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

The C++ program rockbench (perfbench/rockbench.cpp) does the measuring; this script
builds it with CMake, runs each workload in its own process, keeps the
metrics BENCHMARK.json names (end-to-end with --trace 0, per-layer with
--trace 1) and prints them as the last stdout line. It exits nonzero when a
correctness, determinism or trace gate fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["update_large", "small_mixed", "ransomware_recover"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once and rebuilds rockbench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "rockbench", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "rockbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(binary, workload, seed, seconds, trace):
    """Runs rockbench; returns its result object, or None if it printed none."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", os.path.join(build_dir(), "spans-%s-%d.json" % (workload, seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %ds" % (workload, RUN_TIMEOUT_S))
        return None
    sys.stderr.write(res.stderr)
    lines = [l for l in res.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log("perfbench: %s exited %d without a result" % (workload, res.returncode))
        return None
    result = json.loads(lines[-1])
    result["exit_code"] = res.returncode
    return result


def select(result, spec, trace):
    """The metrics BENCHMARK.json lists for this kind of run, with units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            raise KeyError("rockbench did not report " + m["name"])
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    return metrics


def table(workload, result, metrics):
    print("== %s (attempted %d, failed %d, gates %s)" % (
        workload, result["attempted"], result["failed"],
        " ".join("%s=%s" % kv for kv in sorted(result["gates"].items()))))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-34s %14.6g %s" % ("error_rate", result["metrics"]["error_rate"], "ratio"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {}
    ok = True
    for w in workloads:
        result = run_one(binary, w, args.seed, seconds, bool(args.trace))
        if result is None:
            return 1
        metrics = select(result, spec, bool(args.trace))
        table(w, result, metrics)
        ok = ok and result["exit_code"] == 0 and result["correct"]
        summary[w] = {"correct": bool(result["correct"]) and result["exit_code"] == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}
    if len(workloads) == 1:
        print(json.dumps(summary[workloads[0]]))
    else:
        print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
