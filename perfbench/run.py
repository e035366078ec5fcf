#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary into .bench_build/perfbench (Release);
later runs only rebuild what changed. Build output goes to stderr. The
binary's output is passed through: a metric listing, then one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names are checked against BENCHMARK.json (end_to_end for
--trace 0, per_layer for --trace 1). Each run also writes its full result
set record (host facts, resolved plans, metrics) to
.bench_build/results/<workload>-seed<n>-trace<t>.json, or under --results,
and a traced run writes its spans to .bench_build/traces/ as Chrome
trace-event JSON.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src", 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 2)
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 2)


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if traced else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results", default=os.path.join(ROOT, ".bench_build", "results"),
                    help="directory receiving the result set record")
    args = ap.parse_args()

    build()
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(args.results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result-file", os.path.join(args.results, tag + ".json")]
    if args.trace:
        cmd += ["--trace-file", os.path.join(traces, tag + ".json")]

    # Own session, so a timeout can stop the binary and any shard worker
    # processes it forked, and wait for them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"benchmark binary exited with status {proc.returncode}")

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    missing = set(declared_metrics(args.trace)) ^ set(result["metrics"])
    if missing:
        fail("metric set differs from BENCHMARK.json: " + ", ".join(sorted(missing)))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
