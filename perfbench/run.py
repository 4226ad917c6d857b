#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload svc-read --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It configures and builds this
directory's CMake package (the library tree in src/, the register daemon
in tools/compreg_server.cpp and the perfbench binary in perfbench/src)
into a directory of its own under $CARGO_TARGET_DIR, or under
.bench_build when that is unset, then runs it. Standard output ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json with
--trace 0 and its per-layer metrics with --trace 1. A failed build, a
failed correctness check, or a result that does not match BENCHMARK.json
exits non-zero without a result line. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc-read", "native-prmw")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    """The build tree of this checkout.

    A CMake build tree belongs to the source tree that configured it. So
    checkouts that share one target directory each build in a
    sub-directory keyed by their own path, and never run a build of
    another checkout's sources.
    """
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")
    key = hashlib.sha256(HERE.encode()).hexdigest()[:16]
    return os.path.join(base, "perfbench-" + key)


def build(tree):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library tree at src/ next to perfbench/; nothing to build")
        return False
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", tree,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            log("cmake configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(
        ["cmake", "--build", tree, "-j", jobs,
         "--target", "perfbench", "compreg_server"],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        log("build failed")
        return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def valid(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if result["correct"] is not True:
        return "the run's correctness checks failed"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return key + " is not a whole number"
    if result["attempted"] < 1:
        return "nothing was attempted"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(expected.items()))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    tree = build_dir()
    if not build(tree):
        return 1

    cmd = [os.path.join(tree, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench exited with %d" % proc.returncode)
        sys.stderr.write(proc.stdout)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench's last line is not JSON")
        return 1
    problem = valid(result, expected_metrics(args.trace))
    if problem:
        log(problem)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
