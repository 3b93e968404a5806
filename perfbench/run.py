#!/usr/bin/env python3
"""Runs one workload of the flexstream benchmark and prints its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call builds the benchmark binary, flexbench (perfbench/CMakeLists.txt, which
compiles the flexstream library from ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only when a source file
changed. Trace files and durable snapshot stores go to .bench_out.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics,
each as {"value": ..., "unit": ...}. Everything else goes to standard error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIBRARY = os.path.join(ROOT, "src")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_digest():
    """Digest of every file flexbench is built from."""
    digest = hashlib.sha256()
    for top in (HERE, LIBRARY):
        for directory, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith((".cc", ".h", ".txt")):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def build():
    """Builds flexbench when missing or stale; returns its path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    binary = os.path.join(build_dir, "flexbench")
    stamp = os.path.join(build_dir, "source.sha256")
    digest = source_digest()
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return binary
    log("building flexbench in", build_dir)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--variant", default="",
                        help="nexmark_hmts only: gts or batch64 (reference figures)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not os.path.exists(os.path.join(LIBRARY, "CMakeLists.txt")):
        log("no flexstream sources at", LIBRARY)
        return 2
    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    if args.selftest:
        return subprocess.run([binary, "--selftest", "--out-dir", out_dir],
                              timeout=RUN_TIMEOUT_S).returncode

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log("unknown workload", args.workload, "- one of", ", ".join(workloads))
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.variant:
        cmd += ["--variant", args.variant]
    # Set-up time is measured from here: process start, graph build,
    # sharding, Configure and Start.
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if not lines:
        log("flexbench printed no result (exit code %d)" % done.returncode)
        return 1
    raw = json.loads(lines[-1])
    log("flexbench:", lines[-1])
    if raw["error"]:
        log("check failed:", raw["error"])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            log("the run did not measure", m["name"])
            return 1
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if done.returncode == 0 and raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
