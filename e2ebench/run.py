#!/usr/bin/env python3
"""Builds bdbms and the e2ebench program from source, then runs one workload.

    python3 e2ebench/run.py --workload <curation|sequence_search|durable_ingest>
                            --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) in the
default RelWithDebInfo configuration; later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
program's JSON result. Exits non-zero without a result when the sources
are missing, the build fails, or a check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("curation", "sequence_search", "durable_ingest")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(repo_root, "src", "CMakeLists.txt")):
        print("e2ebench: bdbms sources (src/) not found next to the "
              "benchmark", file=sys.stderr)
        return 1

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("e2ebench: build failed", file=sys.stderr)
            return 1

    program = os.path.join(build_dir, "e2ebench")
    run = subprocess.run([
        program, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--workdir", os.path.join(build_dir, "data"),
    ])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
