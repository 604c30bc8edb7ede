#!/usr/bin/env python3
"""Build and run the end-to-end DFI proxy benchmark.

    python3 perfbench/run.py --workload new_flows --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is its own CMake package
(perfbench/CMakeLists.txt) that compiles the repository's src/ tree; it is
built in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative
to the repository root). Build output goes to standard error; the
benchmark's own report goes to standard output, whose last line is the JSON
result. The exit code is the benchmark's: 0 only when every answer was
correct. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("new_flows", "policy_churn", "relay")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cache_source(build):
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(build):
    if cache_source(build) not in (None, HERE):
        build = build + "-" + "%08x" % zlib.crc32(HERE.encode())
    if cache_source(build) is None:
        configure = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build, "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build, "dfi_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "dfi_system.h")):
        print("perfbench: the repository's src/ tree is missing; nothing to build",
              file=sys.stderr)
        return 2
    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(os.path.dirname(binary), "spans-%s.tsv" % args.workload)
        if os.path.exists(spans):
            os.remove(spans)
        command += ["--spans-out", spans]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
