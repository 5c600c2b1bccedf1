#!/usr/bin/env python3
"""Build and run the avtk benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the avtk libraries from src/) into the directory
named by CARGO_TARGET_DIR, default .bench_build; later runs only re-check
the build. Build output goes to stderr, so the benchmark's own result line
stays the last line of stdout. Exits non-zero, without a result line, when
the sources or the build are missing.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_cold", "ingest_live", "batch_run")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "protocol.h")):
        sys.exit("perfbench: no avtk sources next to perfbench/ (run from a full checkout)")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "avbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "avbench")
    if not os.access(binary, os.X_OK):
        sys.exit("perfbench: build produced no avbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    # The child writes straight to our stdout; we wait for it to end.
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
