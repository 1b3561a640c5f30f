#!/usr/bin/env python3
"""Build and run the ccAI benchmark.

    python3 ccbench/run.py --workload {llm-decode,secure-copy,serve-fleet}
                           --seed N --seconds S --trace {0,1}

Run from the repository root. The first run configures and builds the
simulator libraries and the benchmark binary (Release) under
.bench_build/ (or $CARGO_TARGET_DIR); later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The exit code is the binary's: 0 only
when every output check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("llm-decode", "secure-copy", "serve-fleet")
# The binary stops after --seconds plus its set-up and checks; this
# only bounds a run that hangs.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ccbench")


def build(bdir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("ccbench: simulator sources (src/) not found next to "
                 "the benchmark; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "ccbench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("ccbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "ccbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--corrupt-compare", action="store_true",
                    help="test hook: corrupt one expected readback so the "
                         "compare must count a failed operation")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in 1..3600")

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    if args.corrupt_compare:
        cmd.append("--corrupt-compare")
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("ccbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
