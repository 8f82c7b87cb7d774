#!/usr/bin/env python3
"""Build the trial-throughput benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
simulator library from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
incrementally. The driver's last output line is one JSON object with the
keys correct, attempted, failed and metrics; this script prints it as its
own last line and exits 0, or exits 1 without a result when the build or
the run fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("centralized", "distributed", "oblivious_batch")
RUN_TIMEOUT_S = 170


def fail(message, output=""):
    if output:
        sys.stderr.write(output if output.endswith("\n") else output + "\n")
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def call(cmd, timeout=None):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout


def configured_for(build_dir):
    """Source directory recorded in an existing CMake cache, if any."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/ (src/CMakeLists.txt)")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    home = configured_for(build_dir)
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(build_dir)
        home = None
    if home is None:
        code, out = call(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            fail("cmake configure failed", out)
    jobs = str(min(4, os.cpu_count() or 1))
    code, out = call(["cmake", "--build", build_dir, "--target",
                      "radio_perfbench", "-j", jobs])
    if code != 0:
        fail("build failed", out)
    return os.path.join(build_dir, "radio_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    binary = build()
    # Trials run on one thread: the library's OpenMP trial runner is not on
    # the timed path, and a single thread keeps runs comparable.
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode,
             proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no result line", proc.stdout + proc.stderr)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line", lines[-1])
    sys.stderr.write(proc.stderr)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
