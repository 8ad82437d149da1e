#!/usr/bin/env python3
"""End-to-end TransER benchmark: build, run one workload, print the result.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload biblio_exact --seed 1 --seconds 40 --trace 0

The first run configures and builds the library and the benchmark binary
with CMake into .bench_build/e2ebench (a Release build; later runs rebuild
only what changed). Build output goes to stderr. The binary's stdout is
passed through, so the last stdout line is its JSON result. Scratch and
temporary files live under .bench_build/ and are removed when the run ends.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
WORKLOADS = ("biblio_exact", "demo_ann")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no TransER sources (src/CMakeLists.txt) beside the benchmark",
              file=sys.stderr)
        return 1
    # Compilers and the benchmark keep their temporary files inside the checkout.
    tmpdir = os.path.join(BUILD_ROOT, "tmp-%d" % os.getpid())
    workdir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    env = dict(os.environ, TMPDIR=tmpdir)
    try:
        os.makedirs(tmpdir, exist_ok=True)
        binary = build(env)
        result = subprocess.run(
            [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
             "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
             "--workdir=" + workdir],
            stdout=subprocess.PIPE, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.SubprocessError) as error:
        print("e2ebench: %s" % error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(tmpdir, ignore_errors=True)
    sys.stdout.buffer.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
