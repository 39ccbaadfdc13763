#!/usr/bin/env python3
"""Build and run the RSEP simulator benchmark.

    python3 perfbench/run.py --workload fig4-live --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
simulator library and the benchmark into .bench_build/perfbench (Release);
later runs only rebuild what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 175

# Environment overrides the simulator reads at config construction; the
# benchmark pins every size itself and must not inherit them.
SCRUBBED_ENV = ("RSEP_SIM_SCALE", "RSEP_CHECKPOINTS", "RSEP_JOBS", "RSEP_FAULT")


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no simulator sources next to " + HERE,
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    if not build(env):
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + [
        "--work-dir", os.path.join(BUILD, "run")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
