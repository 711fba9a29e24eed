#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload harvest|omniscient|whatif|fleet \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the library sources one
directory up) into .bench_build/perfbench; later calls only re-check the
build.  The benchmark binary prints one line per metric and, last, one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
measures the workload's end-to-end metrics; --trace 1 is the traced run,
which prints every per-layer metric.  See perfbench/README.md.
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
TIMEOUT_S = 170


def build():
    """Configure once, then build; build output goes to stderr."""
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["harvest", "omniscient", "whatif", "fleet"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    tmp = os.path.join(BUILD, "run")
    os.makedirs(tmp, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--istc", os.path.join(BUILD, "istc", "src", "cli", "istc"),
           "--tmp", tmp]
    # Own process group, so a timeout also takes down any daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: timed out after %d s" % TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("perfbench: no result line (exit code %d)" % proc.returncode)
    if proc.returncode != 0:
        sys.exit("perfbench: exit code %d" % proc.returncode)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
