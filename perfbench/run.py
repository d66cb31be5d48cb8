#!/usr/bin/env python3
"""Build POPS and the perfbench program from source, then run one workload.

    python3 perfbench/run.py --workload iscas-grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The build goes to .bench_build/ (reused by
later runs); build output goes to stderr so that the last line of stdout is
the result line of perfbench. Workloads and metrics: perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("iscas-grid", "synth-multivt", "fleet-replay")
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "pops"))):
        sys.exit("perfbench: the POPS sources (CMakeLists.txt, src/pops) are "
                 "not next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "3",
                    "--target", "perfbench", "pops_serve"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build()
    work_dir = os.path.join(ROOT, ".bench_build", "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve-bin", os.path.join(BUILD, "pops", "pops_serve"),
           "--work-dir", work_dir]
    # Own process group: on a timeout the fleet's worker processes go down
    # with perfbench.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
