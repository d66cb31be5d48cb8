#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and metric declarations.

    python3 perfbench/selftest.py [--workloads iscas-grid,synth-multivt,fleet-replay]

Runs every workload twice untraced and twice traced at the smallest size
(--seconds 1) with one seed, then checks that
  * every run exits 0 with correct=true and failed=0;
  * the deterministic end-to-end metrics (met_frac, area_ratio, power_uw,
    leakage_uw) and every per-layer count match exactly between the two
    runs of a pair, as does the input digest;
  * every metric printed appears in BENCHMARK.json with the same unit,
    and the metric sets are exactly the declared ones.
Exits 1 on the first violated check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("met_frac", "area_ratio", "power_uw", "leakage_uw")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("selftest: %s trace=%d failed (exit %d):\n%s" %
                 (workload, trace, proc.returncode, proc.stderr[-3000:]))
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default="iscas-grid,synth-multivt,fleet-replay")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m for m in bench["end_to_end"]},
                1: {m["name"]: m for m in bench["per_layer"]}}
    names = {w["name"] for w in bench["workloads"]}

    for workload in args.workloads.split(","):
        if workload not in names:
            sys.exit("selftest: %s is not a workload of BENCHMARK.json" % workload)
        for trace in (0, 1):
            (info_a, a), (info_b, b) = run(workload, trace), run(workload, trace)
            for res in (a, b):
                if not res["correct"] or res["failed"] != 0:
                    sys.exit("selftest: %s trace=%d reported failures" % (workload, trace))
                if set(res["metrics"]) != set(declared[trace]):
                    sys.exit("selftest: %s trace=%d prints %s, BENCHMARK.json declares %s" %
                             (workload, trace, sorted(res["metrics"]),
                              sorted(declared[trace])))
                for name, m in res["metrics"].items():
                    if m["unit"] != declared[trace][name]["unit"]:
                        sys.exit("selftest: %s unit %s != declared %s" %
                                 (name, m["unit"], declared[trace][name]["unit"]))
            if info_a["input_digest"] != info_b["input_digest"]:
                sys.exit("selftest: %s input digest differs between runs" % workload)
            # Per-layer: every count; times and the time-derived coverage
            # share vary run to run.
            exact = DETERMINISTIC if trace == 0 else [
                n for n, m in declared[1].items()
                if m["unit"] != "ms" and n != "trace.coverage_min"]
            for name in exact:
                if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                    sys.exit("selftest: %s trace=%d %s differs: %r vs %r" %
                             (workload, trace, name, a["metrics"][name]["value"],
                              b["metrics"][name]["value"]))
            print("selftest: %s trace=%d OK (%d metrics, %d exact)" %
                  (workload, trace, len(a["metrics"]), len(exact)))
    print("selftest: OK")


if __name__ == "__main__":
    main()
