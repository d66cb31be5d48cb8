#!/usr/bin/env bash
# Intra-circuit timing smoke: the PR-8 engine work end to end.
#
#  1. bench_intra_circuit must run and emit valid JSON showing: the
#     incremental slack update no slower than a cold sweep at dirty=1
#     (bit-identical values), and at least one gated K-path
#     re-enumeration skip on the zero-progress protocol run with NO
#     spurious skips on the progress run.
#  2. A 60k-gate pops_gen netlist is swept end to end; the --jsonl
#     --no-runtimes stream must hold one valid record.
#
# Shared by scripts/ci.sh and the GitHub workflow.
# Usage: scripts/smoke_intra_circuit.sh <build-dir>
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: smoke_intra_circuit.sh <build-dir>}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

"${BUILD_DIR}/bench_intra_circuit" "${SMOKE_DIR}/bench.json" > /dev/null

python3 - "${SMOKE_DIR}/bench.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)  # must be valid JSON
assert doc["experiment"] == "intra_circuit"

slack = doc["slack_incremental"]
assert slack["identical"] is True, "incremental slacks diverged from cold"
# Timing smoke, so the bound is conservative: a dirty=1 slack update must
# never cost more than a full cold backward sweep.
assert slack["ms_incremental"] <= slack["ms_cold"], (
    f"incremental slack update slower than cold "
    f"({slack['ms_incremental']:.3f} vs {slack['ms_cold']:.3f} ms)")

gating = doc["kpath_gating"]
assert gating["cached_skips"] >= 1, "no gated re-enumeration skip"
assert gating["spurious_skips"] == 0, (
    f"{gating['spurious_skips']} skip(s) on a run that made progress")

print("bench_intra_circuit smoke OK: "
      f"slack {slack['speedup']:.1f}x@dirty=1, "
      f"{gating['cached_skips']} gated skip(s)")
PY

# Generated-netlist sweep: a large netlist through the whole pipeline.
"${BUILD_DIR}/pops_gen" --gates 60000 --seed 7 \
    --out "${SMOKE_DIR}/gen.bench" 2> /dev/null
"${BUILD_DIR}/pops_sweep" --tc 0.98 --no-cache --jsonl --no-runtimes \
    --allow-unmet "${SMOKE_DIR}/gen.bench" --out "${SMOKE_DIR}/gen.json" \
    > "${SMOKE_DIR}/gen.jsonl" 2> /dev/null
python3 - "${SMOKE_DIR}/gen.jsonl" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    records = [json.loads(line) for line in f if line.strip()]
assert len(records) == 1, f"expected 1 record, got {len(records)}"
PY
echo "pops_gen sweep smoke OK: 60k-gate netlist swept"
