#!/usr/bin/env bash
# Trace smoke: run pops_sweep with --trace on a builtin circuit and
# assert (a) the trace file is valid Chrome trace-event JSON with > 0
# complete ("ph": "X") events, (b) it carries spans from every layer of
# the stack (pipeline pass -> sweep point -> STA -> cache -> serialize),
# (c) a point that reaches the protocol traces its inner layers,
# (d) pops_profile digests it into a non-empty breakdown table, and
# (e) pops_profile --diff compares it against a second trace span by span.
# Shared by scripts/ci.sh and the GitHub workflow.
# Usage: scripts/smoke_trace.sh <build-dir>
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: smoke_trace.sh <build-dir>}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

"${BUILD_DIR}/pops_sweep" --tc 0.9 --allow-unmet \
    --trace "${SMOKE_DIR}/trace.json" --out /dev/null @c432 > /dev/null

python3 - "${SMOKE_DIR}/trace.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)  # must be valid JSON
events = doc["traceEvents"]
complete = [e for e in events if e.get("ph") == "X"]
assert len(complete) > 0, "trace has no complete events"
for e in complete:
    assert isinstance(e["name"], str) and e["ts"] >= 0 and e["dur"] >= 0, e
names = {e["name"] for e in complete}
for layer in ("optimizer/point", "cache/lookup", "serialize/point",
              "sweep/run"):
    assert layer in names, f"trace is missing a '{layer}' span: {sorted(names)}"
assert any(n.startswith("pass/") for n in names), sorted(names)
assert any(n.startswith("sta/") for n in names), sorted(names)
print(f"trace smoke OK: {len(complete)} events, {len(names)} span names")
PY

# A point that reaches the sizing protocol (c432 at Tc 0.65) shows the
# protocol's inner layers: bounds, buffer insertion, sizing solves and
# write-back, each sizing span carrying its sweep count.
"${BUILD_DIR}/pops_sweep" --tc 0.65 --allow-unmet \
    --trace "${SMOKE_DIR}/protocol.json" --out /dev/null @c432 > /dev/null
python3 - "${SMOKE_DIR}/protocol.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    complete = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
names = {e["name"] for e in complete}
for span in ("protocol/round", "protocol/bounds", "protocol/buffers",
             "protocol/size", "protocol/write_back"):
    assert span in names, f"protocol trace is missing '{span}': {sorted(names)}"
sizes = [e for e in complete if e["name"] == "protocol/size"]
assert all(e["args"]["sweeps"] >= 1 for e in sizes), sizes[:3]
print(f"protocol trace OK: {len(sizes)} sizing solves, "
      f"{sum(e['args']['sweeps'] for e in sizes)} sweeps")
PY

"${BUILD_DIR}/pops_profile" "${SMOKE_DIR}/trace.json" \
    > "${SMOKE_DIR}/profile.txt"
grep -q "^span\|span " "${SMOKE_DIR}/profile.txt" || {
  echo "pops_profile printed no table header"; cat "${SMOKE_DIR}/profile.txt"
  exit 1
}
grep -q "optimizer/point" "${SMOKE_DIR}/profile.txt" || {
  echo "pops_profile breakdown is missing the sweep-point span"
  cat "${SMOKE_DIR}/profile.txt"; exit 1
}
echo "pops_profile smoke OK:"
head -3 "${SMOKE_DIR}/profile.txt"

# Two runs of one spec: same spans and call counts, so every d_count is +0.
"${BUILD_DIR}/pops_sweep" --tc 0.9 --allow-unmet \
    --trace "${SMOKE_DIR}/trace2.json" --out /dev/null @c432 > /dev/null
"${BUILD_DIR}/pops_profile" --diff "${SMOKE_DIR}/trace.json" \
    "${SMOKE_DIR}/trace2.json" > "${SMOKE_DIR}/diff.txt"
python3 - "${SMOKE_DIR}/diff.txt" <<'PY'
import sys
lines = open(sys.argv[1]).read().splitlines()
head = next(i for i, l in enumerate(lines) if l.startswith("span "))
cols = lines[head].split()
assert cols[:4] == ["span", "count_a", "count_b", "d_count"], cols
assert "d_total_ms" in cols and "d_self_ms" in cols, cols
rows = [l.split() for l in lines[head + 1:] if l.strip()]
names = {r[0] for r in rows}
assert "optimizer/point" in names and "sweep/run" in names, sorted(names)
for r in rows:
    assert len(r) == len(cols), r
    assert r[1] == r[2] and r[3] == "+0", f"span counts differ: {r}"
print(f"pops_profile --diff smoke OK: {len(rows)} spans")
PY
echo "trace smoke OK"
