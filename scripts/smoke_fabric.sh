#!/usr/bin/env bash
# pops_fabric smoke: the distributed sweep fabric end to end. Starts a
# coordinator against TWO loopback worker daemons (journaled caches) and
# asserts (a) the merged --no-runtimes stream is BYTE-IDENTICAL (cmp, no
# scrubbing) to a single-daemon run of the same spec, (b) a second spec
# under the table delay-model backend runs on the same workers'
# contexts and merges byte-identically too, (c) after
# both workers restart from their journals, the warm rerun is again
# byte-identical AND entirely replayed — zero cache misses fleet-wide,
# counter-asserted through the coordinator's aggregated metrics —
# (d) the coordinator's merged trace contains worker-side sweep/run
# spans relayed over the wire, (e) a spec file naming a .bench path
# streams the same bytes as the positional run, and (f) out-of-range
# millisecond flags are rejected with a diagnostic.
# Shared by scripts/ci.sh and the GitHub workflow so the fixture and the
# assertions cannot drift.
# Usage: scripts/smoke_fabric.sh <build-dir>
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: smoke_fabric.sh <build-dir>}"

SMOKE_DIR="$(mktemp -d)"
declare -A PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "${pid}" 2>/dev/null || true; done
  rm -rf "${SMOKE_DIR}"
}
trap cleanup EXIT

cat > "${SMOKE_DIR}/c17.bench" <<'BENCH'
# c17 ISCAS-85
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
BENCH

# start_worker NAME PORT — 0 = ephemeral; the chosen port lands in
# PORT_<NAME>. Restarting on the recorded port keeps the worker's ring
# label (host:port) stable, which is what pins every point back onto the
# journal that already holds it.
start_worker() {
  local name="$1" port="$2"
  "${BUILD_DIR}/pops_serve" --port "${port}" \
      --cache-file "${SMOKE_DIR}/${name}.jnl" \
      > "${SMOKE_DIR}/${name}.out" 2> "${SMOKE_DIR}/${name}.err" &
  PIDS[${name}]=$!
  for _ in $(seq 1 50); do
    local got
    got="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
           "${SMOKE_DIR}/${name}.out")"
    if [[ -n "${got}" ]]; then
      eval "PORT_${name}=${got}"
      return 0
    fi
    sleep 0.1
  done
  echo "worker ${name} did not start"; cat "${SMOKE_DIR}/${name}.err"; exit 1
}

stop_worker() {
  local name="$1" port_var="PORT_$1"
  "${BUILD_DIR}/pops_serve" client --port "${!port_var}" --shutdown > /dev/null
  wait "${PIDS[${name}]}" 2>/dev/null || true
  unset "PIDS[${name}]"
}

SPEC_ARGS=(--tc 0.8,0.9 --margins 0.05,0.1 --no-runtimes --allow-unmet)

# Out-of-range millisecond flags are diagnosed (exit 1, flag named) while
# parsing, before any worker is contacted.
for flag in "--connect-timeout -5" "--read-timeout 3000000000" \
            "--retry-backoff -1"; do
  # shellcheck disable=SC2086  # split "FLAG VALUE" into two arguments
  if "${BUILD_DIR}/pops_fabric" --workers 127.0.0.1:1 ${flag} @c17 \
      2> "${SMOKE_DIR}/flag.err"; then
    echo "pops_fabric accepted ${flag}"; exit 1
  fi
  grep -q -- "${flag%% *} must be in" "${SMOKE_DIR}/flag.err" || {
    echo "no diagnostic for ${flag}"; cat "${SMOKE_DIR}/flag.err"; exit 1
  }
done

# --- cold fleet vs single daemon: the byte-identity contract -----------------
start_worker A 0
start_worker B 0
start_worker S 0   # the single-daemon reference

"${BUILD_DIR}/pops_fabric" --workers "127.0.0.1:${PORT_A},127.0.0.1:${PORT_B}" \
    "${SPEC_ARGS[@]}" --trace-out "${SMOKE_DIR}/fleet.trace" \
    "${SMOKE_DIR}/c17.bench" @c432 \
    > "${SMOKE_DIR}/fleet_cold.jsonl" 2> "${SMOKE_DIR}/fleet_cold.err"
"${BUILD_DIR}/pops_fabric" --workers "127.0.0.1:${PORT_S}" \
    "${SPEC_ARGS[@]}" "${SMOKE_DIR}/c17.bench" @c432 \
    > "${SMOKE_DIR}/single.jsonl"

cmp "${SMOKE_DIR}/fleet_cold.jsonl" "${SMOKE_DIR}/single.jsonl" || {
  echo "fleet merge must be byte-identical to the single-daemon stream"
  exit 1
}
grep -q "0 failovers" "${SMOKE_DIR}/fleet_cold.err" || {
  echo "healthy fleet must not fail over"; cat "${SMOKE_DIR}/fleet_cold.err"
  exit 1
}
echo "fabric smoke OK: 2-worker merge byte-identical to single daemon"

# The merged trace must carry spans relayed from the workers (rebased
# into the coordinator timeline as pid 1000+w), not just local ones.
python3 - "${SMOKE_DIR}/fleet.trace" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
worker_runs = [e for e in events if e["name"] == "sweep/run" and e["pid"] >= 1000]
dispatches = [e for e in events if e["name"] == "fabric/dispatch" and e["pid"] < 1000]
assert len(worker_runs) == 8, f"expected 8 worker sweep/run spans, got {len(worker_runs)}"
# An 8-point grid can legitimately shard entirely onto one worker, so
# only the presence of relayed worker spans is load-bearing here.
assert len({e["pid"] for e in worker_runs}) >= 1
assert len(dispatches) == 8, f"expected 8 coordinator dispatch spans, got {len(dispatches)}"
print("trace OK: worker sweep/run spans merged into the coordinator timeline")
PY

# --- second backend through the same workers ---------------------------------
# A table delay-model spec must run on each worker's one context (the
# daemons already served closed-form sweeps above) and still merge
# byte-identically against the single daemon.
cat > "${SMOKE_DIR}/table.json" <<'SPEC'
{"circuits": ["c17"], "tc_ratios": [0.85, 0.95],
 "base": {"delay_model": "table"}}
SPEC
"${BUILD_DIR}/pops_fabric" --workers "127.0.0.1:${PORT_A},127.0.0.1:${PORT_B}" \
    --spec "${SMOKE_DIR}/table.json" --no-runtimes --allow-unmet \
    > "${SMOKE_DIR}/fleet_table.jsonl"
"${BUILD_DIR}/pops_fabric" --workers "127.0.0.1:${PORT_S}" \
    --spec "${SMOKE_DIR}/table.json" --no-runtimes --allow-unmet \
    > "${SMOKE_DIR}/single_table.jsonl"
cmp "${SMOKE_DIR}/fleet_table.jsonl" "${SMOKE_DIR}/single_table.jsonl" || {
  echo "table-backend fleet merge must match the single daemon"; exit 1
}
echo "fabric smoke OK: table-backend spec served next to closed-form sweeps"

# --- warm restart: every point replayed from the journals --------------------
stop_worker A
stop_worker B
test -s "${SMOKE_DIR}/A.jnl" || { echo "worker A journal missing"; exit 1; }
test -s "${SMOKE_DIR}/B.jnl" || { echo "worker B journal missing"; exit 1; }

start_worker A "${PORT_A}"
start_worker B "${PORT_B}"
grep -Eq "cache '.*A\.jnl': [1-9][0-9]* entries" "${SMOKE_DIR}/A.err" || {
  echo "worker A restart did not replay its journal"; cat "${SMOKE_DIR}/A.err"
  exit 1
}

"${BUILD_DIR}/pops_fabric" --workers "127.0.0.1:${PORT_A},127.0.0.1:${PORT_B}" \
    "${SPEC_ARGS[@]}" --metrics-out "${SMOKE_DIR}/fleet.metrics" \
    "${SMOKE_DIR}/c17.bench" @c432 \
    > "${SMOKE_DIR}/fleet_warm.jsonl"
cmp "${SMOKE_DIR}/fleet_cold.jsonl" "${SMOKE_DIR}/fleet_warm.jsonl" || {
  echo "warm fleet rerun must be byte-identical to the cold run"; exit 1
}

# Zero recomputes, proven by counters: the restarted workers' registries
# are fresh, so any miss in the aggregate would be a recompute.
python3 - "${SMOKE_DIR}/fleet.metrics" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
agg = m["aggregate"]["counters"]
assert len(m["workers"]) == 2, sorted(m["workers"])
assert agg.get("cache.misses", 0) == 0, f"warm rerun recomputed: {agg}"
assert agg.get("cache.hits", 0) >= 8, f"expected >= 8 journal hits: {agg}"
print("metrics OK: warm fleet rerun was all cache hits "
      f"({int(agg['cache.hits'])} hits, 0 misses)")
PY
echo "fabric smoke OK: warm restart replayed entirely from the journals"

# --- a spec file naming a .bench path ------------------------------------------
# The coordinator resolves it the way pops_sweep does and ships the file
# inline under its label, so the stream is the positional run's.
printf '{"circuits":["%s"],"tc_ratios":[0.8,0.9]}\n' "${SMOKE_DIR}/c17.bench" \
    > "${SMOKE_DIR}/file_spec.json"
"${BUILD_DIR}/pops_fabric" --workers "127.0.0.1:${PORT_A},127.0.0.1:${PORT_B}" \
    --tc 0.8,0.9 --no-runtimes --allow-unmet "${SMOKE_DIR}/c17.bench" \
    > "${SMOKE_DIR}/fleet_positional.jsonl"
"${BUILD_DIR}/pops_fabric" --workers "127.0.0.1:${PORT_A},127.0.0.1:${PORT_B}" \
    --spec "${SMOKE_DIR}/file_spec.json" --no-runtimes --allow-unmet \
    > "${SMOKE_DIR}/fleet_spec_file.jsonl"
cmp "${SMOKE_DIR}/fleet_positional.jsonl" "${SMOKE_DIR}/fleet_spec_file.jsonl" || {
  echo "a spec-file .bench path must stream the positional run's bytes"
  exit 1
}
echo "fabric smoke OK: spec-file .bench path matches the positional run"

stop_worker A
stop_worker B
stop_worker S
echo "pops_fabric smoke OK"
