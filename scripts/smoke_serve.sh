#!/usr/bin/env bash
# pops_serve smoke: start the daemon on an ephemeral port with a cache
# file, submit a c17 spec through the client, and assert (a) the stream is
# valid JSONL whose records carry the expected schema, (b) a resubmission
# over a NEW connection is served from the shared cache, (c) after a full
# daemon restart the same spec is served entirely from the PERSISTED
# cache — with --no-runtimes the streams compare byte-for-byte, no
# scrubbing — from a format-4 journal that holds no sized paths, (d) a
# spec file naming the .bench path streams the same bytes as the
# positional run, and (e) the control ops (ping/stats/metrics/shutdown)
# answer and shut the daemon down cleanly.
# Shared by scripts/ci.sh and the GitHub workflow so the fixture and the
# assertions cannot drift.
# Usage: scripts/smoke_serve.sh <build-dir>
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: smoke_serve.sh <build-dir>}"

SMOKE_DIR="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [[ -n "${SERVE_PID}" ]] && kill "${SERVE_PID}" 2>/dev/null || true
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

CACHE="${SMOKE_DIR}/cache.json"

start_daemon() {
  "${BUILD_DIR}/pops_serve" --port 0 --cache-file "${CACHE}" \
      > "${SMOKE_DIR}/serve.out" 2> "${SMOKE_DIR}/serve.err" &
  SERVE_PID=$!
  # The port line on stdout is the startup contract.
  for _ in $(seq 1 50); do
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
            "${SMOKE_DIR}/serve.out")"
    [[ -n "${PORT}" ]] && return 0
    sleep 0.1
  done
  echo "daemon did not start"; cat "${SMOKE_DIR}/serve.err"; exit 1
}

stop_daemon() {
  "${BUILD_DIR}/pops_serve" client --port "${PORT}" --shutdown > /dev/null
  wait "${SERVE_PID}" 2>/dev/null || true
  SERVE_PID=""
}

# --- cold daemon: first submission computes, resubmission hits ---------------
start_daemon
"${BUILD_DIR}/pops_serve" client --port "${PORT}" --ping | grep -q pong

"${BUILD_DIR}/pops_serve" client --port "${PORT}" --tc 0.9,1.0 --allow-unmet \
    "${SMOKE_DIR}/c17.bench" > "${SMOKE_DIR}/run1.jsonl"
"${BUILD_DIR}/pops_serve" client --port "${PORT}" --tc 0.9,1.0 --allow-unmet \
    "${SMOKE_DIR}/c17.bench" > "${SMOKE_DIR}/run2.jsonl"

python3 - "${SMOKE_DIR}/run1.jsonl" "${SMOKE_DIR}/run2.jsonl" first <<'PY'
import json, sys
run1 = [json.loads(l) for l in open(sys.argv[1])]  # must be valid JSONL
run2 = [json.loads(l) for l in open(sys.argv[2])]
assert len(run1) == 2 and len(run2) == 2, (len(run1), len(run2))
for p in run1 + run2:
    assert p["circuit"] == "c17"
    assert "final_delay_ps" in p["report"]
cold = [p["report"]["measured"]["from_cache"] for p in run1]
warm = [p["report"]["measured"]["from_cache"] for p in run2]
assert not any(cold), "cold run must compute"
assert all(warm), "resubmission must hit"
print("serve smoke OK: cold run computed, resubmission served from cache")
PY

# A --no-runtimes stream drops the run-dependent 'measured' section, so
# later replays can be compared byte-for-byte with cmp — no scrubbing.
"${BUILD_DIR}/pops_serve" client --port "${PORT}" --tc 0.9,1.0 --allow-unmet \
    --no-runtimes "${SMOKE_DIR}/c17.bench" > "${SMOKE_DIR}/run_exact1.jsonl"
grep -q '"measured"' "${SMOKE_DIR}/run_exact1.jsonl" && {
  echo "--no-runtimes stream must not carry a measured section"; exit 1
}
stop_daemon
test -s "${CACHE}" || { echo "cache file was not written"; exit 1; }

# --- warm restart: everything from the persisted cache ------------------------
start_daemon
grep -q "2 entries" "${SMOKE_DIR}/serve.err" || {
  echo "restart did not load the persisted cache"; cat "${SMOKE_DIR}/serve.err"
  exit 1
}
# The persisted journal is format 4: per-path records keep the protocol's
# decision, never the sized path.
python3 - "${CACHE}" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert lines[0]["version"] == 4, lines[0]
def keys(node):
    if isinstance(node, dict):
        for k, v in node.items():
            yield k
            yield from keys(v)
    elif isinstance(node, list):
        for v in node:
            yield from keys(v)
entries = [r for r in lines[1:] if r["kind"] == "entry"]
assert entries, "journal holds no entry records"
for r in entries:
    found = {"sizing", "stages"} & set(keys(r))
    assert not found, f"entry record carries {sorted(found)}"
print(f"serve smoke OK: journal is format 4, {len(entries)} slim entries")
PY
"${BUILD_DIR}/pops_serve" client --port "${PORT}" --tc 0.9,1.0 --allow-unmet \
    --no-runtimes "${SMOKE_DIR}/c17.bench" > "${SMOKE_DIR}/run_exact3.jsonl" \
    2> "${SMOKE_DIR}/run3.err"
grep -q "cache 2 hits / 0 misses" "${SMOKE_DIR}/run3.err" || {
  echo "warm restart was not served from the persisted cache"
  cat "${SMOKE_DIR}/run3.err"; exit 1
}

cmp "${SMOKE_DIR}/run_exact1.jsonl" "${SMOKE_DIR}/run_exact3.jsonl" || {
  echo "restart replay must be byte-identical to the pre-restart stream"
  exit 1
}
echo "serve smoke OK: warm restart replayed the persisted cache byte-exact"

# A spec file naming the .bench path resolves it the way pops_sweep does:
# the client ships the file inline under its label, so the stream is the
# positional run's, byte for byte.
printf '{"circuits":["%s"],"tc_ratios":[0.9,1.0]}\n' "${SMOKE_DIR}/c17.bench" \
    > "${SMOKE_DIR}/file_spec.json"
"${BUILD_DIR}/pops_serve" client --port "${PORT}" --allow-unmet \
    --no-runtimes --spec "${SMOKE_DIR}/file_spec.json" \
    > "${SMOKE_DIR}/run_spec.jsonl"
cmp "${SMOKE_DIR}/run_exact3.jsonl" "${SMOKE_DIR}/run_spec.jsonl" || {
  echo "a spec-file .bench path must stream the positional run's bytes"
  exit 1
}
echo "serve smoke OK: spec-file .bench path matches the positional run"

"${BUILD_DIR}/pops_serve" client --port "${PORT}" --stats \
    | python3 -c 'import json,sys; s=json.load(sys.stdin); \
assert s["event"]=="stats" and s["cache"]["entries"]==2, s; print("stats OK:", s["cache"])'

"${BUILD_DIR}/pops_serve" client --port "${PORT}" --metrics \
    | python3 -c 'import json,sys; m=json.load(sys.stdin); \
assert m["event"]=="metrics", m; \
assert m["counters"]["net.requests"] > 0, m["counters"]; \
assert m["counters"]["cache.hits"] >= 2, m["counters"]; \
print("metrics OK:", {k: m["counters"][k] for k in ("net.requests", "cache.hits")})'
stop_daemon
echo "pops_serve smoke OK"
