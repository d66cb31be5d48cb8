#!/usr/bin/env bash
# bench_incremental_sta smoke: the bench must run, emit valid JSON with
# the expected shape, and show the incremental analyzer no slower than a
# cold re-run for the smallest dirty set on every circuit, for a buffer
# insertion on c1355, for a walk of Vt flips on c1355, for MultiVtPass's
# batched walk of Vt flips on c1355 and for the sweep pass's in-place
# compaction on c5315/c7552, and sparse sink-slack queries no slower than
# a whole-vector slacks() on c5315/c7552 (the bench itself
# asserts bit-identity via IncrementalSta::check_against_full on every
# configuration). Shared by scripts/ci.sh and the GitHub workflow.
# Usage: scripts/smoke_bench_incremental.sh <build-dir>
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: smoke_bench_incremental.sh <build-dir>}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

"${BUILD_DIR}/bench_incremental_sta" "${SMOKE_DIR}/bench.json" > /dev/null

python3 - "${SMOKE_DIR}/bench.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)  # must be valid JSON
assert doc["bench"] == "incremental_sta"
circuits = {c["circuit"]: c for c in doc["circuits"]}
assert set(circuits) == {"c432", "c880", "c1355"}, set(circuits)
for name, c in circuits.items():
    rows = {r["dirty"]: r for r in c["rows"]}
    assert 1 in rows, f"{name}: missing dirty=1 row"
    for r in c["rows"]:
        assert r["cold_round_ms"] > 0 and r["incremental_ms"] > 0, (name, r)
    one = rows[1]
    # Timing smoke, so keep the bound conservative: a single-gate resize
    # must never cost more than a full cold re-analysis.
    assert one["incremental_ms"] <= one["cold_round_ms"], (
        f"{name}: incremental dirty=1 slower than cold "
        f"({one['incremental_ms']:.3f} vs {one['cold_round_ms']:.3f} ms)")
# Structural edits are patched in place (no topological renumbering), so a
# shield-shaped buffer insertion must not cost more than a cold re-analysis
# either.
s = doc["structural"]
assert s["circuit"] == "c1355" and s["edit"] == "insert_buffer", s
assert s["cold_round_ms"] > 0 and s["incremental_ms"] > 0, s
assert s["incremental_ms"] <= s["cold_round_ms"], (
    f"c1355: incremental buffer insertion slower than cold "
    f"({s['incremental_ms']:.3f} vs {s['cold_round_ms']:.3f} ms)")
# Single Vt flips: one flip then an update, 200 times; the flip's
# cone is mostly re-timed from the recorded arcs, so it must not cost more
# than a cold re-analysis.
v = doc["vt_walk"]
assert v["circuit"] == "c1355" and v["flips"] == 200, v
assert v["cold_round_ms"] > 0 and v["incremental_ms"] > 0, v
assert v["incremental_ms"] <= v["cold_round_ms"], (
    f"c1355: incremental Vt walk slower than cold "
    f"({v['incremental_ms']:.3f} vs {v['cold_round_ms']:.3f} ms)")
# MultiVtPass's batched walk: runs of flips, each trial one update whose
# cone may cover most of the circuit; still no dearer than a cold run.
b = doc["vt_batch"]
assert b["circuit"] == "c1355", b
assert 0 < b["updates"] < b["candidates"], b
assert b["cold_round_ms"] > 0 and b["incremental_ms"] > 0, b
assert b["incremental_ms"] <= b["cold_round_ms"], (
    f"c1355: incremental batched Vt walk slower than cold "
    f"({b['incremental_ms']:.3f} vs {b['cold_round_ms']:.3f} ms)")
# The sweep pass's compaction: the engine follows the renumbering and
# re-evaluates the delay model only where a load sum moved, so it must
# cost no more than the cold run it replaces.
compact = {r["circuit"]: r for r in doc["compact"]}
assert set(compact) == {"c5315", "c7552"}, set(compact)
for name, r in compact.items():
    assert r["cold_round_ms"] > 0 and r["incremental_ms"] > 0, (name, r)
    assert r["incremental_ms"] <= r["cold_round_ms"], (
        f"{name}: compaction slower than a cold run "
        f"({r['incremental_ms']:.3f} vs {r['cold_round_ms']:.3f} ms)")
# The shield's read after a buffer moved the critical delay: the sparse
# slacks of one net's sinks compute their fanout cones only, so they must
# cost no more than one whole-vector slacks() over every node.
sq = {r["circuit"]: r for r in doc["slack_query"]}
assert set(sq) == {"c5315", "c7552"}, set(sq)
for name, r in sq.items():
    assert r["delay_moved"] > 0, (name, r)
    assert r["whole_vector_ms"] > 0 and r["sink_cone_ms"] > 0, (name, r)
    assert r["sink_cone_ms"] <= r["whole_vector_ms"], (
        f"{name}: sink-cone slack queries slower than a whole-vector sweep "
        f"({r['sink_cone_ms']:.3f} vs {r['whole_vector_ms']:.3f} ms)")
print("bench_incremental_sta smoke OK:",
      ", ".join(f"{n} {circuits[n]['rows'][0]['speedup']:.1f}x@dirty=1"
                for n in ("c432", "c880", "c1355")),
      f"| c1355 buffer insertion {s['speedup']:.1f}x",
      f"| c1355 Vt walk {v['speedup']:.1f}x",
      f"| c1355 Vt runs {b['speedup']:.1f}x ({b['updates']} updates)",
      "| compact " + ", ".join(f"{n} {compact[n]['speedup']:.1f}x"
                               for n in ("c5315", "c7552")),
      "| sink slacks " + ", ".join(f"{n} {sq[n]['speedup']:.1f}x"
                                   for n in ("c5315", "c7552")))
PY
