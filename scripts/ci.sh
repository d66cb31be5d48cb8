#!/usr/bin/env bash
# CI entry point: strict build + tests, the determinism lint, then
# ASan/UBSan and TSan jobs. Usage: scripts/ci.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "=== job 1: -Wall -Wextra -Werror, Release, full ctest ==="
cmake -B "${PREFIX}" -S . -DPOPS_WERROR=ON -DCMAKE_BUILD_TYPE=Release
cmake --build "${PREFIX}" -j "${JOBS}"
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"

echo "=== job 1b: pops_sweep smoke (c17; per-backend sweeps, cache hits, spec file) ==="
scripts/smoke_sweep.sh "${PREFIX}"

echo "=== job 1c: pops_serve smoke (daemon, client, cache-file restart) ==="
scripts/smoke_serve.sh "${PREFIX}"

echo "=== job 1d: bench_incremental_sta smoke (valid JSON, incremental <= cold) ==="
scripts/smoke_bench_incremental.sh "${PREFIX}"

echo "=== job 1d2: pops_fabric smoke (2-worker fleet, byte-identical merge, journal warm restart) ==="
scripts/smoke_fabric.sh "${PREFIX}"

echo "=== job 1d3: power smoke (state backend at 85C, multi-Vt recovery, byte determinism) ==="
scripts/smoke_power.sh "${PREFIX}"

echo "=== job 1e: pops_lint determinism lint over the compiled tree ==="
# Job 1 exported compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS),
# so the lint scans exactly the TUs the build compiles. The self-test
# first proves every rule still fires on a synthetic violation.
tools/pops_lint --self-test
tools/pops_lint --compile-commands "${PREFIX}/compile_commands.json"

echo "=== job 1f: trace smoke (pops_sweep --trace -> Chrome JSON -> pops_profile) ==="
scripts/smoke_trace.sh "${PREFIX}"

echo "=== job 1g: intra-circuit timing smoke (slack engine, gating, 60k-gate sweep) ==="
scripts/smoke_intra_circuit.sh "${PREFIX}"

echo "=== job 1h: perfbench selftest (per-seed counts and QoR repeat exactly) ==="
# Gates on determinism and the metric declarations, never on milliseconds:
# each workload runs twice at the smallest size and its QoR, per-layer
# counts and input digest must match exactly. Builds in .bench_build/.
python3 perfbench/selftest.py

echo "=== job 2: ASan/UBSan, Debug, full ctest ==="
cmake -B "${PREFIX}-asan" -S . -DPOPS_WERROR=ON -DPOPS_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=Debug
cmake --build "${PREFIX}-asan" -j "${JOBS}"
# The incremental-vs-full fuzz suites must run under the sanitizers (and
# debug builds additionally self-check every IncrementalSta::update
# against a cold run).
# Plain grep (not -q) drains ctest's stdout — under pipefail, -q would
# SIGPIPE ctest once the test listing outgrows the pipe buffer.
ctest --test-dir "${PREFIX}-asan" -N | grep "IncrementalSta\." > /dev/null \
  || { echo "ASan job does not cover the IncrementalSta fuzz tests"; exit 1; }
ctest --test-dir "${PREFIX}-asan" -N | grep "ShieldMatchesHistoricalFullSweepBitwise" > /dev/null \
  || { echo "ASan job does not cover the shield parity regression"; exit 1; }
ctest --test-dir "${PREFIX}-asan" -N | grep "EngineSharing\." > /dev/null \
  || { echo "ASan job does not cover the engine-sharing obs tests"; exit 1; }
# The word-parallel logic simulator's lane shifts and partial-word masks
# are exactly what UBSan checks: its scalar-parity and golden-count suites
# must run here.
ctest --test-dir "${PREFIX}-asan" -N | grep "LogicSimParity\." > /dev/null \
  || { echo "ASan job does not cover the logic-sim parity tests"; exit 1; }
ctest --test-dir "${PREFIX}-asan" -N | grep "LogicSimGolden\." > /dev/null \
  || { echo "ASan job does not cover the logic-sim golden counts"; exit 1; }
# The constant-sensitivity root search (log/exp interpolation, bracket
# safeguards) and its floor fixed point must run under UBSan too.
ctest --test-dir "${PREFIX}-asan" -N | grep "SensitivitySearch\." > /dev/null \
  || { echo "ASan job does not cover the sensitivity root-search tests"; exit 1; }
ctest --test-dir "${PREFIX}-asan" -N | grep "SensitivityFloor\." > /dev/null \
  || { echo "ASan job does not cover the sensitivity floor tests"; exit 1; }
# Edit-local incremental STA: the in-place fanout/PO upkeep, the
# all-or-nothing buffer insertion, and the deferred slack repair (which the
# debug self-check flushes after every update) must run here.
ctest --test-dir "${PREFIX}-asan" -N | grep "DeferredBackwardUpkeepMatchesCold" > /dev/null \
  || { echo "ASan job does not cover the deferred slack upkeep fuzz"; exit 1; }
ctest --test-dir "${PREFIX}-asan" -N | grep "FanoutsAndOutputsExactAcrossEditsWithoutRebuild" > /dev/null \
  || { echo "ASan job does not cover the netlist cache upkeep test"; exit 1; }
ctest --test-dir "${PREFIX}-asan" -N | grep "InsertBufferRejectsForeignSinkWithoutEditing" > /dev/null \
  || { echo "ASan job does not cover the insert_buffer rejection test"; exit 1; }
# The backward kernels read the arcs the forward pass records; the oracle
# that still evaluates the model per arc must run here.
ctest --test-dir "${PREFIX}-asan" -N | grep "BackwardQueriesMatchDirectArcEvaluation" > /dev/null \
  || { echo "ASan job does not cover the direct-arc oracle test"; exit 1; }
# MultiVtPass tests flips in runs; the oracle that replays the one-flip
# walk and compares every decision must run here.
ctest --test-dir "${PREFIX}-asan" -N | grep "BatchedWalkMatchesSingleFlipWalk" > /dev/null \
  || { echo "ASan job does not cover the batched multi-Vt walk oracle"; exit 1; }
# The sweep pass compacts the netlist in place and carries the timing
# engine across the renumbering: the rebuild oracle and the engine's
# cold-run identity after compaction must run here.
ctest --test-dir "${PREFIX}-asan" -N | grep "CompactMatchesRebuildingSweepOracle" > /dev/null \
  || { echo "ASan job does not cover the compaction oracle"; exit 1; }
ctest --test-dir "${PREFIX}-asan" -N | grep "CompactMatchesColdBothBackends" > /dev/null \
  || { echo "ASan job does not cover the engine compaction test"; exit 1; }
# The timing kernels read the netlist's dense class column, and the shield
# reads sparse sink slacks over stamped required times: the column-vs-
# records check and the sparse-slack oracle must run here.
ctest --test-dir "${PREFIX}-asan" -N | grep "ClassColumnMatchesNodeRecordsAfterEveryEdit" > /dev/null \
  || { echo "ASan job does not cover the class column test"; exit 1; }
ctest --test-dir "${PREFIX}-asan" -N | grep "SparseSlackQueriesMatchColdBothBackends" > /dev/null \
  || { echo "ASan job does not cover the sparse slack oracle"; exit 1; }
# The archive readers' range checks guard casts that float-cast-overflow
# would flag: the out-of-range cases must run here.
ctest --test-dir "${PREFIX}-asan" -N | grep "RestoreRejectsOutOfRangeIntegers" > /dev/null \
  || { echo "ASan job does not cover the archive integer range checks"; exit 1; }
# halt_on_error makes a UBSan report fail the test, as in the workflow.
UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}"

echo "=== job 3: TSan, full ctest + concurrency stress suites ==="
cmake -B "${PREFIX}-tsan" -S . -DPOPS_WERROR=ON -DPOPS_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${PREFIX}-tsan" -j "${JOBS}"
# The stress suites are the reason this job exists: they provoke the
# interleavings (shared cache, registry stampede, run_many contention,
# concurrent sweeps + checkpointing) that TSan needs to observe. Same
# drain-grep pattern as the ASan coverage assert above.
ctest --test-dir "${PREFIX}-tsan" -N | grep "ConcurrencyTest\." > /dev/null \
  || { echo "TSan job does not cover the ConcurrencyTest stress suites"; exit 1; }
# Closed-form and table Optimizers interleaved on one shared context: the
# race check behind "backends are resolved once and never swapped".
ctest --test-dir "${PREFIX}-tsan" -N | grep "ConcurrentOptimizerConstructionOnSharedContext" > /dev/null \
  || { echo "TSan job does not cover the mixed-backend context suite"; exit 1; }
# run_many chunks on the shared pool, with a second batch running at once.
ctest --test-dir "${PREFIX}-tsan" -N | grep "RunManySharesThePoolBitIdentically" > /dev/null \
  || { echo "TSan job does not cover run_many batches sharing the pool"; exit 1; }
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}"

echo "CI OK"
