// Table 1 — "CPU time comparison in satisfying path delay constraint":
// wall-clock time of the deterministic constant-sensitivity distribution
// (POPS) against the greedy iterative sizer (AMPS substitute) on every
// benchmark path, both meeting Tc = 1.2*Tmin. The paper reports a
// two-order-of-magnitude gap — which follows from the algorithms
// (O(N) sweeps vs O(N^2) full-path re-evaluations per move), so the
// *ratio* is the reproduced quantity, not the absolute milliseconds.
//
// A google-benchmark microharness of the two kernels on a mid-size path
// is appended for calibrated per-iteration numbers.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common.hpp"
#include "pops/baseline/amps.hpp"
#include "pops/core/bounds.hpp"
#include "pops/core/sensitivity.hpp"

namespace {

using namespace pops;
using namespace bench_common;

void print_table() {
  api::OptContext ctx;
  const liberty::Library& lib = ctx.lib();
  const timing::DelayModel& dm = ctx.dm();

  print_header(
      "Table 1 — CPU time to satisfy Tc = 1.2*Tmin: POPS vs AMPS",
      "deterministic distribution is ~two orders of magnitude faster");

  util::Table t({"circuit", "path gates", "POPS (ms)", "AMPS (ms)",
                 "speed-up", "AMPS evals"});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, util::Align::Right);

  for (const std::string& name : paper_circuit_names()) {
    PathCase pc = critical_path_case(lib, dm, name);
    const core::PathBounds bounds = core::compute_bounds(pc.path, dm);
    const double tc = 1.2 * bounds.tmin_ps;

    double pops_ms = 0.0;
    // POPS is fast enough that a few repetitions stabilise the clock.
    constexpr int reps = 5;
    pops_ms = time_ms([&] {
                for (int r = 0; r < reps; ++r)
                  benchmark::DoNotOptimize(
                      core::size_for_constraint(pc.path, dm, tc));
              }) /
              reps;

    long evals = 0;
    const double amps_ms = time_ms([&] {
      const baseline::AmpsResult r = baseline::meet_constraint(pc.path, dm, tc);
      evals = r.evaluations;
      benchmark::DoNotOptimize(&r);
    });

    t.add_row({name, std::to_string(pc.gate_count), util::fmt(pops_ms, 2),
               util::fmt(amps_ms, 1),
               util::fmt(amps_ms / std::max(pops_ms, 1e-3), 0) + "x",
               std::to_string(evals)});
  }
  std::printf("%s\n", t.str().c_str());
}

// --- google-benchmark kernels -------------------------------------------------

const api::OptContext& bench_ctx() {
  static api::OptContext ctx;
  return ctx;
}

void BM_PopsConstraint(benchmark::State& state) {
  const timing::DelayModel& dm = bench_ctx().dm();
  PathCase pc = critical_path_case(bench_ctx(), "c1908");
  const core::PathBounds bounds = core::compute_bounds(pc.path, dm);
  const double tc = 1.2 * bounds.tmin_ps;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::size_for_constraint(pc.path, dm, tc));
}
BENCHMARK(BM_PopsConstraint)->Unit(benchmark::kMillisecond);

void BM_AmpsConstraint(benchmark::State& state) {
  const timing::DelayModel& dm = bench_ctx().dm();
  PathCase pc = critical_path_case(bench_ctx(), "c1908");
  const core::PathBounds bounds = core::compute_bounds(pc.path, dm);
  const double tc = 1.2 * bounds.tmin_ps;
  for (auto _ : state)
    benchmark::DoNotOptimize(baseline::meet_constraint(pc.path, dm, tc));
}
BENCHMARK(BM_AmpsConstraint)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
