// Extension — power-backend cost and multi-Vt leakage recovery.
//
// Two questions the polymorphic power backends raise. First, cost: what
// does one PowerModel::estimate() — the activity simulation plus the
// backend's evaluation, exactly what a pipeline point pays — take under
// each backend? The state-dependent model walks every gate's Vt class,
// series stacks, and state probabilities where the proxy just scales ΣW;
// the activity simulation both share is reported on its own. Second,
// payoff: how much leakage does the slack-driven MultiVtPass actually
// recover on a real circuit, at a tight (1.0x initial delay) and a
// relaxed (1.25x) constraint — with every point still meeting Tc?
//
// Emits BENCH_power.json for cross-PR perf tracking; the CI smoke
// (scripts/smoke_power.sh) checks the sweep-level contract separately.

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/power/power_model.hpp"
#include "pops/service/sweep.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using namespace bench_common;

constexpr int kReps = 50;
constexpr int kVectors = 512;  // what the pipeline simulates per point

void estimate_cost(util::Json& doc) {
  print_header(
      "Extension — power backend cost per estimate",
      "activity simulation (512 vectors) alone, then PowerModel::estimate "
      "end to end — simulation plus evaluation — per backend");

  api::OptContext ctx;
  const power::ProxyModel proxy(ctx.lib());
  const power::StateDependentModel state(ctx.lib());

  util::Table t({"circuit", "gates", "activity (us)", "proxy (us)",
                 "state (us)", "ratio"});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, util::Align::Right);

  util::Json circuits = util::Json::array();
  for (const std::string& name :
       {std::string("c432"), std::string("c880"), std::string("c1355"),
        std::string("c7552")}) {
    const Netlist nl = netlist::make_benchmark(ctx.lib(), name);

    double activity_ms = 0.0;
    double proxy_ms = 0.0;
    double state_ms = 0.0;
    double sink = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      // Every call restarts the same stream, as every pipeline point does.
      activity_ms += time_ms([&] {
        util::Rng rng(0xB0B);
        sink += netlist::estimate_activity(nl, rng, kVectors)
                    .switched_cap_ff_per_vec;
      });
      proxy_ms += time_ms([&] {
        util::Rng rng(0xB0B);
        sink += proxy.estimate(nl, rng, 100.0, kVectors).total_uw;
      });
      state_ms += time_ms([&] {
        util::Rng rng(0xB0B);
        sink += state.estimate(nl, rng, 100.0, kVectors).total_uw;
      });
    }
    if (sink == 0.0) std::printf(" ");  // keep the evaluations observable

    const double activity_us = activity_ms / kReps * 1e3;
    const double proxy_us = proxy_ms / kReps * 1e3;
    const double state_us = state_ms / kReps * 1e3;
    t.add_row({name, std::to_string(nl.gates().size()),
               util::fmt(activity_us, 1), util::fmt(proxy_us, 1),
               util::fmt(state_us, 1),
               util::fmt(state_us / proxy_us, 2) + "x"});

    util::Json entry = util::Json::object();
    entry["circuit"] = name;
    entry["gates"] = nl.gates().size();
    entry["activity_us"] = activity_us;
    entry["proxy_us"] = proxy_us;
    entry["state_us"] = state_us;
    circuits.push_back(std::move(entry));
  }
  doc["estimate_cost"] = std::move(circuits);
  doc["reps"] = kReps;
  doc["vectors"] = kVectors;
  std::printf("%s\n", t.str().c_str());
}

void multi_vt_recovery(util::Json& doc) {
  print_header(
      "Extension — leakage recovered by the multi-Vt pass",
      "high-Vt implants on positive-slack cones cut sub-threshold leakage "
      "while every sweep point keeps meeting its Tc");

  api::OptContext ctx;
  service::SweepService sweeps(ctx, /*use_cache=*/false);

  service::SweepSpec spec;
  spec.circuits = {"c880"};
  spec.tc_ratios = {1.0, 1.25};
  spec.vt_policies = {"none", "multi-vt"};
  spec.base.power_model = "state";
  spec.n_threads = 1;

  const service::SweepReport rep = sweeps.run(
      spec, [&ctx](const std::string& name) {
        return netlist::make_benchmark(ctx.lib(), name);
      });

  util::Table t({"Tc ratio", "leak (uW)", "multi-vt leak (uW)",
                 "recovered", "high-Vt cells", "met"});
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, util::Align::Right);

  util::Json rows = util::Json::array();
  // Record order: vt_policy nests outside the ratio axis, so the single-
  // circuit grid lands as (none@1.0, none@1.25, multi-vt@1.0,
  // multi-vt@1.25).
  for (std::size_t i = 0; i < spec.tc_ratios.size(); ++i) {
    const service::SweepPoint& base = rep.points[i];
    const service::SweepPoint& mvt = rep.points[i + spec.tc_ratios.size()];
    const double before = base.report.power.leakage_uw;
    const double after = mvt.report.power.leakage_uw;
    const bool met = base.report.met && mvt.report.met;
    t.add_row({util::fmt(base.tc_ratio, 2), util::fmt(before, 4),
               util::fmt(after, 4),
               util::fmt((before - after) / before * 100.0, 1) + "%",
               std::to_string(mvt.report.total_cells_high_vt()),
               met ? "yes" : "NO"});

    util::Json row = util::Json::object();
    row["tc_ratio"] = base.tc_ratio;
    row["leakage_uw"] = before;
    row["multi_vt_leakage_uw"] = after;
    row["recovered_frac"] = (before - after) / before;
    row["cells_high_vt"] = mvt.report.total_cells_high_vt();
    row["met"] = met;
    rows.push_back(std::move(row));
  }
  doc["multi_vt_recovery"] = std::move(rows);
  std::printf("%s\n", t.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Json doc = util::Json::object();
  doc["bench"] = "power";
  estimate_cost(doc);
  multi_vt_recovery(doc);

  return bench_common::write_bench_json(argc, argv, "power", doc);
}
