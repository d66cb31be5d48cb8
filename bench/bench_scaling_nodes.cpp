// Extension — scaling studies beyond the paper, in two directions:
//
//  1. Technology scaling: the paper evaluates a single 0.25µm process. The
//     library carries generic 0.18µm and 0.13µm parameter sets, so the
//     protocol's behaviour can be checked across nodes: Tmin scales with
//     tau, the constraint domains keep their structure, and the Flimit
//     metric stays in the same band (it is a ratio of delays, so
//     first-order node-independent).
//
//  2. Workload scaling: Optimizer::run_many fans the whole ISCAS set out
//     across a thread pool (each circuit is independent). The batch is run
//     with 1 and 4 workers; the results must be bit-identical and the
//     multi-worker batch faster on multi-core hosts.

#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "pops/util/json.hpp"

namespace {

using namespace pops;
using namespace bench_common;

void technology_scaling(util::Json& doc) {
  print_header(
      "Extension — the protocol across technology nodes (0.25/0.18/0.13um)",
      "Tmin tracks tau; Flimit and the domain structure are "
      "first-order node-invariant");

  const process::Technology nodes[] = {
      process::Technology::cmos025(),
      process::Technology::cmos018(),
      process::Technology::cmos013(),
  };

  util::Table t({"node", "tau (ps)", "Tmin c1355 (ns)", "Flimit inv",
                 "Flimit nor3", "area @1.2Tmin (um)"});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, util::Align::Right);

  util::Json rows = util::Json::array();
  for (const process::Technology& tech : nodes) {
    api::OptContext ctx(tech);
    const timing::DelayModel& dm = ctx.dm();
    const core::FlimitTable& table = ctx.flimits();

    PathCase pc = critical_path_case(ctx, "c1355");
    const core::PathBounds bounds = core::compute_bounds(pc.path, dm);
    const core::SizingResult sized =
        core::size_for_constraint(pc.path, dm, 1.2 * bounds.tmin_ps);

    const double flimit_inv =
        table.get(dm, liberty::CellKind::Inv, liberty::CellKind::Inv);
    const double flimit_nor3 =
        table.get(dm, liberty::CellKind::Inv, liberty::CellKind::Nor3);
    t.add_row({tech.name, util::fmt(tech.tau_ps, 1),
               util::fmt(bounds.tmin_ps * 1e-3, 3),
               util::fmt(flimit_inv, 2), util::fmt(flimit_nor3, 2),
               util::fmt(sized.area_um, 1)});

    util::Json row = util::Json::object();
    row["node"] = tech.name;
    row["tau_ps"] = tech.tau_ps;
    row["tmin_c1355_ps"] = bounds.tmin_ps;
    row["flimit_inv"] = flimit_inv;
    row["flimit_nor3"] = flimit_nor3;
    row["area_at_1p2_tmin_um"] = sized.area_um;
    rows.push_back(std::move(row));
  }
  doc["technology_scaling"] = std::move(rows);
  std::printf("%s", t.str().c_str());
}

std::vector<Netlist> make_iscas_fleet(const api::OptContext& ctx) {
  std::vector<Netlist> fleet;
  for (const std::string& name : paper_circuit_names())
    fleet.push_back(pops::netlist::make_benchmark(ctx.lib(), name));
  return fleet;
}

void batch_scaling(util::Json& doc) {
  std::printf("\n");
  print_header(
      "Extension — batch throughput: Optimizer::run_many over the ISCAS set",
      "independent circuits fan out across a thread pool; results are "
      "bit-identical for any worker count");

  api::OptContext ctx;
  ctx.warm_flimits();  // exclude one-time characterisation from the timing
  const api::Optimizer optimizer(ctx);
  constexpr double kRatio = 0.85;

  std::vector<api::PipelineReport> r1, r4;
  std::vector<Netlist> fleet1 = make_iscas_fleet(ctx);
  const double ms1 =
      time_ms([&] { r1 = optimizer.run_many_relative(fleet1, kRatio, 1); });

  std::vector<Netlist> fleet4 = make_iscas_fleet(ctx);
  const double ms4 =
      time_ms([&] { r4 = optimizer.run_many_relative(fleet4, kRatio, 4); });

  bool identical = r1.size() == r4.size();
  for (std::size_t i = 0; identical && i < r1.size(); ++i)
    identical = r1[i].final_delay_ps == r4[i].final_delay_ps &&
                r1[i].final_area_um == r4[i].final_area_um &&
                r1[i].total_buffers_inserted() == r4[i].total_buffers_inserted();
  std::size_t met = 0;
  for (const api::PipelineReport& r : r1)
    if (r.met) ++met;

  util::Table t({"circuits", "Tc", "1 thread (ms)", "4 threads (ms)",
                 "speed-up", "identical", "met"});
  for (std::size_t c = 2; c < 5; ++c) t.set_align(c, util::Align::Right);
  t.add_row({std::to_string(fleet1.size()),
             util::fmt(kRatio, 2) + "x initial", util::fmt(ms1, 0),
             util::fmt(ms4, 0), util::fmt(ms1 / ms4, 2) + "x",
             identical ? "yes" : "NO", std::to_string(met) + "/" +
                 std::to_string(fleet1.size())});
  std::printf("%s", t.str().c_str());
  std::printf("(host has %u hardware threads; the speed-up saturates at "
              "min(4, cores, circuits))\n",
              std::thread::hardware_concurrency());

  util::Json batch = util::Json::object();
  batch["circuits"] = fleet1.size();
  batch["tc_ratio"] = kRatio;
  // Per-thread-count timings are always recorded; the ratio only when the
  // host genuinely has 4 hardware threads (add_guarded_speedup nulls it
  // with a note otherwise — an oversubscribed "speedup" is noise and has
  // polluted cross-PR tracking before).
  batch["ms_1_thread"] = ms1;
  batch["ms_4_threads"] = ms4;
  add_guarded_speedup(batch, ms1, ms4, 4);
  batch["identical"] = identical;
  batch["met"] = met;
  doc["batch_throughput"] = std::move(batch);
}

}  // namespace

int main(int argc, char** argv) {
  // Machine-readable timings ride along with the stdout tables so the
  // perf trajectory can be tracked across PRs (BENCH_*.json artifacts).
  util::Json doc = util::Json::object();
  doc["bench"] = "scaling_nodes";
  technology_scaling(doc);
  batch_scaling(doc);

  return bench_common::write_bench_json(argc, argv, "scaling_nodes", doc);
}
