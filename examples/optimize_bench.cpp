// File-based CLI: optimise an ISCAS-85 .bench netlist under a delay
// constraint and write the results — the adoption path for a user with
// their own circuits.
//
// Usage:
//   example_optimize_bench INPUT.bench TC_PS [OUTPUT.bench] [SIZES.csv]
//
// Reads the netlist (AND/OR/wide gates are decomposed onto the library),
// runs the Fig. 7 protocol circuit-wide for the given constraint (in ps),
// then writes the sized netlist back as .bench (structure) plus a CSV of
// per-gate drives (sizes are not representable in .bench), and prints the
// before/after report. Exits 0 iff the constraint was met.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "pops/api/api.hpp"
#include "pops/netlist/bench_io.hpp"
#include "pops/power/power_model.hpp"
#include "pops/timing/sta.hpp"
#include "pops/util/csv.hpp"
#include "pops/util/table.hpp"
#include "pops/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace pops;

  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s INPUT.bench TC_PS [OUTPUT.bench] [SIZES.csv]\n",
                 argv[0]);
    return 2;
  }
  const std::string input = argv[1];
  const double tc_ps = std::atof(argv[2]);
  const std::string output = argc > 3 ? argv[3] : "";
  const std::string sizes_csv = argc > 4 ? argv[4] : "";
  if (!(tc_ps > 0.0)) {
    std::fprintf(stderr, "error: TC_PS must be a positive number of ps\n");
    return 2;
  }

  api::OptContext ctx;
  const liberty::Library& lib = ctx.lib();
  const timing::DelayModel& dm = ctx.dm();

  std::ifstream in(input);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", input.c_str());
    return 2;
  }
  netlist::BenchReadOptions ropt;
  ropt.name = input;
  netlist::Netlist nl = [&] {
    try {
      return netlist::read_bench(in, lib, ropt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "parse error: %s\n", e.what());
      std::exit(2);
    }
  }();

  const netlist::NetlistStats stats = nl.stats();
  std::printf("%s: %zu gates, %zu PIs, %zu POs, depth %zu\n", input.c_str(),
              stats.n_gates, stats.n_inputs, stats.n_outputs, stats.depth);

  const timing::Sta sta(nl, dm);
  const double before = sta.run().critical_delay_ps;
  std::printf("initial critical delay %.1f ps, target %.1f ps\n", before,
              tc_ps);

  const api::Optimizer optimizer(ctx);
  const api::PipelineReport result = optimizer.run(nl, tc_ps);

  util::Rng rng = ctx.make_rng(1);
  const power::PowerReport power =
      power::ProxyModel(ctx.lib()).estimate(nl, rng);
  std::printf("final critical delay %.1f ps (%s), sum W %.1f um, "
              "%.1f uW @100MHz, %zu paths optimised, %zu shield buffers\n",
              result.final_delay_ps, result.met ? "met" : "NOT met",
              power.area_um, power.total_uw, result.total_paths_optimized(),
              result.total_buffers_inserted());

  if (!output.empty()) {
    std::ofstream out(output);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", output.c_str());
      return 2;
    }
    netlist::write_bench(out, nl);
    std::printf("netlist written to %s\n", output.c_str());
  }
  if (!sizes_csv.empty()) {
    util::CsvWriter csv(sizes_csv);
    csv.row(std::vector<std::string>{"gate", "cell", "wn_um", "cin_ff"});
    for (netlist::NodeId g : nl.gates()) {
      csv.row(std::vector<std::string>{
          nl.node(g).name, lib.cell(nl.node(g).kind).name,
          util::fmt(nl.drive(g), 4), util::fmt(nl.cin_ff(g), 4)});
    }
    std::printf("sizes written to %s\n", sizes_csv.c_str());
  }
  return result.met ? 0 : 1;
}
