// Full circuit flow on an ISCAS-style benchmark — the way POPS is meant to
// be used on a real design, through the unified pipeline API:
//
//   1. load the circuit (.bench or built-in benchmark),
//   2. run STA, look at the K most critical paths,
//   3. pick a delay constraint, run the standard pass pipeline
//      (shield -> cancel-inverters -> sweep-dead -> Fig. 7 protocol),
//   4. read the per-pass reports and the before/after power figures.
//
// Usage: example_iscas_flow [circuit] [tc_ratio]
//   circuit   benchmark name (default c880)
//   tc_ratio  target as a fraction of the initial critical delay (0.8)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "pops/api/api.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/power/power_model.hpp"
#include "pops/timing/report.hpp"
#include "pops/timing/sta.hpp"
#include "pops/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pops;

  const std::string circuit = argc > 1 ? argv[1] : "c880";
  const double ratio = argc > 2 ? std::atof(argv[2]) : 0.8;

  api::OptContext ctx;
  const timing::DelayModel& dm = ctx.dm();

  netlist::Netlist nl = netlist::make_benchmark(ctx.lib(), circuit);
  const netlist::NetlistStats stats = nl.stats();
  std::printf("circuit %s: %zu gates, %zu PIs, %zu POs, depth %zu\n",
              circuit.c_str(), stats.n_gates, stats.n_inputs, stats.n_outputs,
              stats.depth);

  // --- initial timing ---------------------------------------------------------
  const timing::Sta sta_before(nl, dm);
  const timing::StaResult before = sta_before.run();
  std::printf("\ninitial critical delay: %.1f ps\n", before.critical_delay_ps);

  const auto paths = sta_before.k_critical_paths(before, 5);
  util::Table pt({"#", "delay (ps)", "gates", "endpoint"});
  pt.set_align(1, util::Align::Right);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    pt.add_row({std::to_string(i + 1), util::fmt(paths[i].delay_ps, 1),
                std::to_string(paths[i].points.size() - 1),
                nl.node(paths[i].points.back().node).name});
  }
  std::printf("top critical paths:\n%s\n", pt.str().c_str());

  const power::ProxyModel proxy(ctx.lib());
  util::Rng rng_before = ctx.make_rng(1);
  const power::PowerReport p_before = proxy.estimate(nl, rng_before);

  // --- optimise through the pipeline API ---------------------------------------
  const double tc = ratio * before.critical_delay_ps;
  std::printf("running the optimization pipeline for Tc = %.1f ps "
              "(%.0f%% of initial)...\n", tc, 100.0 * ratio);

  api::Optimizer optimizer(ctx);
  const api::PipelineReport report = optimizer.run(nl, tc);

  // --- per-pass report ----------------------------------------------------------
  util::Table pp({"pass", "delay (ps)", "area (um)", "buffers", "rewired",
                  "removed", "paths", "ms"});
  for (std::size_t c = 1; c < 8; ++c) pp.set_align(c, util::Align::Right);
  pp.add_row({"(initial)", util::fmt(report.initial_delay_ps, 1),
              util::fmt(report.initial_area_um, 1), "", "", "", "", ""});
  for (const api::PassReport& pr : report.passes)
    pp.add_row({pr.pass_name, util::fmt(pr.delay_after_ps, 1),
                util::fmt(pr.area_after_um, 1),
                std::to_string(pr.buffers_inserted),
                std::to_string(pr.sinks_rewired),
                std::to_string(pr.gates_removed),
                std::to_string(pr.paths_optimized),
                util::fmt(pr.runtime_ms, 1)});
  std::printf("\npass pipeline:\n%s", pp.str().c_str());

  // --- before/after -------------------------------------------------------------
  util::Rng rng_after = ctx.make_rng(1);
  const power::PowerReport p_after = proxy.estimate(nl, rng_after);

  util::Table t({"metric", "before", "after"});
  t.set_align(1, util::Align::Right);
  t.set_align(2, util::Align::Right);
  t.add_row({"critical delay (ps)", util::fmt(report.initial_delay_ps, 1),
             util::fmt(report.final_delay_ps, 1)});
  t.add_row({"sum W (um)", util::fmt(p_before.area_um, 1),
             util::fmt(p_after.area_um, 1)});
  t.add_row({"dynamic power (uW @100MHz)", util::fmt(p_before.dynamic_uw, 1),
             util::fmt(p_after.dynamic_uw, 1)});
  t.add_row({"leakage (uW)", util::fmt(p_before.leakage_uw, 2),
             util::fmt(p_after.leakage_uw, 2)});
  std::printf("\n%s", t.str().c_str());
  std::printf("\nconstraint %s after %zu path optimisations\n",
              report.met ? "MET" : "NOT met", report.total_paths_optimized());

  // Per-path protocol decisions (first few).
  if (const core::CircuitResult* result = report.protocol();
      result && !result->per_path.empty()) {
    util::Table d({"path", "domain", "method", "delay (ps)", "area (um)"});
    const std::size_t n = std::min<std::size_t>(result->per_path.size(), 6);
    for (std::size_t i = 0; i < n; ++i) {
      const core::PathDecision& pd = result->per_path[i];
      d.add_row({std::to_string(i + 1), core::to_string(pd.domain),
                 core::to_string(pd.method), util::fmt(pd.delay_ps, 1),
                 util::fmt(pd.area_um, 1)});
    }
    std::printf("\nprotocol decisions (first %zu paths):\n%s", n,
                d.str().c_str());
  }

  // Final sign-off style reports (STA over the possibly-restructured
  // netlist).
  const timing::Sta sta_after(nl, dm);
  const timing::StaResult final_sta = sta_after.run();
  timing::ReportOptions ropt;
  ropt.tc_ps = tc;
  ropt.max_paths = 1;
  std::printf("\n%s", timing::report_paths(nl, sta_after, final_sta, ropt).c_str());
  std::printf("%s",
              timing::report_slack_histogram(nl, sta_after, final_sta, ropt).c_str());
  return report.met ? 0 : 1;
}
