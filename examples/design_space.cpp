// Design-space exploration — sweep the delay constraint across the whole
// feasible range of a benchmark path and watch the Fig. 7 protocol change
// its mind: infeasible -> structure modification, hard -> buffering +
// global sizing, medium -> buffers for area, weak -> sizing only.
//
// Usage: example_design_space [circuit]

#include <cstdio>
#include <string>

#include "pops/api/api.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/timing/sta.hpp"
#include "pops/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pops;

  const std::string circuit = argc > 1 ? argv[1] : "c1355";
  api::OptContext ctx;
  const timing::DelayModel& dm = ctx.dm();

  netlist::Netlist nl = netlist::make_benchmark(ctx.lib(), circuit);
  const timing::Sta sta(nl, dm);
  const timing::TimedPath tp = sta.critical_path(sta.run());
  timing::BoundedPath path =
      timing::BoundedPath::extract(nl, tp, dm.default_input_slew_ps());

  const core::FlimitTable& table = ctx.flimits();
  const core::PathBounds bounds = core::compute_bounds(path, dm);
  std::printf("critical path of %s: %zu gates, Tmin = %.1f ps, "
              "Tmax = %.1f ps\n\n",
              circuit.c_str(), path.size(), bounds.tmin_ps, bounds.tmax_ps);

  util::Table t({"Tc/Tmin", "domain", "chosen method", "delay (ps)",
                 "area (um)", "buffers", "rewrites"});
  t.set_align(3, util::Align::Right);
  t.set_align(4, util::Align::Right);

  for (double ratio : {0.90, 0.97, 1.05, 1.15, 1.4, 1.8, 2.2, 2.8, 3.5}) {
    const double tc = ratio * bounds.tmin_ps;
    const core::ProtocolResult r = core::optimize_path(path, dm, table, tc);
    t.add_row({util::fmt(ratio, 2), core::to_string(r.domain),
               core::to_string(r.method),
               util::fmt(r.sizing.delay_ps, 1),
               util::fmt(r.total_area_um(), 1),
               std::to_string(r.buffers_inserted),
               std::to_string(r.gates_restructured)});
  }
  std::printf("%s", t.str().c_str());
  std::printf("\nreading: delay constraint satisfied at minimum area in every"
              "\nfeasible domain; below Tmin the protocol modifies the path"
              "\nstructure (buffers, then De Morgan NOR->NAND rewrites).\n");
  return 0;
}
