// Fig. 6 — "Constraint domain definition": delay-vs-area trade-off curves
// of a 13-gate array for the two methods (pure sizing, and buffer
// insertion with global sizing), swept across the constraint range. The
// three constraint domains of the protocol emerge from the crossings:
//   weak   (Tc > 2.5 Tmin)        sizing is the best solution
//   medium (1.2 < Tc/Tmin < 2.5)  buffering optional, saves area
//   hard   (Tc < 1.2 Tmin)        buffering + global sizing wins

#include <cstdio>

#include "common.hpp"
#include "pops/core/protocol.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/util/csv.hpp"

int main() {
  using namespace pops;
  using namespace bench_common;

  api::OptContext ctx;
  const liberty::Library& lib = ctx.lib();
  const timing::DelayModel& dm = ctx.dm();

  print_header(
      "Fig. 6 — delay/area fronts of a 13-gate array; constraint domains",
      "sizing curve and buffering curve cross near the 1.2*Tmin / "
      "2.5*Tmin boundaries");

  netlist::Netlist nl = netlist::make_fig6_array(lib);
  const timing::Sta sta(nl, dm);
  const timing::TimedPath tp = sta.critical_path(sta.run());
  timing::BoundedPath path =
      timing::BoundedPath::extract(nl, tp, dm.default_input_slew_ps());

  const core::FlimitTable& table = ctx.flimits();
  const core::PathBounds bounds = core::compute_bounds(path, dm);
  std::printf("workload: 13-gate array with overloaded interior nodes, "
              "Tmin = %.1f ps, Tmax = %.1f ps\n\n",
              bounds.tmin_ps, bounds.tmax_ps);

  util::Table t({"Tc/Tmin", "domain", "area sizing (um)",
                 "area buffered (um)", "winner"});
  t.set_align(2, util::Align::Right);
  t.set_align(3, util::Align::Right);

  util::CsvWriter csv("fig6_domains.csv");
  csv.row(std::vector<std::string>{"tc_over_tmin", "area_sizing_um",
                                   "area_buffered_um"});

  for (double ratio : {1.02, 1.05, 1.1, 1.15, 1.2, 1.3, 1.5, 1.8, 2.1, 2.5,
                       3.0, 3.5}) {
    const double tc = ratio * bounds.tmin_ps;
    const core::SizingResult sizing =
        core::optimize_with_method(path, dm, table, tc, core::Method::Sizing);
    const core::SizingResult buffered = core::optimize_with_method(
        path, dm, table, tc, core::Method::GlobalBufferSizing);

    const char* winner = "-";
    if (sizing.feasible && buffered.feasible)
      winner = sizing.area_um <= buffered.area_um ? "sizing" : "buffering";
    else if (buffered.feasible)
      winner = "buffering (sizing infeasible)";
    else if (sizing.feasible)
      winner = "sizing";

    t.add_row({util::fmt(ratio, 2),
               core::to_string(core::classify_constraint(tc, bounds.tmin_ps)),
               sizing.feasible ? util::fmt(sizing.area_um, 1) : "infeas.",
               buffered.feasible ? util::fmt(buffered.area_um, 1) : "infeas.",
               winner});
    csv.row(std::vector<double>{ratio, sizing.area_um, buffered.area_um});
  }
  std::printf("%s", t.str().c_str());
  std::printf("\nseries written to fig6_domains.csv\n");
  return 0;
}
