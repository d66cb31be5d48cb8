// De Morgan restructuring demo — the paper's §4.2 on a real netlist:
// rewrite the inefficient NOR gates of a circuit as NAND + inverters,
// prove functional equivalence by exhaustive/random simulation, and show
// what the rewrite buys on the critical path.

#include <cstdio>

#include "pops/api/api.hpp"
#include "pops/core/bounds.hpp"
#include "pops/core/restructure.hpp"
#include "pops/core/sensitivity.hpp"
#include "pops/netlist/bench_io.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/sta.hpp"
#include "pops/util/rng.hpp"
#include "pops/util/table.hpp"

int main() {
  using namespace pops;
  using liberty::CellKind;

  api::OptContext ctx;
  const liberty::Library& lib = ctx.lib();
  const timing::DelayModel& dm = ctx.dm();

  // --- netlist-level rewrite with equivalence proof ----------------------------
  netlist::Netlist nl = netlist::make_benchmark(lib, "fpd");
  netlist::Netlist original = nl;

  std::vector<netlist::NodeId> nors;
  for (netlist::NodeId id : nl.gates()) {
    const CellKind k = nl.node(id).kind;
    if (k == CellKind::Nor2 || k == CellKind::Nor3 || k == CellKind::Nor4)
      nors.push_back(id);
  }
  std::printf("circuit fpd: %zu gates, of which %zu NOR gates\n",
              nl.stats().n_gates, nors.size());

  for (netlist::NodeId id : nors) core::demorgan_nor_to_nand(nl, id);
  nl.validate();

  util::Rng rng = ctx.make_rng(42);
  const bool equal = netlist::equivalent(original, nl, rng, 512);
  std::printf("rewrote %zu NORs -> NAND + inverters; equivalence check: %s\n",
              nors.size(), equal ? "PASS" : "FAIL");
  std::printf("gate count %zu -> %zu (conservation inverters added)\n\n",
              original.stats().n_gates, nl.stats().n_gates);

  // --- what it buys on a critical path ------------------------------------------
  // Path-level view: the NOR-heavy path of the original circuit vs its
  // De Morgan rewrite, both sized to the same constraint.
  const timing::Sta sta(original, dm);
  const timing::TimedPath tp = sta.critical_path(sta.run());
  timing::BoundedPath path =
      timing::BoundedPath::extract(original, tp, dm.default_input_slew_ps());

  const core::FlimitTable& table = ctx.flimits();
  const core::PathBounds bounds = core::compute_bounds(path, dm);
  const core::RestructureResult rr = core::restructure_path(path, dm, table);

  util::Table t({"implementation", "Tmin (ps)", "area @1.3Tmin (um)"});
  t.set_align(1, util::Align::Right);
  t.set_align(2, util::Align::Right);

  const double tc = 1.3 * bounds.tmin_ps;
  const core::SizingResult s_orig = core::size_for_constraint(path, dm, tc);
  t.add_row({"original (NOR)", util::fmt(bounds.tmin_ps, 1),
             s_orig.feasible ? util::fmt(s_orig.area_um, 1) : "infeasible"});

  if (rr.gates_restructured > 0) {
    const core::PathBounds rb = core::compute_bounds(rr.path, dm);
    const core::SizingResult s_re = core::size_for_constraint(rr.path, dm, tc);
    t.add_row({"restructured (NAND)", util::fmt(rb.tmin_ps, 1),
               s_re.feasible
                   ? util::fmt(s_re.area_um + rr.off_path_area_um, 1)
                   : "infeasible"});
    std::printf("critical path: %zu NOR stage(s) rewritten, %zu off-path "
                "inverters charged\n",
                rr.gates_restructured, rr.off_path_inverters);
  } else {
    std::printf("critical path has no overloaded NOR stages at its current "
                "sizing — nothing to rewrite\n");
  }
  std::printf("%s", t.str().c_str());
  return equal ? 0 : 1;
}
