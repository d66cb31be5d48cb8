// Fig. 8 — "Area saving in the different constraint domain for different
// optimization methods": path implementation area for the three methods
// (pure sizing / locally-sized buffers + sizing / global buffering +
// sizing) at a weak, a medium and a hard constraint, on every benchmark.
// Paper shape: the methods are nearly equivalent at weak and medium
// constraints; at hard constraints buffer insertion with global sizing
// yields an important area saving.

#include <cstdio>

#include "common.hpp"
#include "pops/core/protocol.hpp"
#include "pops/util/csv.hpp"

int main() {
  using namespace pops;
  using namespace bench_common;

  api::OptContext ctx;
  const liberty::Library& lib = ctx.lib();
  const timing::DelayModel& dm = ctx.dm();

  print_header(
      "Fig. 8 — area per method across constraint domains",
      "weak/medium: methods comparable; hard: buffering + global sizing "
      "saves significant area (or is the only feasible method)");

  struct Domain {
    const char* label;
    double ratio;
  };
  const Domain domains[] = {
      {"hard (Tc = 1.1 Tmin)", 1.1},
      {"medium (Tc = 1.8 Tmin)", 1.8},
      {"weak (Tc = 3.0 Tmin)", 3.0},
  };

  const core::FlimitTable& table = ctx.flimits();
  util::CsvWriter csv("fig8_area_domains.csv");
  csv.row(std::vector<std::string>{"domain", "circuit", "sizing_um",
                                   "local_buff_um", "global_buff_um"});

  for (const Domain& dom : domains) {
    std::printf("\n--- %s ---\n", dom.label);
    util::Table t({"circuit", "sizing (um)", "local buff (um)",
                   "global buff (um)", "best"});
    for (std::size_t c = 1; c < 4; ++c) t.set_align(c, util::Align::Right);

    for (const std::string& name : paper_circuit_names()) {
      PathCase pc = critical_path_case(lib, dm, name);
      const core::PathBounds bounds = core::compute_bounds(pc.path, dm);
      const double tc = dom.ratio * bounds.tmin_ps;

      const core::SizingResult s = core::optimize_with_method(
          pc.path, dm, table, tc, core::Method::Sizing);
      const core::SizingResult l = core::optimize_with_method(
          pc.path, dm, table, tc, core::Method::LocalBufferSizing);
      const core::SizingResult g = core::optimize_with_method(
          pc.path, dm, table, tc, core::Method::GlobalBufferSizing);

      auto cell = [](const core::SizingResult& r) {
        return r.feasible ? util::fmt(r.area_um, 1) : std::string("infeas.");
      };
      const char* best = "-";
      double best_area = 1e300;
      if (s.feasible && s.area_um < best_area) best = "sizing", best_area = s.area_um;
      if (l.feasible && l.area_um < best_area) best = "local", best_area = l.area_um;
      if (g.feasible && g.area_um < best_area) best = "global", best_area = g.area_um;

      t.add_row({name, cell(s), cell(l), cell(g), best});
      csv.row(std::vector<std::string>{dom.label, name, util::fmt(s.area_um, 2),
                                       util::fmt(l.area_um, 2),
                                       util::fmt(g.area_um, 2)});
    }
    std::printf("%s", t.str().c_str());
  }
  std::printf("\nseries written to fig8_area_domains.csv\n");
  return 0;
}
