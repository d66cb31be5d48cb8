// Table 4 — "Comparison between buffer insertion and logic structure
// modification": implementation area of the critical paths under a hard
// and a medium constraint, using the paper's Fig. 5 buffer insertion
// ("buff") versus the De Morgan NOR->NAND rewrite ("restruct").
// Paper shape: restructuring saves 4..16% area; at the hardest
// constraints buffering alone can be infeasible (the paper's X entries).

#include <cstdio>

#include "common.hpp"
#include "pops/core/bounds.hpp"
#include "pops/core/buffer.hpp"
#include "pops/core/restructure.hpp"
#include "pops/core/sensitivity.hpp"
#include "pops/util/csv.hpp"

int main() {
  using namespace pops;
  using namespace bench_common;

  api::OptContext ctx;
  const liberty::Library& lib = ctx.lib();
  const timing::DelayModel& dm = ctx.dm();

  print_header(
      "Table 4 — buffer insertion vs De Morgan restructuring",
      "restructuring the critical NORs saves area over Fig. 5 buffering "
      "under tight constraints; 'X' marks infeasible implementations");

  const std::vector<std::string> circuits = {"c1355", "c1908", "c5315",
                                             "c7552"};
  struct Constraint {
    const char* label;
    double ratio;
  };
  const Constraint constraints[] = {
      {"hard (Tc = 1.10 Tmin)", 1.10},
      {"medium (Tc = 1.60 Tmin)", 1.60},
  };

  const core::FlimitTable& table = ctx.flimits();
  util::CsvWriter csv("table4_restructure.csv");
  csv.row(std::vector<std::string>{"constraint", "circuit", "buff_um",
                                   "restruct_um", "gain"});

  for (const Constraint& con : constraints) {
    std::printf("\n--- %s ---\n", con.label);
    util::Table t({"circuit", "method", "sum W (um)", "gain", "NORs rewritten"});
    t.set_align(2, util::Align::Right);
    t.set_align(3, util::Align::Right);

    for (const std::string& name : circuits) {
      PathCase pc = critical_path_case(lib, dm, name);
      const core::PathBounds bounds = core::compute_bounds(pc.path, dm);
      const double tc = con.ratio * bounds.tmin_ps;

      // "buff": the paper's Fig. 5 in-path insertion + global sizing.
      const core::BufferInsertionResult buf = core::insert_buffers_local(
          pc.path, dm, table, core::InsertionStyle::InPathOnly);
      const core::SizingResult buf_sized =
          core::size_for_constraint(buf.path, dm, tc);
      const double buf_area = buf_sized.area_um + buf.shield_area_um;

      // "restruct": De Morgan on the critical NORs + global sizing.
      const core::RestructureResult rr =
          core::restructure_path(pc.path, dm, table);
      const core::SizingResult re_sized =
          core::size_for_constraint(rr.path, dm, tc);
      const double re_area = re_sized.area_um + rr.off_path_area_um;

      const std::string buf_cell =
          buf_sized.feasible ? util::fmt(buf_area, 0) : std::string("X");
      const std::string re_cell =
          re_sized.feasible ? util::fmt(re_area, 0) : std::string("X");
      std::string gain = "X";
      if (buf_sized.feasible && re_sized.feasible)
        gain = util::fmt_percent((buf_area - re_area) / buf_area, 0);
      else if (re_sized.feasible && !buf_sized.feasible)
        gain = "restruct only feasible";

      t.add_row({name, "buff", buf_cell, "", ""});
      t.add_row({"", "restruct", re_cell, gain,
                 std::to_string(rr.gates_restructured)});
      t.add_rule();
      csv.row(std::vector<std::string>{con.label, name,
                                       util::fmt(buf_area, 2),
                                       util::fmt(re_area, 2), gain});
    }
    std::printf("%s", t.str().c_str());
  }
  std::printf("\nseries written to table4_restructure.csv\n");
  return 0;
}
