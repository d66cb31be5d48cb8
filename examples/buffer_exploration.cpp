// Buffer insertion exploration — the paper's §4.1 story on one overloaded
// node: characterise the library (Flimit per driver/gate pair), identify
// the critical node of a path, and compare the insertion styles.

#include <cstdio>

#include "pops/api/api.hpp"
#include "pops/core/bounds.hpp"
#include "pops/util/table.hpp"

int main() {
  using namespace pops;
  using liberty::CellKind;

  api::OptContext ctx;
  const liberty::Library& lib = ctx.lib();
  const timing::DelayModel& dm = ctx.dm();
  const core::FlimitTable& table = ctx.flimits();

  // --- library characterisation (the protocol's first step) -------------------
  std::printf("Flimit characterisation (fanout above which a buffer wins):\n");
  util::Table f({"driver \\ gate", "inv", "nand2", "nand3", "nor2", "nor3"});
  for (CellKind driver : {CellKind::Inv, CellKind::Nand2, CellKind::Nor2}) {
    std::vector<std::string> row{lib.cell(driver).name};
    for (CellKind gate : {CellKind::Inv, CellKind::Nand2, CellKind::Nand3,
                          CellKind::Nor2, CellKind::Nor3})
      row.push_back(util::fmt(table.get(dm, driver, gate), 2));
    f.add_row(row);
  }
  std::printf("%s\n", f.str().c_str());

  // --- a path with one massively overloaded node ------------------------------
  std::vector<timing::PathStage> stages(7);
  for (auto& st : stages) st.kind = CellKind::Inv;
  stages[3].off_path_ff = 150.0 * lib.cref_ff();  // e.g. a clock-ish fanout
  timing::BoundedPath path(lib, stages, 2.0 * lib.cref_ff(),
                           10.0 * lib.cref_ff(), timing::Edge::Rise,
                           dm.default_input_slew_ps());

  const core::PathBounds bounds = core::compute_bounds(path, dm);
  std::printf("7-inverter path, %0.f fF off-path load on node 3\n",
              150.0 * lib.cref_ff());
  std::printf("  sizing-only Tmin: %.1f ps\n", bounds.tmin_ps);

  const auto crit = core::critical_nodes(bounds.at_tmin, dm, table);
  std::printf("  critical nodes at the Tmin sizing:");
  for (std::size_t i : crit) std::printf(" %zu", i);
  std::printf("\n\n");

  util::Table t({"insertion style", "Tmin (ps)", "gain", "buffers",
                 "shield area (um)"});
  t.set_align(1, util::Align::Right);
  t.set_align(2, util::Align::Right);
  struct Row {
    const char* label;
    core::InsertionStyle style;
  };
  for (const Row& row : {Row{"in-path (paper Fig. 5)",
                             core::InsertionStyle::InPathOnly},
                         Row{"shield (off-path)",
                             core::InsertionStyle::ShieldOnly},
                         Row{"auto", core::InsertionStyle::Auto}}) {
    core::BufferInsertionResult r =
        core::insert_buffers_local(bounds.at_tmin, dm, table, row.style);
    const double tmin =
        r.buffers_inserted
            ? core::size_for_tmin(r.path, dm).delay_ps(dm)
            : bounds.tmin_ps;
    t.add_row({row.label, util::fmt(tmin, 1),
               util::fmt_percent((bounds.tmin_ps - tmin) / bounds.tmin_ps, 1),
               std::to_string(r.buffers_inserted),
               util::fmt(r.shield_area_um, 1)});
  }
  std::printf("%s", t.str().c_str());
  return 0;
}
