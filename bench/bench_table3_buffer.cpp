// Table 3 — "Comparison of sizing and buffer insertion techniques": the
// minimum delay reachable on every benchmark path with pure gate sizing
// (the link equations) versus sizing plus Flimit-guided buffer insertion,
// and the resulting gain. Paper gains: 2..22% depending on the path
// structure (how overloaded its interior nodes are).

#include <cstdio>

#include "common.hpp"
#include "pops/core/bounds.hpp"
#include "pops/core/buffer.hpp"
#include "pops/util/csv.hpp"

int main() {
  using namespace pops;
  using namespace bench_common;

  api::OptContext ctx;
  const liberty::Library& lib = ctx.lib();
  const timing::DelayModel& dm = ctx.dm();

  print_header(
      "Table 3 — minimum path delay: sizing vs buffer insertion",
      "buffering lowers Tmin by 2..22% depending on path structure; "
      "never hurts (falls back to sizing)");

  util::Table t({"circuit", "method", "Tmin (ns)", "gain", "buffers",
                 "shields"});
  t.set_align(2, util::Align::Right);
  t.set_align(3, util::Align::Right);

  util::CsvWriter csv("table3_buffer.csv");
  csv.row(std::vector<std::string>{"circuit", "tmin_sizing_ns",
                                   "tmin_buffered_ns", "gain"});

  const core::FlimitTable& table = ctx.flimits();
  for (const std::string& name : paper_circuit_names()) {
    PathCase pc = critical_path_case(lib, dm, name);
    const core::PathBounds bounds = core::compute_bounds(pc.path, dm);
    const core::BufferInsertionResult buffered =
        core::min_delay_with_buffers(pc.path, dm, table);

    const double gain =
        (bounds.tmin_ps - buffered.delay_ps) / bounds.tmin_ps;
    t.add_row({name, "sizing", util::fmt(bounds.tmin_ps * 1e-3, 3), "", "",
               ""});
    t.add_row({"", "buff", util::fmt(buffered.delay_ps * 1e-3, 3),
               util::fmt_percent(gain, 0),
               std::to_string(buffered.buffers_inserted),
               std::to_string(buffered.shield_buffers)});
    t.add_rule();
    csv.row(std::vector<std::string>{name, util::fmt(bounds.tmin_ps * 1e-3, 4),
                                     util::fmt(buffered.delay_ps * 1e-3, 4),
                                     util::fmt(gain, 4)});
  }
  std::printf("%s", t.str().c_str());
  std::printf("\nseries written to table3_buffer.csv\n");
  return 0;
}
