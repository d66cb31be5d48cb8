// Ablation — buffer insertion styles.
//
// DESIGN.md calls out a deliberate design choice in the buffer-insertion
// engine: the paper's Fig. 5 mechanism puts the buffer *in the path*
// (before the node's whole load), while this implementation additionally
// supports *shield* buffers that absorb only the off-path fanout (their
// delay leaves the critical path entirely). This ablation contrasts the
// three styles on the minimum reachable delay and on area at a hard
// constraint.

#include <cstdio>

#include "common.hpp"
#include "pops/core/bounds.hpp"
#include "pops/core/buffer.hpp"
#include "pops/core/sensitivity.hpp"

int main() {
  using namespace pops;
  using namespace bench_common;

  api::OptContext ctx;
  const liberty::Library& lib = ctx.lib();
  const timing::DelayModel& dm = ctx.dm();

  print_header(
      "Ablation — buffer styles: in-path (paper Fig. 5) vs shield vs auto",
      "shields dominate when the overload is off-path fanout; in-path "
      "buffers when it is the terminal load");

  const core::FlimitTable& table = ctx.flimits();

  util::Table t({"circuit", "Tmin sizing (ns)", "in-path (ns)", "shield (ns)",
                 "auto (ns)", "best style"});
  for (std::size_t c = 1; c < 5; ++c) t.set_align(c, util::Align::Right);

  for (const std::string& name : paper_circuit_names()) {
    PathCase pc = critical_path_case(lib, dm, name);
    const timing::BoundedPath at_tmin = core::size_for_tmin(pc.path, dm);
    const double tmin = at_tmin.delay_ps(dm);

    auto tmin_with = [&](core::InsertionStyle style) {
      core::BufferInsertionResult r =
          core::insert_buffers_local(at_tmin, dm, table, style);
      if (r.buffers_inserted == 0) return tmin;
      return core::size_for_tmin(r.path, dm).delay_ps(dm);
    };

    const double inpath = tmin_with(core::InsertionStyle::InPathOnly);
    const double shield = tmin_with(core::InsertionStyle::ShieldOnly);
    const double both = tmin_with(core::InsertionStyle::Auto);

    const char* best = "none";
    double best_v = tmin;
    if (inpath < best_v) best = "in-path", best_v = inpath;
    if (shield < best_v) best = "shield", best_v = shield;
    if (both < best_v) best = "auto", best_v = both;

    t.add_row({name, util::fmt(tmin * 1e-3, 3), util::fmt(inpath * 1e-3, 3),
               util::fmt(shield * 1e-3, 3), util::fmt(both * 1e-3, 3), best});
  }
  std::printf("%s", t.str().c_str());
  return 0;
}
