// Extension — incremental vs. cold STA round cost.
//
// The Fig. 7 protocol pays one full timing re-verification per sizing
// round; the round touches a handful of gates, so almost all of that work
// re-derives unchanged values. timing::IncrementalSta repropagates only
// the affected fanout/fan-in cones (arrivals, slews, and the K-paths
// downstream bounds), bit-identical to a cold run. This bench measures
// the per-round re-analysis cost — Sta::run() + Sta::downstream_delays()
// cold, vs. IncrementalSta::update() warm — on c432/c880/c1355 across
// dirty-set sizes, which is exactly what ProtocolPass::run_protocol pays
// per round. A structural row times the shield pass's edit — a buffer
// inserted between a driver and all but one of its sinks, then sized —
// on c1355, where the engine patches its topological positions in place.
// A vt_walk row times single Vt flips on c1355 (the walk MultiVtPass
// falls back to when its target class speeds an edge up): 200 gates
// flipped to high Vt one at a time, each followed by an update, against a
// cold Sta::run() per flip; most of each flip's cone is re-timed from the
// recorded arcs without the delay model. A vt_batch row times the walk
// MultiVtPass makes: c1355's positive-slack gates, most slack first, moved
// to high Vt in runs that double after a trial meets Tc and lose their
// tail half after a miss, each update against a cold Sta::run(). A
// compact row times the sweep pass's edit on c5315 and c7552 after
// inverter cancellation: IncrementalSta::compact() (the state carried to
// the new ids, then the seeded re-time) against the cold Sta::run() of the
// compacted netlist it replaces; like the other rows' netlist edits,
// Netlist::compact() itself is timed apart (netlist_compact_ms). A
// slack_query row times the shield pass's read on c5315 and c7552: after a
// shield-shaped buffer on the critical path has moved the critical delay
// (so no required time is valid at the new tc), the sparse
// IncrementalSta::slack() of every sink of a multi-sink net against a
// whole-vector IncrementalSta::slacks(), on two engines in the same state.
//
// Emits BENCH_incremental_sta.json for cross-PR perf tracking; the CI
// smoke (scripts/smoke_bench_incremental.sh) asserts incremental <= cold
// for the smallest dirty set, the structural row, the vt_walk row, the
// vt_batch row and the compact rows, and sink cone <= whole vector for the
// slack_query rows.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "pops/core/netopt.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/util/json.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using namespace bench_common;
using netlist::NodeId;
using timing::IncrementalSta;
using timing::Sta;

constexpr int kReps = 60;

double random_drive(const Netlist& nl, util::Rng& rng) {
  return rng.uniform(nl.lib().wmin_um(), nl.lib().wmax_um());
}

/// The shield's edit on c1355, kReps times: buffer all but the first sink
/// of a random multi-sink net, size the buffer, re-analyze.
util::Json structural_row(const api::OptContext& ctx, util::Table& t) {
  const timing::DelayModel& dm = ctx.dm();
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c1355");
  const std::size_t gates = nl.gates().size();
  const Sta sta(nl, dm);
  IncrementalSta inc(nl, dm);
  inc.run_full();
  inc.downstream();  // maintain the bounds too, like the cold round

  util::Rng rng(0x5EEDB0F0u);
  const liberty::Cell& bufc = nl.lib().cell(liberty::CellKind::Buf);
  double inc_ms = 0.0;
  double cold_ms = 0.0;
  double sink = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::vector<NodeId> all = nl.gates();
    NodeId driver = netlist::kNoNode;
    while (driver == netlist::kNoNode) {
      const NodeId g = all[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1))];
      if (nl.fanouts(g).size() >= 2) driver = g;
    }
    std::vector<NodeId> dirty(nl.fanouts(driver).begin() + 1,
                              nl.fanouts(driver).end());
    const NodeId buf = nl.insert_buffer(driver, liberty::CellKind::Buf,
                                        nl.fresh_name("sb"), dirty);
    nl.set_drive(buf, bufc.wn_for_cin(nl.lib().tech(), nl.load_ff(buf) / 4.0));
    dirty.push_back(driver);
    dirty.push_back(buf);
    inc_ms += time_ms([&] {
      sink += inc.update(dirty, /*structure_changed=*/true).critical_delay_ps;
    });
    cold_ms += time_ms([&] {
      const timing::StaResult r = sta.run();
      sink += sta.downstream_delays(r)[0] == 0.0 ? 0.0 : r.critical_delay_ps;
    });
  }
  if (sink == 0.0) std::printf(" ");
  inc.check_against_full();

  const double speedup = cold_ms / inc_ms;
  t.add_row({"c1355 (buffer)", std::to_string(gates), "insert",
             util::fmt(cold_ms / kReps, 3), util::fmt(inc_ms / kReps, 3),
             util::fmt(speedup, 1) + "x"});
  util::Json row = util::Json::object();
  row["circuit"] = "c1355";
  row["edit"] = "insert_buffer";
  row["cold_round_ms"] = cold_ms / kReps;
  row["incremental_ms"] = inc_ms / kReps;
  row["speedup"] = speedup;
  return row;
}

/// Single Vt flips on c1355: slacks read once, then kVtFlips gates
/// flipped to the high Vt class one at a time, re-timed after each.
util::Json vt_walk_row(const api::OptContext& ctx, util::Table& t) {
  constexpr int kVtFlips = 200;
  const timing::DelayModel& dm = ctx.dm();
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c1355");
  const std::vector<NodeId> gates = nl.gates();
  const int high_vt = nl.lib().tech().find_vt_class("hvt");
  const Sta sta(nl, dm);
  IncrementalSta inc(nl, dm);
  inc.run_full();
  (void)inc.slacks(inc.result().critical_delay_ps * 1.1);

  util::Rng rng(0x5EED7700u);
  double inc_ms = 0.0;
  double cold_ms = 0.0;
  double sink = 0.0;
  for (int flip = 0; flip < kVtFlips; ++flip) {
    NodeId g = netlist::kNoNode;
    while (g == netlist::kNoNode) {
      const NodeId cand = gates[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(gates.size()) - 1))];
      if (nl.vt_class(cand) == 0) g = cand;
    }
    nl.set_vt_class(g, high_vt);
    const NodeId dirty[] = {g};
    inc_ms += time_ms([&] { sink += inc.update(dirty).critical_delay_ps; });
    cold_ms += time_ms([&] { sink += sta.run().critical_delay_ps; });
  }
  if (sink == 0.0) std::printf(" ");
  inc.check_against_full();

  const double speedup = cold_ms / inc_ms;
  t.add_row({"c1355 (Vt walk)", std::to_string(gates.size()), "1 flip",
             util::fmt(cold_ms / kVtFlips, 3), util::fmt(inc_ms / kVtFlips, 3),
             util::fmt(speedup, 1) + "x"});
  util::Json row = util::Json::object();
  row["circuit"] = "c1355";
  row["flips"] = kVtFlips;
  row["cold_round_ms"] = cold_ms / kVtFlips;
  row["incremental_ms"] = inc_ms / kVtFlips;
  row["speedup"] = speedup;
  return row;
}

/// MultiVtPass's batched walk on c1355 at Tc = 1.02x its initial delay
/// (tight enough that some flips are rejected): candidates in the pass's
/// order, runs doubling after a met trial, the tail half reverted after a
/// missed one, a missed single candidate reverted and skipped.
util::Json vt_batch_row(const api::OptContext& ctx, util::Table& t) {
  const timing::DelayModel& dm = ctx.dm();
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c1355");
  const int hvt = nl.lib().tech().find_vt_class("hvt");
  const Sta sta(nl, dm);
  IncrementalSta inc(nl, dm);
  const double tc_ps = 1.02 * inc.run_full().critical_delay_ps;

  std::vector<NodeId> ids;
  {
    const std::vector<double>& slack = inc.slacks(tc_ps);
    for (const NodeId g : nl.gates())
      if (slack[static_cast<std::size_t>(g)] > 0.0) ids.push_back(g);
    std::stable_sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
      return slack[static_cast<std::size_t>(a)] >
             slack[static_cast<std::size_t>(b)];
    });
  }

  double inc_ms = 0.0;
  double cold_ms = 0.0;
  double sink = 0.0;
  std::size_t updates = 0;
  double delay_ps = 0.0;
  auto set_vt = [&](std::size_t lo, std::size_t hi, int cls) {
    for (std::size_t k = lo; k < hi; ++k) nl.set_vt_class(ids[k], cls);
    const std::span<const NodeId> dirty(ids.data() + lo, hi - lo);
    inc_ms += time_ms([&] { delay_ps = inc.update(dirty).critical_delay_ps; });
    cold_ms += time_ms([&] { sink += sta.run().critical_delay_ps; });
    ++updates;
  };
  std::size_t moved = 0;
  std::size_t run = 1;
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t hi = std::min(ids.size(), i + run);
    set_vt(i, hi, hvt);
    while (!core::tc_met(delay_ps, tc_ps) && hi - i > 1) {
      const std::size_t mid = i + (hi - i) / 2;
      set_vt(mid, hi, 0);
      hi = mid;
    }
    if (core::tc_met(delay_ps, tc_ps)) {
      moved += hi - i;
      run = 2 * (hi - i);
      i = hi;
    } else {
      set_vt(i, hi, 0);
      run = 1;
      ++i;
    }
  }
  if (sink == 0.0) std::printf(" ");
  inc.check_against_full();

  const double n = static_cast<double>(updates);
  const double speedup = cold_ms / inc_ms;
  t.add_row({"c1355 (Vt runs)", std::to_string(nl.gates().size()),
             std::to_string(ids.size()) + " cand", util::fmt(cold_ms / n, 3),
             util::fmt(inc_ms / n, 3), util::fmt(speedup, 1) + "x"});
  util::Json row = util::Json::object();
  row["circuit"] = "c1355";
  row["candidates"] = ids.size();
  row["moved"] = moved;
  row["updates"] = updates;
  row["cold_round_ms"] = cold_ms / n;
  row["incremental_ms"] = inc_ms / n;
  row["speedup"] = speedup;
  return row;
}

/// The sweep pass's edit, kReps times per circuit: a warm engine over the
/// netlist after inverter cancellation (untimed), the netlist's compaction
/// (timed apart), then the engine's compaction against the cold run of the
/// compacted netlist that the pass used to start (Kahn order included, as
/// the engine's compaction needs none).
util::Json compact_rows(const api::OptContext& ctx, util::Table& t) {
  const timing::DelayModel& dm = ctx.dm();
  util::Json rows = util::Json::array();
  for (const char* name : {"c5315", "c7552"}) {
    Netlist cleaned = netlist::make_benchmark(ctx.lib(), name);
    core::cancel_inverter_pairs(cleaned);
    double inc_ms = 0.0;
    double cold_ms = 0.0;
    double netlist_ms = 0.0;
    double sink = 0.0;
    std::size_t removed = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      Netlist nl = cleaned;
      IncrementalSta inc(nl, dm);
      inc.run_full();
      std::vector<NodeId> reloaded;
      std::vector<NodeId> remap;
      netlist_ms += time_ms([&] { remap = nl.compact(&reloaded); });
      inc_ms += time_ms([&] {
        inc.compact(remap, reloaded);
        sink += inc.result().critical_delay_ps;
      });
      cold_ms += time_ms([&] { sink += Sta(nl, dm).run().critical_delay_ps; });
      removed = cleaned.size() - nl.size();
      if (rep == 0) inc.check_against_full();
    }
    if (sink == 0.0) std::printf(" ");

    const double speedup = cold_ms / inc_ms;
    t.add_row({std::string(name) + " (compact)",
               std::to_string(cleaned.gates().size()),
               std::to_string(removed) + " dead", util::fmt(cold_ms / kReps, 3),
               util::fmt(inc_ms / kReps, 3), util::fmt(speedup, 1) + "x"});
    util::Json row = util::Json::object();
    row["circuit"] = name;
    row["gates_removed"] = removed;
    row["cold_round_ms"] = cold_ms / kReps;
    row["incremental_ms"] = inc_ms / kReps;
    row["netlist_compact_ms"] = netlist_ms / kReps;
    row["speedup"] = speedup;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The shield's slack read, kReps times per circuit: a buffer takes all
/// but one sink of a multi-sink driver on the critical path (sized like
/// the shield sizes it), both engines update, and at the new critical
/// delay one engine answers the sparse slack() of every sink of a random
/// multi-sink net while the other materializes the whole vector.
util::Json slack_query_rows(const api::OptContext& ctx, util::Table& t) {
  const timing::DelayModel& dm = ctx.dm();
  util::Json rows = util::Json::array();
  for (const char* name : {"c5315", "c7552"}) {
    Netlist nl = netlist::make_benchmark(ctx.lib(), name);
    const std::size_t n0 = nl.size();
    IncrementalSta cone(nl, dm);
    IncrementalSta whole(nl, dm);
    cone.run_full();
    whole.run_full();
    const liberty::Cell& bufc = nl.lib().cell(liberty::CellKind::Buf);
    util::Rng rng(0x5EEDC0AEu);
    double cone_ms = 0.0;
    double whole_ms = 0.0;
    std::size_t moved = 0;
    std::size_t sinks_read = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      // The edit: unload a multi-sink driver on the critical path.
      const double before = cone.result().critical_delay_ps;
      NodeId driver = netlist::kNoNode;
      for (const timing::PathPoint& p : cone.critical_path().points)
        if (nl.is_gate(p.node) && nl.fanouts(p.node).size() >= 2)
          driver = p.node;
      const std::vector<NodeId> all = nl.gates();
      while (driver == netlist::kNoNode) {
        const NodeId g = all[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1))];
        if (nl.fanouts(g).size() >= 2) driver = g;
      }
      std::vector<NodeId> dirty(nl.fanouts(driver).begin() + 1,
                                nl.fanouts(driver).end());
      const NodeId buf = nl.insert_buffer(driver, liberty::CellKind::Buf,
                                          nl.fresh_name("sq"), dirty);
      nl.set_drive(buf,
                   bufc.wn_for_cin(nl.lib().tech(), nl.load_ff(buf) / 4.0));
      dirty.push_back(driver);
      dirty.push_back(buf);
      cone.update(dirty, /*structure_changed=*/true);
      whole.update(dirty, /*structure_changed=*/true);
      const double tc = cone.result().critical_delay_ps;
      moved += tc != before ? 1 : 0;

      // The read: every sink of a random multi-sink net.
      NodeId net = netlist::kNoNode;
      while (net == netlist::kNoNode) {
        const NodeId g = all[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1))];
        if (nl.fanouts(g).size() >= 2) net = g;
      }
      const std::vector<NodeId> sinks = nl.fanouts(net);
      std::vector<double> sparse(sinks.size());
      cone_ms += time_ms([&] {
        for (std::size_t k = 0; k < sinks.size(); ++k)
          sparse[k] = cone.slack(sinks[k], tc);
      });
      const std::vector<double>* dense = nullptr;
      whole_ms += time_ms([&] { dense = &whole.slacks(tc); });
      for (std::size_t k = 0; k < sinks.size(); ++k)
        if (std::bit_cast<std::uint64_t>(sparse[k]) !=
            std::bit_cast<std::uint64_t>(
                (*dense)[static_cast<std::size_t>(sinks[k])]))
          throw std::logic_error("slack_query: sparse slack differs");
      sinks_read += sinks.size();
    }
    cone.check_against_full();

    const double speedup = whole_ms / cone_ms;
    t.add_row({std::string(name) + " (sink slacks)",
               std::to_string(n0 - nl.inputs().size()),
               std::to_string(sinks_read / kReps) + " sinks",
               util::fmt(whole_ms / kReps, 3), util::fmt(cone_ms / kReps, 3),
               util::fmt(speedup, 1) + "x"});
    util::Json row = util::Json::object();
    row["circuit"] = name;
    row["delay_moved"] = moved;
    row["sinks_per_query"] =
        static_cast<double>(sinks_read) / static_cast<double>(kReps);
    row["whole_vector_ms"] = whole_ms / kReps;
    row["sink_cone_ms"] = cone_ms / kReps;
    row["speedup"] = speedup;
    rows.push_back(std::move(row));
  }
  return rows;
}

void incremental_sta(util::Json& doc) {
  print_header(
      "Extension — incremental STA for the protocol hot loop",
      "a sizing round's re-verification costs O(changed fanout cone), not "
      "O(E); bit-identical to a cold Sta::run()");

  api::OptContext ctx;
  const timing::DelayModel& dm = ctx.dm();

  util::Table t({"circuit", "gates", "dirty", "cold round (ms)",
                 "incremental (ms)", "speedup"});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, util::Align::Right);

  util::Json circuits = util::Json::array();
  double min_speedup_dirty1 = 1e300;

  for (const std::string& name :
       {std::string("c432"), std::string("c880"), std::string("c1355")}) {
    Netlist nl = netlist::make_benchmark(ctx.lib(), name);
    const std::vector<NodeId> gates = nl.gates();
    const Sta sta(nl, dm);
    IncrementalSta inc(nl, dm);
    inc.run_full();
    // Activate bound maintenance (the protocol queries the bounds every
    // round via k_critical_paths), so update() below pays for both the
    // forward and the backward pass — like-for-like with the cold round.
    inc.downstream();

    util::Json rows = util::Json::array();
    for (const std::size_t dirty_size : {1u, 2u, 4u, 8u, 16u}) {
      util::Rng rng(0x5EED0000u + dirty_size);

      // Identical mutation stream for both timings: each rep resizes
      // `dirty_size` random gates, then re-analyzes.
      double inc_ms = 0.0;
      double cold_ms = 0.0;
      double sink = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<NodeId> dirty;
        dirty.reserve(dirty_size);
        for (std::size_t i = 0; i < dirty_size; ++i) {
          const NodeId g = gates[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(gates.size()) - 1))];
          nl.set_drive(g, random_drive(nl, rng));
          dirty.push_back(g);
        }
        inc_ms += time_ms([&] { sink += inc.update(dirty).critical_delay_ps; });
        cold_ms += time_ms([&] {
          const timing::StaResult r = sta.run();
          sink += sta.downstream_delays(r)[0] == 0.0 ? 0.0 : r.critical_delay_ps;
        });
      }
      if (sink == 0.0) std::printf(" ");  // keep the analyses observable

      // The exactness guarantee, once per configuration (outside timing).
      inc.check_against_full();

      const double speedup = cold_ms / inc_ms;
      if (dirty_size == 1) min_speedup_dirty1 = std::min(min_speedup_dirty1, speedup);
      t.add_row({name, std::to_string(gates.size()),
                 std::to_string(dirty_size), util::fmt(cold_ms / kReps, 3),
                 util::fmt(inc_ms / kReps, 3), util::fmt(speedup, 1) + "x"});

      util::Json row = util::Json::object();
      row["dirty"] = dirty_size;
      row["cold_round_ms"] = cold_ms / kReps;
      row["incremental_ms"] = inc_ms / kReps;
      row["speedup"] = speedup;
      rows.push_back(std::move(row));
    }

    util::Json entry = util::Json::object();
    entry["circuit"] = name;
    entry["gates"] = gates.size();
    entry["rows"] = std::move(rows);
    circuits.push_back(std::move(entry));
  }

  doc["circuits"] = std::move(circuits);
  doc["structural"] = structural_row(ctx, t);
  doc["vt_walk"] = vt_walk_row(ctx, t);
  doc["vt_batch"] = vt_batch_row(ctx, t);
  doc["compact"] = compact_rows(ctx, t);
  doc["slack_query"] = slack_query_rows(ctx, t);
  doc["reps"] = kReps;
  doc["min_speedup_dirty1"] = min_speedup_dirty1;
  std::printf("%s", t.str().c_str());
  std::printf("(cold round = Sta::run + downstream_delays, what the "
              "protocol paid per round before; Vt walk: Sta::run alone, as "
              "MultiVtPass never enumerates paths; sink slacks: whole-vector "
              "slacks() vs sparse slack() per sink; smallest dirty-1 speedup "
              "%.1fx)\n",
              min_speedup_dirty1);
}

}  // namespace

int main(int argc, char** argv) {
  util::Json doc = util::Json::object();
  doc["bench"] = "incremental_sta";
  incremental_sta(doc);

  return bench_common::write_bench_json(argc, argv, "incremental_sta", doc);
}
