// IncrementalSta — incremental-vs-full equivalence.
//
// The analyzer's contract is *bit-identity*: after any supported mutation
// sequence (gate resizes, buffer insertions with re-pointed sinks), every
// maintained quantity — arrivals, slews, recorded arcs, `prev` state, the
// downstream K-paths bounds, the critical delay/endpoint — must equal a
// cold Sta::run() / Sta::downstream_delays() bit for bit, and the
// enumeration built on top (k_critical_paths) must return identical
// paths. The fuzz suites below drive random mutation sequences on c17 /
// c432 / c880 under BOTH delay-model backends (closed-form and table) and
// assert the identity after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "pops/core/buffer.hpp"
#include "pops/core/netopt.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/sta.hpp"
#include "pops/timing/table_model.hpp"
#include "pops/util/json.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using netlist::Netlist;
using netlist::NodeId;
using timing::ClosedFormModel;
using timing::DelayModel;
using timing::Edge;
using timing::IncrementalSta;
using timing::Sta;
using timing::StaResult;
using timing::TableModel;
using timing::TimedPath;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The maintained arc table must equal a cold run's bit for bit, and every
/// used slot must hold a fresh model evaluation at the netlist's current
/// state: the arc (pin p, in-edge ein) -> out of gate g is
/// delay(cell, out, slew(fanin p, ein), cin(g), load(g) + cpar(g)) times
/// the Vt derate, in slot 2p + out (unate) or 4p + 2out + ein (XOR/XNOR).
/// Unused slots hold 0. The recorded fanins are the netlist's, padded with
/// kNoNode.
void expect_arc_table(const Netlist& nl, const DelayModel& dm,
                      const StaResult& warm, const StaResult& cold,
                      const char* when) {
  ASSERT_EQ(warm.arc_ps.size(), nl.size()) << when;
  ASSERT_EQ(cold.arc_ps.size(), nl.size()) << when;
  ASSERT_EQ(warm.arc_fanin.size(), nl.size()) << when;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    for (std::size_t a = 0; a < timing::kArcSlots; ++a)
      EXPECT_TRUE(same_bits(warm.arc_ps[i][a], cold.arc_ps[i][a]))
          << when << ": arc " << a << " of node " << i;
    const auto id = static_cast<NodeId>(i);
    const netlist::Node& node = nl.node(id);
    std::array<NodeId, timing::kMaxFanin> want_fanin = timing::kNoFanins;
    std::copy(node.fanins.begin(), node.fanins.end(), want_fanin.begin());
    EXPECT_EQ(warm.arc_fanin[i], want_fanin) << when << ": node " << i;
    EXPECT_EQ(cold.arc_fanin[i], want_fanin) << when << ": node " << i;
    std::array<double, timing::kArcSlots> want{};
    if (!node.is_input) {
      const liberty::Cell& cell = nl.cell_of(id);
      const bool non_unate = cell.kind == liberty::CellKind::Xor2 ||
                             cell.kind == liberty::CellKind::Xnor2;
      const double cin = nl.cin_ff(id);
      const double cload = nl.load_ff(id) + nl.cpar_ff(id);
      for (std::size_t p = 0; p < node.fanins.size(); ++p) {
        for (Edge out : {Edge::Rise, Edge::Fall}) {
          for (Edge ein : {Edge::Rise, Edge::Fall}) {
            const Edge cause = cell.inverting ? timing::flip(out) : out;
            if (!non_unate && ein != cause) continue;
            const std::size_t slot =
                non_unate
                    ? 4 * p + 2 * StaResult::idx(out) + StaResult::idx(ein)
                    : 2 * p + StaResult::idx(out);
            want[slot] =
                dm.delay_ps(cell, out, warm.slew(node.fanins[p], ein), cin,
                            cload) *
                dm.vt_derate(node.vt, out);
          }
        }
      }
    }
    for (std::size_t a = 0; a < timing::kArcSlots; ++a)
      EXPECT_TRUE(same_bits(warm.arc_ps[i][a], want[a]))
          << when << ": arc " << a << " of node " << i
          << " vs a fresh model evaluation";
  }
}

/// Full bitwise comparison of the maintained state against a cold run,
/// including the K-paths enumeration (k = 8).
void expect_bit_identical(const Netlist& nl, const DelayModel& dm,
                          const IncrementalSta& inc, const char* when) {
  const Sta sta(nl, dm);
  const StaResult cold = sta.run();
  const StaResult& warm = inc.result();

  ASSERT_EQ(warm.arrival_ps.size(), cold.arrival_ps.size()) << when;
  for (std::size_t i = 0; i < cold.arrival_ps.size(); ++i) {
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_TRUE(same_bits(warm.arrival_ps[i][e], cold.arrival_ps[i][e]))
          << when << ": arrival of node " << i << " edge " << e;
      EXPECT_TRUE(same_bits(warm.slew_ps[i][e], cold.slew_ps[i][e]))
          << when << ": slew of node " << i << " edge " << e;
      EXPECT_EQ(warm.prev[i][e], cold.prev[i][e])
          << when << ": prev of node " << i << " edge " << e;
    }
  }
  expect_arc_table(nl, dm, warm, cold, when);
  EXPECT_TRUE(same_bits(warm.critical_delay_ps, cold.critical_delay_ps))
      << when;
  EXPECT_EQ(warm.critical_endpoint, cold.critical_endpoint) << when;

  const std::vector<double> cold_down = sta.downstream_delays(cold);
  const std::vector<double>& warm_down = inc.downstream();
  ASSERT_EQ(warm_down.size(), cold_down.size()) << when;
  for (std::size_t v = 0; v < cold_down.size(); ++v)
    EXPECT_TRUE(same_bits(warm_down[v], cold_down[v]))
        << when << ": downstream of vertex " << v;

  const std::vector<TimedPath> cold_paths = sta.k_critical_paths(cold, 8);
  const std::vector<TimedPath> warm_paths = inc.k_critical_paths(8);
  ASSERT_EQ(warm_paths.size(), cold_paths.size()) << when;
  for (std::size_t p = 0; p < cold_paths.size(); ++p) {
    EXPECT_TRUE(same_bits(warm_paths[p].delay_ps, cold_paths[p].delay_ps))
        << when << ": path " << p;
    EXPECT_EQ(warm_paths[p].points, cold_paths[p].points)
        << when << ": path " << p;
  }

  // The maintained required/slack vectors must match the monolithic
  // backward sweep bit for bit, at the current critical delay as tc.
  const double tc = cold.critical_delay_ps;
  const std::vector<std::array<double, 2>> cold_req =
      sta.required_times(cold, tc);
  const std::vector<std::array<double, 2>>& warm_req = inc.required_times(tc);
  ASSERT_EQ(warm_req.size(), cold_req.size()) << when;
  for (std::size_t i = 0; i < cold_req.size(); ++i)
    for (std::size_t e = 0; e < 2; ++e)
      EXPECT_TRUE(same_bits(warm_req[i][e], cold_req[i][e]))
          << when << ": required of node " << i << " edge " << e;
  const std::vector<double> cold_slack = sta.slacks(cold, tc);
  const std::vector<double>& warm_slack = inc.slacks(tc);
  ASSERT_EQ(warm_slack.size(), cold_slack.size()) << when;
  for (std::size_t i = 0; i < cold_slack.size(); ++i)
    EXPECT_TRUE(same_bits(warm_slack[i], cold_slack[i]))
        << when << ": slack of node " << i;

  // The built-in checker must agree (it throws on divergence).
  EXPECT_NO_THROW(inc.check_against_full()) << when;
}

double counter_value(const char* name) {
  const util::Json snap = obs::Registry::global().snapshot_json();
  const util::Json* counters = snap.find("counters");
  if (counters == nullptr) return 0.0;
  const util::Json* cell = counters->find(name);
  return cell == nullptr ? 0.0 : cell->as_number();
}

/// A random realisable drive for `id`.
double random_drive(const Netlist& nl, util::Rng& rng) {
  const double lo = nl.lib().wmin_um();
  const double hi = nl.lib().wmax_um();
  return lo + (hi - lo) * rng.uniform();
}

struct BackendCase {
  const char* label;
  const DelayModel& dm;
};

class Backends {
 public:
  explicit Backends(const liberty::Library& lib)
      : cf_(lib), tm_(TableModel::characterize(cf_)) {}
  std::vector<BackendCase> cases() const {
    return {{"closed-form", cf_}, {"table", tm_}};
  }

 private:
  ClosedFormModel cf_;
  TableModel tm_;
};

liberty::Library test_lib() {
  return liberty::Library(process::Technology::cmos025());
}

// ----- cold runs --------------------------------------------------------------

TEST(IncrementalSta, ColdRunMatchesSta) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const char* name : {"c17", "c432", "c880"}) {
    for (const BackendCase& bc : backends.cases()) {
      Netlist nl = netlist::make_benchmark(lib, name);
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();
      expect_bit_identical(nl, bc.dm, inc, name);
    }
  }
}

TEST(IncrementalSta, ResultBeforeRunThrows) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c17");
  IncrementalSta inc(nl, cf);
  EXPECT_FALSE(inc.has_result());
  EXPECT_THROW(inc.result(), std::logic_error);
  EXPECT_THROW(inc.downstream(), std::logic_error);
}

TEST(IncrementalSta, UpdateWithoutRunFullRunsCold) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c17");
  IncrementalSta inc(nl, cf);
  inc.update({});  // falls back to run_full
  expect_bit_identical(nl, cf, inc, "update-before-run");
}

// ----- no-op updates ----------------------------------------------------------

TEST(IncrementalSta, NoOpUpdateKeepsResult) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c432");
  IncrementalSta inc(nl, cf);
  inc.run_full();

  // Empty dirty set, and a dirty set whose "mutation" wrote back the
  // identical drive: both must leave the state bit-identical.
  inc.update({});
  expect_bit_identical(nl, cf, inc, "empty dirty set");

  const NodeId g = nl.gates().front();
  nl.set_drive(g, nl.drive(g));
  const std::vector<NodeId> dirty{g};
  inc.update(dirty);
  expect_bit_identical(nl, cf, inc, "identical-size write-back");
}

// ----- fuzz: random resizes ---------------------------------------------------

TEST(IncrementalSta, ResizeFuzzBitIdenticalBothBackends) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const char* name : {"c17", "c432", "c880"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      const std::vector<NodeId> gates = nl.gates();
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();

      util::Rng rng(0xC0FFEEu);
      const int steps = nl.size() > 100 ? 12 : 25;
      for (int step = 0; step < steps; ++step) {
        const std::size_t k =
            static_cast<std::size_t>(rng.uniform_int(1, 4));
        std::vector<NodeId> dirty;
        for (std::size_t i = 0; i < k; ++i) {
          const NodeId g = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
          nl.set_drive(g, random_drive(nl, rng));
          dirty.push_back(g);  // duplicates allowed by contract
        }
        inc.update(dirty);
        expect_bit_identical(nl, bc.dm, inc, "resize step");
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ----- fuzz: buffer insertion + resizes ---------------------------------------

TEST(IncrementalSta, BufferAndResizeFuzzBitIdenticalBothBackends) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const char* name : {"c17", "c432", "c880"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();

      util::Rng rng(0xBEEFu);
      const int steps = nl.size() > 100 ? 8 : 16;
      for (int step = 0; step < steps; ++step) {
        const std::vector<NodeId> gates = nl.gates();  // grows as we insert
        if (rng.uniform() < 0.5) {
          // Insert a buffer that captures a strict subset of a multi-sink
          // net (the shield pass's edit shape), then size it.
          NodeId driver = netlist::kNoNode;
          for (int tries = 0; tries < 50; ++tries) {
            const NodeId cand = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
            if (nl.fanouts(cand).size() >= 2) {
              driver = cand;
              break;
            }
          }
          if (driver == netlist::kNoNode) continue;
          const std::vector<NodeId> sinks = nl.fanouts(driver);
          std::vector<NodeId> moved;
          for (NodeId s : sinks)
            if (moved.empty() || rng.uniform() < 0.5) moved.push_back(s);
          if (moved.size() == sinks.size()) moved.pop_back();
          if (moved.empty()) continue;
          const NodeId buf = nl.insert_buffer(
              driver, liberty::CellKind::Buf,
              nl.fresh_name(nl.node(driver).name + "_fz"), moved);
          nl.set_drive(buf, random_drive(nl, rng));
          std::vector<NodeId> dirty = moved;
          dirty.push_back(driver);
          dirty.push_back(buf);
          inc.update(dirty, /*structure_changed=*/true);
        } else {
          const NodeId g = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
          nl.set_drive(g, random_drive(nl, rng));
          const std::vector<NodeId> dirty{g};
          inc.update(dirty);
        }
        expect_bit_identical(nl, bc.dm, inc, "mutation step");
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ----- fuzz: the shield's edit shape keeps the arc table exact ---------------

// The backward queries and the arrival-only kernel read the arc table the
// forward pass records, so a stale entry would silently skew slacks and
// arrivals. Replay the shield's edit (keep the least-slack sink direct,
// buffer the rest, size the buffer to its load, query slacks at the moving
// critical delay) between random resizes, and compare the table after
// every update; then walk gates to high Vt one at a time, as MultiVtPass
// does, where most of each cone is re-timed without the model.
TEST(IncrementalSta, ArcTableExactUnderShieldEditsBothBackends) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  const int high_vt = static_cast<int>(lib.tech().n_vt_classes()) - 1;
  ASSERT_GT(high_vt, 0);
  for (const char* name : {"c432", "c880"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();

      util::Rng rng(0x57A6Eu);
      int shield_edits = 0;
      for (int step = 0; step < 24; ++step) {
        const std::vector<NodeId> gates = nl.gates();
        NodeId g = netlist::kNoNode;
        for (int tries = 0; tries < 50; ++tries) {
          g = gates[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(gates.size()) - 1))];
          if (step % 2 != 0 || nl.fanouts(g).size() >= 2) break;
        }
        std::vector<NodeId> dirty;
        bool structural = false;
        if (step % 2 == 0 && nl.fanouts(g).size() >= 2) {
          const std::vector<double>& slack =
              inc.slacks(inc.result().critical_delay_ps);
          const std::vector<NodeId> sinks = nl.fanouts(g);
          NodeId keep = sinks.front();
          for (NodeId s : sinks)
            if (slack[static_cast<std::size_t>(s)] <
                slack[static_cast<std::size_t>(keep)])
              keep = s;
          for (NodeId s : sinks)
            if (s != keep) dirty.push_back(s);
          const NodeId buf = nl.insert_buffer(
              g, liberty::CellKind::Buf, nl.fresh_name("sh"), dirty);
          const liberty::Cell& bufc = lib.cell(liberty::CellKind::Buf);
          nl.set_drive(buf,
                       bufc.wn_for_cin(lib.tech(), nl.load_ff(buf) / 4.0));
          dirty.push_back(g);
          dirty.push_back(buf);
          structural = true;
          ++shield_edits;
        } else {
          nl.set_drive(g, random_drive(nl, rng));
          dirty.push_back(g);
        }
        inc.update(dirty, structural);
        expect_arc_table(nl, bc.dm, inc.result(), Sta(nl, bc.dm).run(),
                         structural ? "shield edit" : "resize");
        EXPECT_NO_THROW(inc.check_against_full());
        if (HasFatalFailure()) return;
      }
      EXPECT_GE(shield_edits, 6);

      const double full_before = counter_value("sta.nodes_full");
      const double arrival_only_before =
          counter_value("sta.nodes_arrival_only");
      (void)inc.slacks(inc.result().critical_delay_ps * 1.1);
      const std::vector<NodeId> gates = nl.gates();
      for (int flip = 0; flip < 40; ++flip) {
        const NodeId g = gates[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(gates.size()) - 1))];
        nl.set_vt_class(g, nl.vt_class(g) == 0 ? high_vt : 0);
        const NodeId dirty[] = {g};
        inc.update(dirty);
        expect_arc_table(nl, bc.dm, inc.result(), Sta(nl, bc.dm).run(),
                         "vt flip");
        if (HasFatalFailure()) return;
      }
      EXPECT_NO_THROW(inc.check_against_full());
      EXPECT_GT(counter_value("sta.nodes_full"), full_before);
      EXPECT_GT(counter_value("sta.nodes_arrival_only"), arrival_only_before);
    }
  }
}

// ----- structural growth: appended PIs and gates ------------------------------

TEST(IncrementalSta, AppendedInputAndGateBitIdentical) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c17");
  IncrementalSta inc(nl, cf);
  inc.run_full();

  // Grow the netlist: a fresh PI feeding a new output gate that also
  // loads an existing gate (whose fanout set therefore changes).
  const NodeId x = nl.gates().front();
  const NodeId p = nl.add_input("p_new");
  const NodeId g = nl.add_gate(liberty::CellKind::Nand2, "g_new", {p, x});
  nl.mark_output(g, 25.0);

  const std::vector<NodeId> dirty{p, g, x};
  inc.update(dirty, /*structure_changed=*/true);
  expect_bit_identical(nl, cf, inc, "appended PI + gate");
}

// ----- PO annotation without a timing change ---------------------------------

// update() rescans the POs for the critical delay only when a seed or an
// arrival-changed node is a PO, or the structure changed. Marking a
// dangling chain's end as a PO with zero external load moves no arrival
// and no connectivity — only the seed-is-PO condition sees it, and the
// new PO is the latest arrival of the circuit.
TEST(IncrementalSta, MarkOutputWithoutTimingChangeMovesCritical) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const BackendCase& bc : backends.cases()) {
    SCOPED_TRACE(bc.label);
    Netlist nl = netlist::make_benchmark(lib, "c17");
    NodeId end = nl.inputs().front();
    for (int i = 0; i < 12; ++i)
      end = nl.add_gate(liberty::CellKind::Inv, "chain" + std::to_string(i),
                        {end});
    IncrementalSta inc(nl, bc.dm);
    const double before = inc.run_full().critical_delay_ps;
    ASSERT_GT(inc.result().arrival(end, Edge::Rise), before);

    nl.mark_output(end, 0.0);
    const NodeId dirty[] = {end};
    inc.update(dirty);
    EXPECT_TRUE(same_bits(inc.result().critical_delay_ps,
                          inc.result().arrival(end, Edge::Rise)) ||
                same_bits(inc.result().critical_delay_ps,
                          inc.result().arrival(end, Edge::Fall)));
    expect_bit_identical(nl, bc.dm, inc, "zero-load PO mark");
  }
}

// ----- critical path reconstruction -------------------------------------------

TEST(IncrementalSta, CriticalPathMatchesColdAfterUpdates) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c432");
  const std::vector<NodeId> gates = nl.gates();
  IncrementalSta inc(nl, cf);
  inc.run_full();

  util::Rng rng(7u);
  for (int step = 0; step < 10; ++step) {
    const NodeId g = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
    nl.set_drive(g, random_drive(nl, rng));
    const std::vector<NodeId> dirty{g};
    inc.update(dirty);

    const Sta sta(nl, cf);
    const StaResult cold = sta.run();
    const TimedPath a = inc.critical_path();
    const TimedPath b = sta.critical_path(cold);
    EXPECT_TRUE(same_bits(a.delay_ps, b.delay_ps));
    EXPECT_EQ(a.points, b.points);
  }
}

// ----- maintained slacks across tc changes ------------------------------------

// The slack/required caches are keyed on the tc bit pattern: queries at a
// new tc re-materialize, queries at the cached tc are maintained
// incrementally. Interleave resizes with queries at several targets and
// demand bitwise identity with the monolithic sweep for every one.
TEST(IncrementalSta, SlacksAtVaryingTcBitIdentical) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const char* name : {"c17", "c432"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      const std::vector<NodeId> gates = nl.gates();
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();

      util::Rng rng(0x51ACu);
      for (int step = 0; step < 10; ++step) {
        const NodeId g = gates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1))];
        nl.set_drive(g, random_drive(nl, rng));
        const std::vector<NodeId> dirty{g};
        inc.update(dirty);

        const Sta sta(nl, bc.dm);
        const StaResult cold = sta.run();
        for (const double ratio : {0.8, 1.0, 1.25}) {
          const double tc = ratio * cold.critical_delay_ps;
          const std::vector<double> want = sta.slacks(cold, tc);
          const std::vector<double>& got = inc.slacks(tc);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_TRUE(same_bits(got[i], want[i]))
                << "step " << step << " tc-ratio " << ratio << " node " << i;
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// ----- deferred backward upkeep: many edits between slack reads -------------

/// A random node that `sink` can be re-pointed to without closing a cycle:
/// any node outside the fanout cone of `sink`.
NodeId random_non_descendant(const Netlist& nl, NodeId sink, util::Rng& rng) {
  std::vector<char> below(nl.size(), 0);
  std::vector<NodeId> stack{sink};
  below[static_cast<std::size_t>(sink)] = 1;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId g : nl.fanouts(id))
      if (!below[static_cast<std::size_t>(g)]) {
        below[static_cast<std::size_t>(g)] = 1;
        stack.push_back(g);
      }
  }
  std::vector<NodeId> ok;
  for (std::size_t i = 0; i < nl.size(); ++i)
    if (!below[i]) ok.push_back(static_cast<NodeId>(i));
  return ok[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(ok.size()) - 1))];
}

/// One random edit of a kind the engine sees — a resize, a Vt flip, a
/// shield-shaped buffer insertion, an inverter-cancel-shaped rewire, or an
/// arbitrary acyclic rewire that can break the engine's topological
/// positions — applied to `nl` and reported to `inc`. Returns whether the
/// structure changed.
bool random_edit(Netlist& nl, IncrementalSta& inc, util::Rng& rng,
                 int high_vt) {
  auto pick_gate = [&] {
    const std::vector<NodeId> gates = nl.gates();
    return gates[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(gates.size()) - 1))];
  };
  const double kind = rng.uniform();
  const NodeId g = pick_gate();
  std::vector<NodeId> dirty{g};
  bool structure = false;
  if (kind < 0.4) {
    nl.set_drive(g, random_drive(nl, rng));
  } else if (kind < 0.55 && high_vt > 0) {
    nl.set_vt_class(g, nl.vt_class(g) == 0 ? high_vt : 0);
  } else if (kind < 0.7 && nl.fanouts(g).size() >= 2) {
    const NodeId sink = nl.fanouts(g).front();
    const NodeId y = random_non_descendant(nl, sink, rng);
    nl.rewire_fanin(sink, g, y);
    dirty = {sink, g, y};
    structure = true;
  } else if (kind < 0.85 && nl.fanouts(g).size() >= 2) {
    std::vector<NodeId> moved = nl.fanouts(g);
    moved.erase(moved.begin());
    const NodeId buf = nl.insert_buffer(g, liberty::CellKind::Buf,
                                        nl.fresh_name("df"), moved);
    nl.set_drive(buf, random_drive(nl, rng));
    dirty.insert(dirty.end(), moved.begin(), moved.end());
    dirty.push_back(buf);
    structure = true;
  } else if (!nl.node(g).fanins.empty() &&
             !nl.node(nl.node(g).fanins.front()).is_input &&
             !nl.fanouts(g).empty() &&
             (nl.fanouts(g).size() >= 2 || nl.node(g).is_output)) {
    // Re-point one sink of g at g's first fanin's first fanin (an
    // ancestor, so no cycle): both endpoints plus the sink dirty.
    const NodeId d = nl.node(g).fanins.front();
    const NodeId x = nl.node(d).fanins.front();
    const NodeId sink = nl.fanouts(g).back();
    nl.rewire_fanin(sink, g, x);
    dirty = {sink, g, x};
    structure = true;
  } else {
    nl.set_drive(g, random_drive(nl, rng));
  }
  inc.update(dirty, structure);
  return structure;
}

// update() only records its required-time seeds; slacks()/required_times()
// fold every pending update into one pass. Batch 1–40 random edits of
// every kind the engine sees (resizes, Vt flips, shield-shaped buffer
// insertions, inverter-cancel-shaped rewires, and arbitrary acyclic
// rewires that break the engine's topological positions and force a
// renumbering) between reads, switch tc at random (which drops the
// pending work), and demand cold bits every read.
TEST(IncrementalSta, DeferredBackwardUpkeepMatchesCold) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  const int high_vt = static_cast<int>(lib.tech().n_vt_classes()) - 1;
  const double rebuilds_before = counter_value("sta.order_rebuilds");
  for (const char* name : {"c432", "c1355", "c7552"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();
      util::Rng rng(0xDEFE4u);

      double tc = inc.result().critical_delay_ps;
      const int reads = nl.size() > 2000 ? 4 : 8;
      int structural = 0;
      for (int read = 0; read < reads; ++read) {
        const int edits = static_cast<int>(rng.uniform_int(1, 40));
        for (int e = 0; e < edits; ++e)
          structural += random_edit(nl, inc, rng, high_vt) ? 1 : 0;

        const Sta sta(nl, bc.dm);
        const StaResult cold = sta.run();
        if (rng.uniform() < 0.5)
          tc = cold.critical_delay_ps * rng.uniform(0.8, 1.25);
        const std::vector<std::array<double, 2>> want_req =
            sta.required_times(cold, tc);
        const std::vector<double> want_slack = sta.slacks(cold, tc);
        const std::vector<std::array<double, 2>>& got_req =
            inc.required_times(tc);
        ASSERT_EQ(got_req.size(), want_req.size());
        for (std::size_t i = 0; i < want_req.size(); ++i)
          for (std::size_t e = 0; e < 2; ++e)
            EXPECT_TRUE(same_bits(got_req[i][e], want_req[i][e]))
                << "read " << read << " required of node " << i;
        const std::vector<double>& got_slack = inc.slacks(tc);
        ASSERT_EQ(got_slack.size(), want_slack.size());
        for (std::size_t i = 0; i < want_slack.size(); ++i)
          EXPECT_TRUE(same_bits(got_slack[i], want_slack[i]))
              << "read " << read << " slack of node " << i;
        EXPECT_NO_THROW(inc.check_against_full());
        if (HasFatalFailure() || HasFailure()) return;
      }
      EXPECT_GE(structural, 1);
    }
  }
  // Some arbitrary rewire broke the positions and took the fallback.
  EXPECT_GT(counter_value("sta.order_rebuilds"), rebuilds_before);

  // The shield's edits (buffer between a driver and its later sinks)
  // always fit the engine's position gaps: a whole pass on c7552 places
  // every buffer in place and never renumbers.
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c7552");
  IncrementalSta inc(nl, cf);
  inc.run_full();
  const double shield_before = counter_value("sta.order_rebuilds");
  const core::ShieldReport report =
      core::shield_high_fanout_nets(nl, cf, core::FlimitTable{}, {}, &inc);
  EXPECT_GT(report.buffers_inserted, 0u);
  EXPECT_EQ(counter_value("sta.order_rebuilds"), shield_before);
  EXPECT_NO_THROW(inc.check_against_full());
}

// ----- sparse slack queries -------------------------------------------------

// slack(id, tc) computes required times over the unstamped part of id's
// fanout cone only, the stamps surviving updates (repaired or un-stamped)
// until tc changes. Interleave sparse queries at random nodes with every
// edit kind, compaction (after re-pointing a gate's only sink, so it dies),
// tc changes, the shield's tc (the current critical delay) and the odd
// whole-vector read, and demand Sta::slacks' cold bits for every answer.
TEST(IncrementalSta, SparseSlackQueriesMatchColdBothBackends) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  const int high_vt = static_cast<int>(lib.tech().n_vt_classes()) - 1;
  const double cone_nodes_before = counter_value("sta.required_nodes");
  std::size_t compactions = 0;
  std::size_t queries = 0;
  for (const char* name : {"c432", "c1355", "c5315"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();
      util::Rng rng(0x5BA25Eu);
      double tc = inc.result().critical_delay_ps;
      for (int step = 0; step < 40; ++step) {
        const double what = rng.uniform();
        if (what < 0.1) {
          for (NodeId g : nl.gates()) {
            if (nl.node(g).is_output || nl.fanouts(g).size() != 1) continue;
            const NodeId sink = nl.fanouts(g).front();
            const NodeId y = random_non_descendant(nl, sink, rng);
            nl.rewire_fanin(sink, g, y);
            const NodeId edit[] = {sink, g, y};
            inc.update(edit, true);
            break;
          }
          std::vector<NodeId> reloaded;
          const std::vector<NodeId> remap = nl.compact(&reloaded);
          inc.compact(remap, reloaded);
          ++compactions;
        } else if (what < 0.2) {
          tc = inc.result().critical_delay_ps * rng.uniform(0.8, 1.25);
        } else if (what < 0.3) {
          tc = inc.result().critical_delay_ps;
        } else {
          const int edits = static_cast<int>(rng.uniform_int(1, 4));
          for (int e = 0; e < edits; ++e) random_edit(nl, inc, rng, high_vt);
        }

        // Reads: any node (a cone that may span most of the circuit), a
        // node in the last quarter of the topological order (a small cone,
        // so the stamped set stays partial and edits hit its border), or
        // every sink of a multi-sink net (the shield's read).
        const Sta sta(nl, bc.dm);
        const std::vector<double> want = sta.slacks(sta.run(), tc);
        const std::vector<NodeId>& topo = nl.topo_order();
        std::vector<NodeId> reads;
        for (int r = static_cast<int>(rng.uniform_int(1, 8)); r > 0; --r) {
          const double kind = rng.uniform();
          if (kind < 0.3) {
            reads.push_back(static_cast<NodeId>(rng.uniform_int(
                0, static_cast<std::int64_t>(nl.size()) - 1)));
          } else if (kind < 0.8) {
            reads.push_back(topo[static_cast<std::size_t>(rng.uniform_int(
                static_cast<std::int64_t>(3 * topo.size() / 4),
                static_cast<std::int64_t>(topo.size()) - 1))]);
          } else {
            const NodeId g = topo[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(topo.size()) - 1))];
            if (nl.fanouts(g).size() >= 2)
              reads.insert(reads.end(), nl.fanouts(g).begin(),
                           nl.fanouts(g).end());
          }
        }
        for (NodeId id : reads) {
          EXPECT_TRUE(same_bits(inc.slack(id, tc),
                                want[static_cast<std::size_t>(id)]))
              << "step " << step << " slack of node " << id;
          ++queries;
        }
        if (rng.uniform() < 0.1) {
          const std::vector<double>& all = inc.slacks(tc);
          ASSERT_EQ(all.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_TRUE(same_bits(all[i], want[i]))
                << "step " << step << " whole-vector slack of node " << i;
        }
        EXPECT_NO_THROW(inc.check_against_full()) << "step " << step;
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(compactions, 0u);
  EXPECT_GT(queries, 0u);
  EXPECT_GT(counter_value("sta.required_nodes"), cone_nodes_before);
}

// A rewire can hand a stamped driver an unstamped sink whose own fanout
// is unstamped too: the driver cannot be repaired from final values, so
// the next query must drop its stamp (and recompute it through the new
// sink's cone) rather than keep the value that misses the new path.
TEST(IncrementalSta, SparseSlackUnstampsDriverGivenUnstampedSink) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  for (const BackendCase& bc : backends.cases()) {
    SCOPED_TRACE(bc.label);
    Netlist nl(lib);
    const NodeId a = nl.add_input("a");
    const NodeId b = nl.add_input("b");
    const NodeId s = nl.add_gate(liberty::CellKind::Inv, "s", {a});
    const NodeId t = nl.add_gate(liberty::CellKind::Inv, "t", {s});
    const NodeId u = nl.add_gate(liberty::CellKind::Inv, "u", {t});
    const NodeId y = nl.add_gate(liberty::CellKind::Inv, "y", {b});
    const NodeId z = nl.add_gate(liberty::CellKind::Inv, "z", {y});
    nl.mark_output(u, 10.0);
    nl.mark_output(z, 10.0);
    IncrementalSta inc(nl, bc.dm);
    const double tc = inc.run_full().critical_delay_ps;
    (void)inc.slack(y, tc);  // stamps y and z only

    nl.rewire_fanin(s, a, y);  // y now also drives the s-t-u chain
    const NodeId edit[] = {s, a, y};
    inc.update(edit, /*structure_changed=*/true);

    const Sta sta(nl, bc.dm);
    const std::vector<double> want = sta.slacks(sta.run(), tc);
    for (NodeId id : {y, z, s, b})
      EXPECT_TRUE(same_bits(inc.slack(id, tc),
                            want[static_cast<std::size_t>(id)]))
          << "slack of " << nl.node(id).name;
    EXPECT_NO_THROW(inc.check_against_full());
  }
}

// ----- compaction: removed and renumbered nodes ------------------------------

// IncrementalSta::compact() carries the maintained state across
// Netlist::compact(): the shield's appended buffers and inverter
// cancellation leave dead logic and ids out of topological order, and
// random acyclic rewires kill more. The bounds, slacks and a K-paths list
// are all live before compaction; afterwards every maintained quantity
// must equal a cold run bit for bit, and keep doing so under updates.
TEST(IncrementalSta, CompactMatchesColdBothBackends) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
  std::size_t removed = 0;
  std::size_t reloaded_total = 0;
  for (const char* name : {"c432", "c880", "c1355", "c5315"}) {
    for (const BackendCase& bc : backends.cases()) {
      SCOPED_TRACE(std::string(name) + " / " + bc.label);
      Netlist nl = netlist::make_benchmark(lib, name);
      IncrementalSta inc(nl, bc.dm);
      inc.run_full();
      core::shield_high_fanout_nets(nl, bc.dm, core::FlimitTable{}, {}, &inc);
      std::vector<NodeId> dirty;
      core::cancel_inverter_pairs(nl, &dirty);
      if (!dirty.empty()) inc.update(dirty, true);

      util::Rng rng(0xC0DAC7u);
      for (int e = 0; e < 30; ++e) {
        const std::vector<NodeId> gates = nl.gates();
        const NodeId g = gates[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(gates.size()) - 1))];
        if (nl.node(g).is_output || nl.fanouts(g).empty()) {
          nl.set_drive(g, random_drive(nl, rng));
          const NodeId one[] = {g};
          inc.update(one);
          continue;
        }
        // Re-point g's first sink elsewhere: g dies when that was its
        // only sink.
        const NodeId sink = nl.fanouts(g).front();
        const NodeId y = random_non_descendant(nl, sink, rng);
        nl.rewire_fanin(sink, g, y);
        const NodeId edit[] = {sink, g, y};
        inc.update(edit, true);
      }

      const double tc = inc.result().critical_delay_ps * 1.05;
      (void)inc.downstream();
      (void)inc.slacks(tc);
      (void)inc.k_critical_paths(8);
      const std::uint64_t revision = inc.revision();

      std::vector<NodeId> reloaded;
      const std::size_t before = nl.size();
      const std::vector<NodeId> remap = nl.compact(&reloaded);
      inc.compact(remap, reloaded);
      removed += before - nl.size();
      reloaded_total += reloaded.size();
      EXPECT_NE(inc.revision(), revision);
      expect_bit_identical(nl, bc.dm, inc, "after compact");
      if (HasFatalFailure()) return;

      for (int e = 0; e < 10; ++e) {
        const std::vector<NodeId> gates = nl.gates();
        const NodeId g = gates[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(gates.size()) - 1))];
        nl.set_drive(g, random_drive(nl, rng));
        const NodeId one[] = {g};
        inc.update(one);
      }
      expect_bit_identical(nl, bc.dm, inc, "resized after compact");
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(removed, 0u);
  EXPECT_GT(reloaded_total, 0u);
}

TEST(IncrementalSta, CompactIdentityKeepsRevisionAndColdEngineRestarts) {
  const liberty::Library lib = test_lib();
  const ClosedFormModel cf(lib);
  Netlist nl = netlist::make_benchmark(lib, "c432");
  IncrementalSta inc(nl, cf);
  inc.run_full();
  // A second compaction of a compacted netlist can still renumber (its
  // Kahn order differs from id order); compact until the map is the
  // identity, then check that it leaves the engine alone.
  for (int round = 0; round < 8; ++round) {
    std::vector<NodeId> reloaded;
    const std::vector<NodeId> remap = nl.compact(&reloaded);
    const std::uint64_t revision = inc.revision();
    inc.compact(remap, reloaded);
    bool identity = true;
    for (std::size_t i = 0; i < remap.size(); ++i)
      identity = identity && remap[i] == static_cast<NodeId>(i);
    if (identity) {
      EXPECT_EQ(inc.revision(), revision);
      break;
    }
    EXPECT_NE(inc.revision(), revision);
  }
  expect_bit_identical(nl, cf, inc, "after repeated compaction");

  // Without a result the engine only records the move; the next query
  // runs cold on the compacted netlist.
  Netlist dead = netlist::make_benchmark(lib, "c17");
  const NodeId po = dead.outputs().front();
  dead.add_gate(liberty::CellKind::Inv, "dangling", {po});
  IncrementalSta cold(dead, cf);
  const std::uint64_t revision = cold.revision();
  std::vector<NodeId> reloaded;
  const std::vector<NodeId> remap = dead.compact(&reloaded);
  cold.compact(remap, reloaded);
  EXPECT_NE(cold.revision(), revision);
  EXPECT_FALSE(cold.has_result());
  const std::vector<NodeId> none;
  cold.update(none);
  expect_bit_identical(dead, cf, cold, "cold after compact");
}

}  // namespace
