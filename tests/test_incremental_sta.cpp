// IncrementalSta — incremental-vs-full equivalence.
//
// The analyzer's contract is *bit-identity*: after any supported mutation
// sequence (gate resizes, buffer insertions with re-pointed sinks), every
// maintained quantity — arrivals, slews, stage loads, `prev` state, the
// downstream K-paths bounds, the critical delay/endpoint — must equal a
// cold Sta::run() / Sta::downstream_delays() bit for bit, and the
// enumeration built on top (k_critical_paths) must return identical
// paths. The fuzz suites below drive random mutation sequences on c17 /
// c432 / c880 under BOTH delay-model backends (closed-form and table) and
// assert the identity after every step.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/sta.hpp"
#include "pops/timing/table_model.hpp"
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

/// The maintained stage-load table must equal a cold run's bit for bit,
/// and both must hold the netlist's current cin / cload of every gate.
void expect_stage_table(const Netlist& nl, const StaResult& warm,
                        const StaResult& cold, const char* when) {
  ASSERT_EQ(warm.stage.size(), nl.size()) << when;
  ASSERT_EQ(cold.stage.size(), nl.size()) << when;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    EXPECT_TRUE(same_bits(warm.stage[i].cin_ff, cold.stage[i].cin_ff) &&
                same_bits(warm.stage[i].cload_ff, cold.stage[i].cload_ff))
        << when << ": stage load of node " << i;
    if (nl.node(id).is_input) continue;
    EXPECT_TRUE(same_bits(warm.stage[i].cin_ff, nl.cin_ff(id)))
        << when << ": cin of node " << i;
    EXPECT_TRUE(
        same_bits(warm.stage[i].cload_ff, nl.load_ff(id) + nl.cpar_ff(id)))
        << when << ": cload of node " << i;
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
  expect_stage_table(nl, warm, cold, when);
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

// ----- fuzz: the shield's edit shape keeps the stage table exact -------------

// The backward queries read the stage-load table the forward pass records,
// so a stale entry would silently skew slacks. Replay the shield's edit
// (keep the least-slack sink direct, buffer the rest, size the buffer to
// its load, query slacks at the moving critical delay) between random
// resizes, and compare the table after every update.
TEST(IncrementalSta, StageTableExactUnderShieldEditsBothBackends) {
  const liberty::Library lib = test_lib();
  const Backends backends(lib);
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
        expect_stage_table(nl, inc.result(), Sta(nl, bc.dm).run(),
                           structural ? "shield edit" : "resize");
        EXPECT_NO_THROW(inc.check_against_full());
        if (HasFatalFailure()) return;
      }
      EXPECT_GE(shield_edits, 6);
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

}  // namespace
