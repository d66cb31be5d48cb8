// Tests for the static timing analysis: arrival propagation against
// hand-stitched chains, critical-path extraction, K-path enumeration and
// slack computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/sta.hpp"

namespace {

using namespace pops::timing;
using namespace pops::netlist;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;

class StaTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  ClosedFormModel dm{lib};
};

TEST_F(StaTest, SingleInverterMatchesHandComputation) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.mark_output(g, 15.0);

  StaOptions opt;
  opt.pi_slew_ps = 40.0;
  const Sta sta(nl, dm, opt);
  const StaResult r = sta.run();

  const auto& inv = lib.cell(CellKind::Inv);
  const double load = 15.0 + nl.cpar_ff(g);
  for (Edge e : {Edge::Rise, Edge::Fall}) {
    const double expect = dm.delay_ps(inv, e, 40.0, nl.cin_ff(g), load);
    EXPECT_NEAR(r.arrival(g, e), expect, 1e-9) << to_string(e);
    EXPECT_NEAR(r.slew(g, e), dm.transition_ps(inv, e, nl.cin_ff(g), load),
                1e-9);
  }
}

TEST_F(StaTest, ChainArrivalAccumulates) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::Inv, "g1", {a});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  nl.mark_output(g2, 10.0);
  const Sta sta(nl, dm);
  const StaResult r = sta.run();

  // g2's rise is caused by g1's fall (inverting), so:
  const double d2 = dm.delay_ps(lib.cell(CellKind::Inv), Edge::Rise,
                                r.slew(g1, Edge::Fall), nl.cin_ff(g2),
                                nl.load_ff(g2) + nl.cpar_ff(g2));
  EXPECT_NEAR(r.arrival(g2, Edge::Rise), r.arrival(g1, Edge::Fall) + d2, 1e-9);
}

TEST_F(StaTest, CriticalPathTracksWorstBranch) {
  // Two parallel branches: a slow NOR3 branch and a fast INV branch
  // converging on a NAND2; the critical path must use the slow branch.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId slow1 = nl.add_gate(CellKind::Nor3, "slow1", {a, b, c});
  const NodeId slow2 = nl.add_gate(CellKind::Nor3, "slow2", {slow1, b, c});
  const NodeId fast = nl.add_gate(CellKind::Inv, "fast", {a});
  const NodeId join = nl.add_gate(CellKind::Nand2, "join", {slow2, fast});
  nl.mark_output(join, 20.0);

  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const TimedPath path = sta.critical_path(r);

  ASSERT_GE(path.points.size(), 3u);
  EXPECT_EQ(path.points.back().node, join);
  // The path must route through the NOR3 chain, not the inverter.
  bool through_slow = false;
  for (const PathPoint& p : path.points)
    if (p.node == slow2) through_slow = true;
  EXPECT_TRUE(through_slow);
  EXPECT_NEAR(path.delay_ps, r.critical_delay_ps, 1e-9);
}

TEST_F(StaTest, KPathsAreSortedAndDistinct) {
  const Netlist nl = make_benchmark(lib, "c432");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const auto paths = sta.k_critical_paths(r, 12);
  ASSERT_GE(paths.size(), 2u);
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_LE(paths[i].delay_ps, paths[i - 1].delay_ps + 1e-9);
  // The first enumerated path is the critical one.
  EXPECT_NEAR(paths.front().delay_ps, r.critical_delay_ps,
              1e-6 * r.critical_delay_ps);
  // Distinct point sequences.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    const bool same = paths[i].points.size() == paths[0].points.size() &&
                      std::equal(paths[i].points.begin(), paths[i].points.end(),
                                 paths[0].points.begin());
    EXPECT_FALSE(same) << "path " << i << " duplicates path 0";
  }
}

TEST_F(StaTest, KPathsOnChainIsJustOnePerEdge) {
  const Netlist nl =
      make_chain(lib, {CellKind::Inv, CellKind::Inv, CellKind::Inv}, 8.0);
  const Sta sta(nl, dm);
  const auto paths = sta.k_critical_paths(sta.run(), 10);
  // One PI, two launch edges -> exactly two PI->PO paths.
  EXPECT_EQ(paths.size(), 2u);
}

TEST_F(StaTest, SlackSignMatchesConstraint) {
  const Netlist nl = make_benchmark(lib, "c17");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();

  const auto slack_tight = sta.slacks(r, r.critical_delay_ps * 0.5);
  const auto slack_loose = sta.slacks(r, r.critical_delay_ps * 2.0);
  // Under the tight constraint at least the critical endpoint is negative.
  const auto po = static_cast<std::size_t>(r.critical_endpoint.node);
  EXPECT_LT(slack_tight[po], 0.0);
  EXPECT_GT(slack_loose[po], 0.0);
}

TEST_F(StaTest, ExactConstraintGivesZeroSlackOnCriticalPath) {
  const Netlist nl = make_benchmark(lib, "c17");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const auto slack = sta.slacks(r, r.critical_delay_ps);
  const auto po = static_cast<std::size_t>(r.critical_endpoint.node);
  EXPECT_NEAR(slack[po], 0.0, 1e-9);
  // And no slack anywhere is more negative than the critical one.
  for (double s : slack) EXPECT_GE(s, -1e-9);
}

TEST_F(StaTest, XorPropagatesBothInputEdges) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_gate(CellKind::Xor2, "x", {a, b});
  nl.mark_output(x, 5.0);
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  // Both output edges are reachable.
  EXPECT_GT(r.arrival(x, Edge::Rise), 0.0);
  EXPECT_GT(r.arrival(x, Edge::Fall), 0.0);
}

TEST_F(StaTest, CauseEdgesFollowArcUnatenessForEveryKind) {
  // Negative-unate cells flip the edge, Buf passes it, XOR/XNOR are
  // non-unate (both input edges can cause either output edge).
  auto expected = [](CellKind k, Edge out) -> std::vector<Edge> {
    switch (k) {
      case CellKind::Buf: return {out};
      case CellKind::Xor2:
      case CellKind::Xnor2: return {Edge::Rise, Edge::Fall};
      default: return {flip(out)};
    }
  };
  for (CellKind k : pops::liberty::all_cell_kinds()) {
    for (Edge out : {Edge::Rise, Edge::Fall}) {
      const std::span<const Edge> got = Sta::cause_edges(lib.cell(k), out);
      EXPECT_EQ(std::vector<Edge>(got.begin(), got.end()), expected(k, out))
          << pops::liberty::to_string(k) << " output " << to_string(out);
    }
  }
}

TEST_F(StaTest, LargerDriveSpeedsUpCircuit) {
  Netlist nl = make_benchmark(lib, "c880");
  const Sta sta(nl, dm);
  const double before = sta.run().critical_delay_ps;
  for (NodeId g : nl.gates()) nl.set_drive(g, 3.0 * lib.wmin_um());
  const double after = sta.run().critical_delay_ps;
  EXPECT_LT(after, before);
}

TEST_F(StaTest, RequiredTimeAtPoIsTcForConstrainedEdges) {
  const Netlist nl = make_benchmark(lib, "c17");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const double tc = r.critical_delay_ps * 1.1;
  const auto required = sta.required_times(r, tc);
  for (NodeId po : nl.outputs()) {
    const auto i = static_cast<std::size_t>(po);
    for (std::size_t e = 0; e < 2; ++e) {
      // A PO's own requirement is tc; fanout-free POs get exactly that,
      // POs that also feed other gates can only be required earlier.
      EXPECT_LE(required[i][e], tc);
      if (nl.fanouts(po).empty()) {
        EXPECT_EQ(required[i][e], tc);
      }
    }
  }
}

TEST_F(StaTest, RequiredTimesShiftWithTc) {
  const Netlist nl = make_benchmark(lib, "c432");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const double tc = r.critical_delay_ps;
  const double shift = 37.5;
  const auto base = sta.required_times(r, tc);
  const auto moved = sta.required_times(r, tc + shift);
  // Required times are a min-propagation of (tc - downstream delay), so a
  // tc shift moves every finite entry by the same amount.
  ASSERT_EQ(moved.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i)
    for (std::size_t e = 0; e < 2; ++e) {
      if (!std::isfinite(base[i][e])) continue;
      EXPECT_NEAR(moved[i][e] - base[i][e], shift, 1e-9)
          << "node " << i << " edge " << e;
    }
}

TEST_F(StaTest, SlacksAreRequiredMinusArrivalWorstEdge) {
  const Netlist nl = make_benchmark(lib, "c432");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const double tc = r.critical_delay_ps * 0.9;
  const auto required = sta.required_times(r, tc);
  const auto slack = sta.slacks(r, tc);
  ASSERT_EQ(slack.size(), required.size());
  for (std::size_t i = 0; i < slack.size(); ++i) {
    double worst = std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < 2; ++e)
      if (std::isfinite(r.arrival_ps[i][e]))
        worst = std::min(worst, required[i][e] - r.arrival_ps[i][e]);
    if (std::isfinite(worst)) {
      EXPECT_EQ(slack[i], worst) << "node " << i;
    }
  }
}

// ----- level-parallel sweeps ---------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// With level_parallel_min_nodes forced to 0 even the ISCAS circuits take
// the fanned-out sweep; every derived quantity must be bitwise-equal to
// the sequential engine at any worker count.
TEST_F(StaTest, LevelParallelSweepsBitIdenticalToSequential) {
  for (const char* name : {"c432", "c880"}) {
    SCOPED_TRACE(name);
    const Netlist nl = make_benchmark(lib, name);
    const Sta seq(nl, dm);
    const StaResult want = seq.run();
    const auto want_down = seq.downstream_delays(want);
    const double tc = want.critical_delay_ps;
    const auto want_req = seq.required_times(want, tc);
    const auto want_slack = seq.slacks(want, tc);
    const auto want_paths = seq.k_critical_paths(want, 8);

    for (const std::size_t workers : {2u, 4u}) {
      SCOPED_TRACE(workers);
      StaOptions opt;
      opt.level_parallel_workers = workers;
      opt.level_parallel_min_nodes = 0;  // force the parallel path
      const Sta par(nl, dm, opt);
      const StaResult got = par.run();

      ASSERT_EQ(got.arrival_ps.size(), want.arrival_ps.size());
      for (std::size_t i = 0; i < want.arrival_ps.size(); ++i)
        for (std::size_t e = 0; e < 2; ++e) {
          EXPECT_TRUE(same_bits(got.arrival_ps[i][e], want.arrival_ps[i][e]));
          EXPECT_TRUE(same_bits(got.slew_ps[i][e], want.slew_ps[i][e]));
          EXPECT_EQ(got.prev[i][e], want.prev[i][e]);
        }
      EXPECT_TRUE(same_bits(got.critical_delay_ps, want.critical_delay_ps));
      EXPECT_EQ(got.critical_endpoint, want.critical_endpoint);

      const auto got_down = par.downstream_delays(got);
      ASSERT_EQ(got_down.size(), want_down.size());
      for (std::size_t v = 0; v < want_down.size(); ++v)
        EXPECT_TRUE(same_bits(got_down[v], want_down[v])) << "vertex " << v;

      const auto got_req = par.required_times(got, tc);
      const auto got_slack = par.slacks(got, tc);
      for (std::size_t i = 0; i < want_req.size(); ++i)
        for (std::size_t e = 0; e < 2; ++e)
          EXPECT_TRUE(same_bits(got_req[i][e], want_req[i][e]));
      for (std::size_t i = 0; i < want_slack.size(); ++i)
        EXPECT_TRUE(same_bits(got_slack[i], want_slack[i]));

      const auto got_paths = par.k_critical_paths(got, 8);
      ASSERT_EQ(got_paths.size(), want_paths.size());
      for (std::size_t p = 0; p < want_paths.size(); ++p) {
        EXPECT_TRUE(same_bits(got_paths[p].delay_ps, want_paths[p].delay_ps));
        EXPECT_EQ(got_paths[p].points, want_paths[p].points);
      }
    }
  }
}

TEST_F(StaTest, ThrowsWithoutReachablePo) {
  Netlist nl(lib);
  nl.add_input("a");
  // No gates, no POs.
  const Sta sta(nl, dm);
  EXPECT_THROW(sta.run(), std::logic_error);
}

}  // namespace
