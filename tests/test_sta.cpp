// Tests for the static timing analysis: arrival propagation against
// hand-stitched chains, critical-path extraction, K-path enumeration and
// slack computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <string>
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

TEST_F(StaTest, ThrowsWithoutReachablePo) {
  Netlist nl(lib);
  nl.add_input("a");
  // No gates, no POs.
  const Sta sta(nl, dm);
  EXPECT_THROW(sta.run(), std::logic_error);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ----- oracle: backward queries with a delay-model call per arc -------------

// The backward kernels read the arcs the forward sweep recorded. This
// oracle keeps the per-arc evaluation they replaced: every arc is a fresh
// model call at the netlist's current loads, slews and Vt classes, in the
// same operation order, so for a fresh result the bits must agree.
class DirectArcOracle {
 public:
  DirectArcOracle(const Netlist& nl, const DelayModel& dm) : nl_(nl), dm_(dm) {}

  double arc(NodeId g, Edge eout, NodeId f, Edge ein,
             const StaResult& r) const {
    return dm_.delay_ps(nl_.cell_of(g), eout, r.slew(f, ein), nl_.cin_ff(g),
                        nl_.load_ff(g) + nl_.cpar_ff(g)) *
           dm_.vt_derate(nl_.node(g).vt, eout);
  }

  /// The forward max-plus of gate `id`'s arrivals over direct arcs (the
  /// fanin arrivals and slews taken from `r`).
  std::array<double, 2> arrival(NodeId id, const StaResult& r) const {
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    const Node& node = nl_.node(id);
    std::array<double, 2> at{kNegInf, kNegInf};
    for (Edge out : {Edge::Rise, Edge::Fall})
      for (NodeId f : node.fanins)
        for (Edge ein : Sta::cause_edges(nl_.cell_of(id), out)) {
          if (r.arrival(f, ein) == kNegInf) continue;
          at[StaResult::idx(out)] =
              std::max(at[StaResult::idx(out)],
                       r.arrival(f, ein) + arc(id, out, f, ein, r));
        }
    return at;
  }

  std::vector<std::array<double, 2>> required_times(const StaResult& r,
                                                    double tc) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::array<double, 2>> required(nl_.size());
    const auto& topo = nl_.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId id = *it;
      auto& req = required[static_cast<std::size_t>(id)];
      req = nl_.node(id).is_output ? std::array<double, 2>{tc, tc}
                                   : std::array<double, 2>{kInf, kInf};
      for (NodeId g : nl_.fanouts(id))
        for (Edge eout : {Edge::Rise, Edge::Fall})
          for (Edge ein : Sta::cause_edges(nl_.cell_of(g), eout)) {
            const double w = arc(g, eout, id, ein, r);
            double& cell_req = req[StaResult::idx(ein)];
            cell_req = std::min(
                cell_req,
                required[static_cast<std::size_t>(g)][StaResult::idx(eout)] -
                    w);
          }
    }
    return required;
  }

  std::vector<double> downstream_delays(const StaResult& r) const {
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    std::vector<double> down(2 * nl_.size(), kNegInf);
    const auto& topo = nl_.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId id = *it;
      for (Edge e : {Edge::Rise, Edge::Fall}) {
        double best = nl_.node(id).is_output ? 0.0 : kNegInf;
        for (NodeId g : nl_.fanouts(id))
          for (Edge eout : {Edge::Rise, Edge::Fall}) {
            const auto causes = Sta::cause_edges(nl_.cell_of(g), eout);
            if (std::find(causes.begin(), causes.end(), e) == causes.end())
              continue;
            best = std::max(best, arc(g, eout, id, e, r) + down[vid(g, eout)]);
          }
        down[vid(id, e)] = best;
      }
    }
    return down;
  }

  std::vector<TimedPath> k_critical_paths(const StaResult& r, std::size_t k,
                                          const std::vector<double>& down)
      const {
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    constexpr std::size_t kTerminal = static_cast<std::size_t>(-1);
    struct Item {
      double bound;
      double prefix;
      std::size_t vertex;
      int chain;
    };
    struct ArenaEntry {
      std::size_t vertex;
      int parent;
    };
    auto cmp = [](const Item& a, const Item& b) { return a.bound < b.bound; };
    std::priority_queue<Item, std::vector<Item>, decltype(cmp)> heap(cmp);
    std::vector<ArenaEntry> arena;
    for (NodeId pi : nl_.inputs())
      for (Edge e : {Edge::Rise, Edge::Fall}) {
        const std::size_t v = vid(pi, e);
        if (down[v] == kNegInf) continue;
        arena.push_back({v, -1});
        heap.push({down[v], 0.0, v, static_cast<int>(arena.size()) - 1});
      }
    std::vector<TimedPath> out;
    std::size_t pops = 0;
    const std::size_t pop_limit =
        4096 * std::max<std::size_t>(k, 1) + 16 * nl_.size();
    while (!heap.empty() && out.size() < k && pops++ < pop_limit) {
      const Item item = heap.top();
      heap.pop();
      if (item.vertex == kTerminal) {
        TimedPath path;
        path.delay_ps = item.prefix;
        for (int a = item.chain; a != -1;
             a = arena[static_cast<std::size_t>(a)].parent) {
          const auto& entry = arena[static_cast<std::size_t>(a)];
          path.points.push_back(
              {static_cast<NodeId>(entry.vertex / 2),
               entry.vertex % 2 == 0 ? Edge::Rise : Edge::Fall});
        }
        std::reverse(path.points.begin(), path.points.end());
        out.push_back(std::move(path));
        continue;
      }
      const NodeId node = static_cast<NodeId>(item.vertex / 2);
      const Edge e = item.vertex % 2 == 0 ? Edge::Rise : Edge::Fall;
      if (nl_.node(node).is_output)
        heap.push({item.prefix, item.prefix, kTerminal, item.chain});
      std::vector<NodeId> sinks = nl_.fanouts(node);
      std::sort(sinks.begin(), sinks.end());
      sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
      for (NodeId g : sinks)
        for (Edge eout : {Edge::Rise, Edge::Fall}) {
          const auto causes = Sta::cause_edges(nl_.cell_of(g), eout);
          if (std::find(causes.begin(), causes.end(), e) == causes.end())
            continue;
          const std::size_t v2 = vid(g, eout);
          if (down[v2] == kNegInf) continue;
          const double w = arc(g, eout, node, e, r);
          arena.push_back({v2, item.chain});
          heap.push({item.prefix + w + down[v2], item.prefix + w, v2,
                     static_cast<int>(arena.size()) - 1});
        }
    }
    return out;
  }

 private:
  static std::size_t vid(NodeId node, Edge e) {
    return 2 * static_cast<std::size_t>(node) + StaResult::idx(e);
  }

  const Netlist& nl_;
  const DelayModel& dm_;
};

void expect_same_required(const std::vector<std::array<double, 2>>& got,
                          const std::vector<std::array<double, 2>>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    for (std::size_t e = 0; e < 2; ++e)
      EXPECT_TRUE(same_bits(got[i][e], want[i][e]))
          << what << ": required of node " << i << " edge " << e;
}

void expect_same_down(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t v = 0; v < want.size(); ++v)
    EXPECT_TRUE(same_bits(got[v], want[v])) << what << ": vertex " << v;
}

void expect_same_paths(const std::vector<TimedPath>& got,
                       const std::vector<TimedPath>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_TRUE(same_bits(got[p].delay_ps, want[p].delay_ps))
        << what << ": path " << p;
    EXPECT_EQ(got[p].points, want[p].points) << what << ": path " << p;
  }
}

/// Sta's and IncrementalSta's backward queries against the oracle, at the
/// current critical delay and 10% above it; the arrivals too, since the
/// incremental engine re-times most of a cone from the recorded arcs.
void expect_backward_matches_oracle(const Netlist& nl, const DelayModel& dm,
                                    const IncrementalSta& inc,
                                    const std::string& when) {
  const Sta sta(nl, dm);
  const StaResult cold = sta.run();
  const DirectArcOracle oracle(nl, dm);
  for (NodeId id : nl.gates()) {
    const std::array<double, 2> want = oracle.arrival(id, cold);
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_TRUE(same_bits(cold.arrival_ps[static_cast<std::size_t>(id)][e],
                            want[e]))
          << when << " Sta: arrival of node " << id << " edge " << e;
      EXPECT_TRUE(same_bits(
          inc.result().arrival_ps[static_cast<std::size_t>(id)][e], want[e]))
          << when << " IncrementalSta: arrival of node " << id << " edge "
          << e;
    }
  }
  const std::vector<double> want_down = oracle.downstream_delays(cold);
  expect_same_down(sta.downstream_delays(cold), want_down, when + " Sta");
  expect_same_down(inc.downstream(), want_down, when + " IncrementalSta");
  const std::vector<TimedPath> want_paths =
      oracle.k_critical_paths(cold, 8, want_down);
  expect_same_paths(sta.k_critical_paths(cold, 8), want_paths, when + " Sta");
  expect_same_paths(inc.k_critical_paths(8), want_paths,
                    when + " IncrementalSta");
  for (const double ratio : {1.0, 1.1}) {
    const double tc = ratio * cold.critical_delay_ps;
    const auto want_req = oracle.required_times(cold, tc);
    expect_same_required(sta.required_times(cold, tc), want_req,
                         when + " Sta");
    expect_same_required(inc.required_times(tc), want_req,
                         when + " IncrementalSta");
  }
}

TEST(Sta, BackwardQueriesMatchDirectArcEvaluation) {
  const Library lib{Technology::cmos025()};
  const ClosedFormModel cf(lib);
  const TableModel tm = TableModel::characterize(cf);
  const int high_vt = static_cast<int>(lib.tech().n_vt_classes()) - 1;
  ASSERT_GT(high_vt, 0);
  const std::vector<std::pair<const char*, const DelayModel*>> backends = {
      {"closed-form", &cf}, {"table", &tm}};

  for (const auto& [label, dm] : backends) {
    // A net read on two pins of one gate (Nand2, Aoi21) and the non-unate
    // XOR/XNOR slots, fed by gates whose rise and fall slews differ.
    {
      SCOPED_TRACE(std::string("hand-built / ") + label);
      Netlist nl(lib);
      const NodeId a = nl.add_input("a");
      const NodeId b = nl.add_input("b");
      const NodeId c = nl.add_input("c");
      const NodeId x = nl.add_gate(CellKind::Inv, "x", {a});
      const NodeId nx = nl.add_gate(CellKind::Nand2, "nx", {x, x});
      const NodeId xa = nl.add_gate(CellKind::Xor2, "xa", {a, a});
      const NodeId xr = nl.add_gate(CellKind::Xor2, "xr", {nx, b});
      const NodeId xn = nl.add_gate(CellKind::Xnor2, "xn", {xr, xa});
      const NodeId ao = nl.add_gate(CellKind::Aoi21, "ao", {xn, c, xn});
      const NodeId y = nl.add_gate(CellKind::Nor2, "y", {ao, xr});
      nl.mark_output(y, 12.0);
      nl.mark_output(xn, 4.0);
      IncrementalSta inc(nl, *dm);
      inc.run_full();
      expect_backward_matches_oracle(nl, *dm, inc, "cold");
      pops::util::Rng rng(0xA2C5u);
      const std::vector<NodeId> gates = nl.gates();
      for (int step = 0; step < 24; ++step) {
        const NodeId g = gates[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(gates.size()) - 1))];
        if (step % 3 == 2)
          nl.set_vt_class(g, nl.vt_class(g) == 0 ? high_vt : 0);
        else
          nl.set_drive(g, rng.uniform(lib.wmin_um(), lib.wmax_um()));
        const NodeId dirty[] = {g};
        inc.update(dirty);
        expect_backward_matches_oracle(nl, *dm, inc,
                                       "step " + std::to_string(step));
        if (HasFailure()) return;
      }
    }

    for (const char* name : {"c432", "c1355", "c7552"}) {
      SCOPED_TRACE(std::string(name) + " / " + label);
      Netlist nl = make_benchmark(lib, name);
      IncrementalSta inc(nl, *dm);
      inc.run_full();
      expect_backward_matches_oracle(nl, *dm, inc, "cold");
      pops::util::Rng rng(0x0AC1Eu);
      for (int step = 0; step < 12; ++step) {
        const std::vector<NodeId> gates = nl.gates();
        const NodeId g = gates[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(gates.size()) - 1))];
        std::vector<NodeId> dirty{g};
        bool structural = false;
        if (step % 3 == 0 && nl.fanouts(g).size() >= 2) {
          std::vector<NodeId> moved = nl.fanouts(g);
          moved.erase(moved.begin());
          const NodeId buf = nl.insert_buffer(g, CellKind::Buf,
                                              nl.fresh_name("or"), moved);
          nl.set_drive(buf, rng.uniform(lib.wmin_um(), lib.wmax_um()));
          dirty.insert(dirty.end(), moved.begin(), moved.end());
          dirty.push_back(buf);
          structural = true;
        } else if (step % 3 == 1) {
          nl.set_vt_class(g, nl.vt_class(g) == 0 ? high_vt : 0);
        } else {
          nl.set_drive(g, rng.uniform(lib.wmin_um(), lib.wmax_um()));
        }
        inc.update(dirty, structural);
        expect_backward_matches_oracle(nl, *dm, inc,
                                       "step " + std::to_string(step));
        if (HasFailure()) return;
      }
    }
  }
}

// Every library cell's fanins fit one StaResult::arc_fanin entry and its
// arcs one arc_ps entry at distinct slots (the static_assert in sta.hpp
// pins the bound; this pins the cells).
TEST_F(StaTest, ArcSlotsFitEveryLibraryCell) {
  for (CellKind k : pops::liberty::all_cell_kinds()) {
    const auto& cell = lib.cell(k);
    std::vector<std::size_t> slots;
    for (std::size_t pin = 0; pin < static_cast<std::size_t>(cell.fanin);
         ++pin)
      for (Edge out : {Edge::Rise, Edge::Fall}) {
        const auto causes = Sta::cause_edges(cell, out);
        for (Edge in : causes)
          slots.push_back(StaResult::arc_slot(causes.size(), pin, out, in));
      }
    EXPECT_LE(static_cast<std::size_t>(cell.fanin), kMaxFanin)
        << pops::liberty::to_string(k);
    std::sort(slots.begin(), slots.end());
    EXPECT_TRUE(std::adjacent_find(slots.begin(), slots.end()) == slots.end())
        << pops::liberty::to_string(k);
    ASSERT_FALSE(slots.empty());
    EXPECT_LT(slots.back(), kArcSlots) << pops::liberty::to_string(k);
  }
}

}  // namespace
