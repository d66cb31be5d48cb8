// Tests for the Fig. 7 optimization protocol: constraint-domain
// classification, method dispatch, and the circuit-level driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pops/api/config.hpp"
#include "pops/api/passes.hpp"
#include "pops/core/protocol.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/sta.hpp"

namespace {

using namespace pops::core;
using namespace pops::timing;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;
using pops::api::ProtocolPass;

class ProtocolTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  ClosedFormModel dm{lib};
  FlimitTable table;

  BoundedPath make_path(double off_x = 40.0) const {
    std::vector<PathStage> stages(9);
    const CellKind mix[] = {CellKind::Inv, CellKind::Nand2, CellKind::Nor2,
                            CellKind::Inv};
    for (std::size_t i = 0; i < stages.size(); ++i)
      stages[i].kind = mix[i % 4];
    stages[4].off_path_ff = off_x * lib.cref_ff();
    return BoundedPath(lib, stages, 2.0 * lib.cref_ff(),
                       20.0 * lib.cref_ff(), Edge::Rise,
                       dm.default_input_slew_ps());
  }
};

TEST_F(ProtocolTest, ClassificationThresholds) {
  const double tmin = 100.0;
  EXPECT_EQ(classify_constraint(90.0, tmin), ConstraintDomain::Infeasible);
  EXPECT_EQ(classify_constraint(110.0, tmin), ConstraintDomain::Hard);
  EXPECT_EQ(classify_constraint(119.9, tmin), ConstraintDomain::Hard);
  EXPECT_EQ(classify_constraint(121.0, tmin), ConstraintDomain::Medium);
  EXPECT_EQ(classify_constraint(249.0, tmin), ConstraintDomain::Medium);
  EXPECT_EQ(classify_constraint(251.0, tmin), ConstraintDomain::Weak);
}

TEST_F(ProtocolTest, CustomThresholds) {
  ProtocolOptions opt;
  opt.hard_ratio = 1.5;
  opt.weak_ratio = 3.0;
  EXPECT_EQ(classify_constraint(140.0, 100.0, opt), ConstraintDomain::Hard);
  EXPECT_EQ(classify_constraint(280.0, 100.0, opt), ConstraintDomain::Medium);
  EXPECT_EQ(classify_constraint(310.0, 100.0, opt), ConstraintDomain::Weak);
}

TEST_F(ProtocolTest, ToStringCoverage) {
  EXPECT_STREQ(to_string(ConstraintDomain::Weak), "weak");
  EXPECT_STREQ(to_string(ConstraintDomain::Infeasible), "infeasible");
  EXPECT_STREQ(to_string(Method::Sizing), "sizing");
  EXPECT_STREQ(to_string(Method::Restructure), "restructure+sizing");
}

TEST_F(ProtocolTest, WeakConstraintUsesSizing) {
  const BoundedPath p = make_path();
  const PathBounds b = compute_bounds(p, dm);
  const ProtocolResult r = optimize_path(p, dm, table, 3.0 * b.tmin_ps);
  EXPECT_EQ(r.domain, ConstraintDomain::Weak);
  EXPECT_EQ(r.method, Method::Sizing);
  EXPECT_TRUE(r.sizing.feasible);
  EXPECT_LE(r.sizing.delay_ps, 3.0 * b.tmin_ps * 1.001);
}

TEST_F(ProtocolTest, EveryFeasibleDomainMeetsTc) {
  const BoundedPath p = make_path();
  const PathBounds b = compute_bounds(p, dm);
  for (double ratio : {1.05, 1.15, 1.5, 2.0, 2.8}) {
    const double tc = ratio * b.tmin_ps;
    const ProtocolResult r = optimize_path(p, dm, table, tc);
    EXPECT_TRUE(r.sizing.feasible) << "ratio " << ratio;
    EXPECT_LE(r.sizing.delay_ps, tc * 1.001) << "ratio " << ratio;
  }
}

TEST_F(ProtocolTest, ProtocolNeverWorseThanPureSizing) {
  // The selection step must return an implementation at most as large as
  // the sizing-only one whenever both meet Tc.
  const BoundedPath p = make_path(60.0);
  const PathBounds b = compute_bounds(p, dm);
  for (double ratio : {1.1, 1.5, 2.0}) {
    const double tc = ratio * b.tmin_ps;
    const ProtocolResult r = optimize_path(p, dm, table, tc);
    const SizingResult plain = size_for_constraint(p, dm, tc);
    if (plain.feasible && r.sizing.feasible) {
      EXPECT_LE(r.total_area_um(), plain.area_um * 1.001) << ratio;
    }
  }
}

TEST_F(ProtocolTest, InfeasibleTriggersStructureModification) {
  const BoundedPath p = make_path(80.0);
  const PathBounds b = compute_bounds(p, dm);
  const ProtocolResult r = optimize_path(p, dm, table, 0.93 * b.tmin_ps);
  EXPECT_EQ(r.domain, ConstraintDomain::Infeasible);
  EXPECT_NE(r.method, Method::Sizing);
  // Structure modification pushed the delay below the sizing-only Tmin.
  EXPECT_LT(r.sizing.delay_ps, b.tmin_ps);
}

TEST_F(ProtocolTest, HopelessConstraintReportsInfeasible) {
  const BoundedPath p = make_path();
  const PathBounds b = compute_bounds(p, dm);
  const ProtocolResult r = optimize_path(p, dm, table, 0.05 * b.tmin_ps);
  EXPECT_EQ(r.domain, ConstraintDomain::Infeasible);
  EXPECT_FALSE(r.sizing.feasible);
}

TEST_F(ProtocolTest, InvalidTcThrows) {
  EXPECT_THROW(optimize_path(make_path(), dm, table, -1.0),
               std::invalid_argument);
}

TEST_F(ProtocolTest, ForcedMethodsAllRun) {
  const BoundedPath p = make_path(50.0);
  const PathBounds b = compute_bounds(p, dm);
  const double tc = 1.3 * b.tmin_ps;
  for (Method m : {Method::Sizing, Method::LocalBufferSizing,
                   Method::GlobalBufferSizing, Method::Restructure}) {
    const SizingResult r = optimize_with_method(p, dm, table, tc, m);
    EXPECT_GT(r.area_um, 0.0) << to_string(m);
    EXPECT_GT(r.delay_ps, 0.0) << to_string(m);
  }
}

TEST_F(ProtocolTest, BoundsReportedInResult) {
  const BoundedPath p = make_path();
  const PathBounds b = compute_bounds(p, dm);
  const ProtocolResult r = optimize_path(p, dm, table, 2.0 * b.tmin_ps);
  EXPECT_NEAR(r.tmin_ps, b.tmin_ps, 1e-6 * b.tmin_ps);
  EXPECT_NEAR(r.tmax_ps, b.tmax_ps, 1e-6 * b.tmax_ps);
}

// ---- circuit level -----------------------------------------------------------

TEST_F(ProtocolTest, CircuitOptimizationMeetsRelaxedConstraint) {
  using namespace pops::netlist;
  Netlist nl = make_benchmark(lib, "c432");
  const Sta sta(nl, dm);
  const double initial = sta.run().critical_delay_ps;

  FlimitTable t;
  CircuitOptions opt;
  const double tc = 0.8 * initial;
  const CircuitResult r = ProtocolPass::run_protocol(nl, dm, t, tc, opt);
  EXPECT_TRUE(r.met) << "achieved " << r.achieved_delay_ps << " vs " << tc;
  EXPECT_LE(r.achieved_delay_ps, tc * 1.001);
  EXPECT_GE(r.paths_optimized, 1u);
  EXPECT_GT(r.area_um, 0.0);
}

TEST_F(ProtocolTest, CircuitOptimizationImprovesDelayMonotonically) {
  using namespace pops::netlist;
  Netlist nl = make_benchmark(lib, "c880");
  const Sta sta(nl, dm);
  const double initial = sta.run().critical_delay_ps;

  FlimitTable t;
  const CircuitResult r =
      ProtocolPass::run_protocol(nl, dm, t, 0.7 * initial, {});
  EXPECT_LT(r.achieved_delay_ps, initial);
}

TEST_F(ProtocolTest, AlreadyMetConstraintIsNoOp) {
  using namespace pops::netlist;
  Netlist nl = make_benchmark(lib, "c17");
  const Sta sta(nl, dm);
  const double initial = sta.run().critical_delay_ps;
  const double area_before = nl.total_width_um();

  FlimitTable t;
  const CircuitResult r =
      ProtocolPass::run_protocol(nl, dm, t, 2.0 * initial, {});
  EXPECT_TRUE(r.met);
  EXPECT_EQ(r.paths_optimized, 0u);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_NEAR(nl.total_width_um(), area_before, 1e-9);
}

// Regression for the no-op round spin: when a round's write-back moves no
// drive, the loop must stop instead of burning the whole round budget on
// full STA re-runs that replay bit-identical rounds. A depth-1 netlist is
// the canonical can't-improve case: every PI->PO path has exactly one
// gate, which is the path's stage 0 — fixed by the latch constraint — so
// sizing can never move a drive.
TEST_F(ProtocolTest, NoProgressStopsRoundLoopEarly) {
  using namespace pops::netlist;
  Netlist nl(lib, "flat");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(CellKind::Nand2, "g1", {a, b});
  const NodeId g2 = nl.add_gate(CellKind::Nor2, "g2", {a, b});
  nl.mark_output(g1, 40.0);
  nl.mark_output(g2, 40.0);

  const Sta sta(nl, dm);
  const double initial = sta.run().critical_delay_ps;
  const double area_before = nl.total_width_um();

  CircuitOptions opt;
  opt.max_rounds = 12;
  FlimitTable t;
  const CircuitResult r =
      ProtocolPass::run_protocol(nl, dm, t, 0.3 * initial, opt);
  EXPECT_FALSE(r.met);
  EXPECT_GE(r.paths_optimized, 1u) << "the violating paths were evaluated";
  // Round 1 may re-normalize drives through the cin->wn round trip (last
  // bits only); by round 2 at the latest the write-back is an exact no-op
  // and the loop must stop instead of burning all 12 rounds.
  EXPECT_LE(r.rounds, 2u)
      << "loop must stop when no drive moves, not burn max_rounds";
  EXPECT_NEAR(nl.total_width_um(), area_before, 1e-9);
}

// Regression for the inconsistent met tolerance: the round loop and the
// reported `met` share one epsilon (kTcMetRelTol), so a point inside the
// tolerance band must neither iterate nor report unmet.
TEST_F(ProtocolTest, MetToleranceBoundaryIsConsistent) {
  using namespace pops::netlist;
  Netlist nl = make_benchmark(lib, "c432");
  const Sta sta(nl, dm);
  const double initial = sta.run().critical_delay_ps;

  FlimitTable t;
  // delay = tc * (1 + tol/2): inside the band — met, and zero rounds
  // (before the fix this iterated as "violating" yet reported met=true).
  {
    Netlist copy = nl;
    const double tc = initial / (1.0 + kTcMetRelTol / 2.0);
    ASSERT_GT(initial, tc);  // strictly violating without the tolerance
    const CircuitResult r = ProtocolPass::run_protocol(copy, dm, t, tc, {});
    EXPECT_TRUE(r.met);
    EXPECT_EQ(r.rounds, 0u);
    EXPECT_EQ(r.paths_optimized, 0u);
  }
  // delay = tc * (1 + 2 tol): outside the band — the loop must iterate.
  {
    Netlist copy = nl;
    const double tc = initial / (1.0 + 2.0 * kTcMetRelTol);
    const CircuitResult r = ProtocolPass::run_protocol(copy, dm, t, tc, {});
    EXPECT_GE(r.rounds, 1u);
  }
  EXPECT_TRUE(tc_met(100.0, 100.0));
  EXPECT_TRUE(tc_met(100.0 * (1.0 + kTcMetRelTol / 2.0), 100.0));
  EXPECT_FALSE(tc_met(100.0 * (1.0 + 2.0 * kTcMetRelTol), 100.0));
}

// ---- shared alternatives ----------------------------------------------------

/// Bitwise equality of two sizing results (same solve, same bits).
void expect_same_fit(const SizingResult& a, const SizingResult& b) {
  EXPECT_EQ(a.path.cins(), b.path.cins());
  EXPECT_EQ(a.path.size(), b.path.size());
  EXPECT_EQ(a.delay_ps, b.delay_ps);
  EXPECT_EQ(a.area_um, b.area_um);
  EXPECT_EQ(a.a, b.a);
  EXPECT_EQ(a.feasible, b.feasible);
}

TEST_F(ProtocolTest, SharedAlternativesEqualFreshSolves) {
  // The protocol solves an alternative once when its path coincides with
  // another's: with nothing inserted Local is the plain path, and without
  // an in-path buffer Global is Local. A fresh solve of the shared
  // alternative from the same start gives the same bits, so the shared
  // result — and the strict-area choice that keeps the earlier method on
  // a tie — is what solving every alternative would give. Checked on the
  // paper circuits' critical paths: Adder16's inserts nothing, most
  // others shields only.
  int no_insertion = 0, no_in_path = 0;
  for (const pops::netlist::BenchmarkSpec& spec :
       pops::netlist::paper_benchmarks()) {
    const std::string& name = spec.name;
    const pops::netlist::Netlist nl = pops::netlist::make_benchmark(lib, name);
    const Sta sta(nl, dm);
    const BoundedPath path = BoundedPath::extract(
        nl, sta.critical_path(sta.run()), dm.default_input_slew_ps());
    const PathBounds b = compute_bounds(path, dm);
    const BufferInsertionResult ins = insert_buffers_local(path, dm, table);
    for (double ratio : {1.02, 1.1, 1.3, 1.8, 2.4}) {
      SCOPED_TRACE(name + " Tc/Tmin=" + std::to_string(ratio));
      const double tc = ratio * b.tmin_ps;
      const ProtocolResult pr = optimize_path(path, dm, table, tc);
      ASSERT_NE(pr.domain, ConstraintDomain::Weak);
      ASSERT_NE(pr.domain, ConstraintDomain::Infeasible);
      const SizingResult local = optimize_with_method(
          path, dm, table, tc, Method::LocalBufferSizing);
      if (ins.buffers_inserted == 0) {
        ++no_insertion;
        expect_same_fit(local, optimize_with_method(path, dm, table, tc,
                                                    Method::Sizing));
        EXPECT_EQ(pr.method, Method::Sizing);
        expect_same_fit(pr.sizing, size_for_constraint(b.at_tmin, dm, tc));
      } else if (ins.buffers_inserted == ins.shield_buffers) {
        ++no_in_path;
        expect_same_fit(optimize_with_method(path, dm, table, tc,
                                             Method::GlobalBufferSizing),
                        local);
        EXPECT_NE(pr.method, Method::GlobalBufferSizing);
        if (pr.method == Method::LocalBufferSizing) {
          EXPECT_EQ(pr.sizing.area_um + pr.extra_area_um, local.area_um);
        }
      }
      EXPECT_TRUE(pr.sizing.feasible);
    }
  }
  EXPECT_GT(no_insertion, 0);
  EXPECT_GT(no_in_path, 0);
}

TEST_F(ProtocolTest, SolverOptionsHaveOneSourceOfTruth) {
  ProtocolOptions opt;
  opt.bounds.tol = 0.0;
  opt.sensitivity.max_bisect = 0;
  const std::vector<std::string> problems = opt.problems();
  EXPECT_EQ(problems,
            (std::vector<std::string>{"bounds.tol must be > 0",
                                      "sensitivity.max_bisect must be > 0"}));
  // The API config reports each solver problem exactly once, through the
  // core options.
  pops::api::OptimizerConfig cfg;
  cfg.bounds.tol = 0.0;
  cfg.sensitivity.max_bisect = 0;
  const std::vector<std::string> all = cfg.validate();
  EXPECT_EQ(std::count(all.begin(), all.end(), "bounds.tol must be > 0"), 1);
  EXPECT_EQ(std::count(all.begin(), all.end(),
                       "sensitivity.max_bisect must be > 0"),
            1);
  EXPECT_EQ(all.size(), 2u);
}

}  // namespace
