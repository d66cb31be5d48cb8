// Tests for the constant sensitivity method (paper §3.2): the defining
// property dT/dCIN(i) = a, the delay/area trade-off it spans, constraint
// satisfaction by the root search on `a` (checked against a grow-then-
// bisect oracle on the paper circuits), and its area advantage over the
// Sutherland equal-effort distribution.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "pops/core/bounds.hpp"
#include "pops/core/sensitivity.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/sta.hpp"
#include "pops/timing/table_model.hpp"

namespace {

using namespace pops::core;
using namespace pops::timing;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;

class SensitivityTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  ClosedFormModel dm{lib};

  BoundedPath make_path(int n = 11) const {
    std::vector<PathStage> stages(static_cast<std::size_t>(n));
    const CellKind mix[] = {CellKind::Inv, CellKind::Nand2, CellKind::Nor2,
                            CellKind::Inv, CellKind::Nand3};
    for (int i = 0; i < n; ++i)
      stages[static_cast<std::size_t>(i)].kind = mix[i % 5];
    return BoundedPath(lib, stages, 2.0 * lib.cref_ff(),
                       30.0 * lib.cref_ff(), Edge::Rise,
                       dm.default_input_slew_ps());
  }
};

TEST_F(SensitivityTest, ZeroSensitivityReproducesTmin) {
  const BoundedPath p = make_path();
  const PathBounds b = compute_bounds(p, dm);
  const BoundedPath at0 = size_at_sensitivity(p, dm, 0.0);
  EXPECT_NEAR(at0.delay_ps(dm), b.tmin_ps, 1e-4 * b.tmin_ps);
}

TEST_F(SensitivityTest, PositiveSensitivityRejected) {
  EXPECT_THROW(size_at_sensitivity(make_path(), dm, +1.0),
               std::invalid_argument);
}

TEST_F(SensitivityTest, RealizedSensitivityMatchesTarget) {
  // THE defining property (eq. 5/6): at the converged solution every
  // unclamped free stage satisfies the paper's stationarity equation
  //   A_(i-1)/CIN(i-1) - A_i (Coff(i)+CIN(i+1))/CIN(i)^2 = a
  // exactly (with the A_i evaluated at the solution, as in the paper).
  // The *numeric* dT/dCIN additionally sees the size-dependence of the
  // Miller coupling, which eq. (4)/(6) folds into the iterated A_i — so it
  // agrees in sign and magnitude but not to high precision.
  const BoundedPath p = make_path();
  const double a_scale = p.stage_coefficient(dm, 0) / p.cin(0);
  const double a = -0.15 * a_scale;
  const BoundedPath sized = size_at_sensitivity(p, dm, a);
  for (std::size_t i = 1; i < sized.size(); ++i) {
    const double cin = sized.cin(i);
    if (cin <= sized.cin_min(i) * 1.001 || cin >= sized.cin_max(i) * 0.999)
      continue;  // clamped: the target is unreachable there
    const double a_prev = sized.stage_coefficient(dm, i - 1);
    const double a_own = sized.stage_coefficient(dm, i);
    const double analytic = a_prev / sized.cin(i - 1) -
                            a_own * sized.load_ff(i) / (cin * cin);
    EXPECT_NEAR(analytic, a, 1e-3 * std::abs(a)) << "stage " << i;

    const double measured = sized.numeric_sensitivity(dm, i);
    EXPECT_LT(measured, 0.0) << "stage " << i;           // same sign
    EXPECT_NEAR(measured, a, 0.8 * std::abs(a)) << i;    // same magnitude
  }
}

TEST_F(SensitivityTest, DelayGrowsAndAreaShrinksAsAMoreNegative) {
  // Walking a from 0 to very negative traces the Fig. 3 trade-off curve.
  const BoundedPath p = make_path();
  const double a_scale = p.stage_coefficient(dm, 0) / p.cin(0);
  double prev_delay = 0.0, prev_area = 1e99;
  for (double f : {0.0, 0.05, 0.2, 0.8, 3.0}) {
    const BoundedPath sized = size_at_sensitivity(p, dm, -f * a_scale);
    const double d = sized.delay_ps(dm);
    const double area = sized.area_um();
    EXPECT_GE(d, prev_delay * (1.0 - 1e-9)) << "a factor " << f;
    EXPECT_LE(area, prev_area * (1.0 + 1e-9)) << "a factor " << f;
    prev_delay = d;
    prev_area = area;
  }
}

TEST_F(SensitivityTest, ConstraintMetAcrossTheFeasibleRange) {
  const BoundedPath p = make_path();
  const PathBounds b = compute_bounds(p, dm);
  for (double ratio : {1.05, 1.2, 1.5, 2.0, 3.0}) {
    const double tc = ratio * b.tmin_ps;
    const SizingResult r = size_for_constraint(p, dm, tc);
    EXPECT_TRUE(r.feasible) << "ratio " << ratio;
    EXPECT_LE(r.delay_ps, tc * 1.001) << "ratio " << ratio;
    // No gross over-delivery either (within 2% of the target or at the
    // all-minimum floor).
    if (r.delay_ps < b.tmax_ps * 0.999) {
      EXPECT_GE(r.delay_ps, tc * 0.98) << "ratio " << ratio;
    }
  }
}

TEST_F(SensitivityTest, InfeasibleConstraintFlagged) {
  const BoundedPath p = make_path();
  const PathBounds b = compute_bounds(p, dm);
  const SizingResult r = size_for_constraint(p, dm, 0.8 * b.tmin_ps);
  EXPECT_FALSE(r.feasible);
  // Best effort: the Tmin solution.
  EXPECT_NEAR(r.delay_ps, b.tmin_ps, 2e-3 * b.tmin_ps);
}

TEST_F(SensitivityTest, LooseConstraintReturnsAllMinimum) {
  const BoundedPath p = make_path();
  BoundedPath floor = p;
  floor.set_all_min_drive();
  const double tmax = floor.delay_ps(dm);
  const SizingResult r = size_for_constraint(p, dm, tmax * 2.0);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.area_um, floor.area_um(), 1e-9);
}

TEST_F(SensitivityTest, TighterConstraintCostsMoreArea) {
  const BoundedPath p = make_path();
  const PathBounds b = compute_bounds(p, dm);
  // Areas are non-increasing in the ratio, bottoming out at the
  // all-minimum floor once Tc exceeds Tmax.
  BoundedPath floor = p;
  floor.set_all_min_drive();
  double prev_area = 1e99;
  for (double ratio : {1.1, 1.4, 1.8, 2.5}) {
    const SizingResult r = size_for_constraint(p, dm, ratio * b.tmin_ps);
    EXPECT_LE(r.area_um, prev_area * (1.0 + 1e-9)) << ratio;
    EXPECT_GE(r.area_um, floor.area_um() * (1.0 - 1e-9)) << ratio;
    prev_area = r.area_um;
  }
  // Strict decrease away from the floor.
  const SizingResult tight = size_for_constraint(p, dm, 1.1 * b.tmin_ps);
  const SizingResult relaxed = size_for_constraint(p, dm, 1.5 * b.tmin_ps);
  EXPECT_GT(tight.area_um, relaxed.area_um);
}

TEST_F(SensitivityTest, InvalidTcThrows) {
  EXPECT_THROW(size_for_constraint(make_path(), dm, 0.0),
               std::invalid_argument);
  EXPECT_THROW(size_equal_effort(make_path(), dm, -5.0),
               std::invalid_argument);
}

TEST_F(SensitivityTest, EqualEffortMeetsConstraintButCostsMore) {
  // The paper's §3.2 motivation: Sutherland's equal-delay distribution is
  // fast "at the cost of an over-sizing of the gates with an important
  // logical weight". Compare areas at the same constraint.
  const BoundedPath p = make_path();
  const PathBounds b = compute_bounds(p, dm);
  bool compared = false;
  for (double ratio : {1.4, 1.8, 2.2}) {
    const double tc = ratio * b.tmin_ps;
    const SizingResult ours = size_for_constraint(p, dm, tc);
    const SizingResult equal = size_equal_effort(p, dm, tc);
    // Constant sensitivity reaches everything above Tmin; equal-effort's
    // own minimum delay sits above Tmin, so it may miss the tightest Tc —
    // which is itself part of the paper's point.
    EXPECT_TRUE(ours.feasible) << ratio;
    if (!equal.feasible) continue;
    compared = true;
    // Constant sensitivity never loses (allow sub-0.5% numerical noise).
    EXPECT_LE(ours.area_um, equal.area_um * 1.005) << ratio;
  }
  EXPECT_TRUE(compared) << "equal-effort never met any constraint";
}

TEST_F(SensitivityTest, FrozenStageIsRespected) {
  BoundedPath p = make_path();
  const double frozen_cin = 7.7;
  p.set_cin(4, frozen_cin);
  p.set_sizable(4, false);
  const PathBounds b = compute_bounds(p, dm);
  const SizingResult r = size_for_constraint(p, dm, 1.5 * b.tmin_ps);
  EXPECT_NEAR(r.path.cin(4), frozen_cin, 1e-12);
}

// Property sweep over constraint ratios (TEST_P): result always feasible
// for feasible constraints and area decreases with the ratio.
class ConstraintRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(ConstraintRatioTest, FeasibleAndTight) {
  const Library lib(Technology::cmos025());
  const ClosedFormModel dm(lib);
  std::vector<PathStage> stages(13);
  const CellKind mix[] = {CellKind::Nand2, CellKind::Inv, CellKind::Nor3,
                          CellKind::Inv};
  for (std::size_t i = 0; i < stages.size(); ++i) stages[i].kind = mix[i % 4];
  stages[6].off_path_ff = 20.0 * lib.cref_ff();
  const BoundedPath p(lib, stages, 2.0 * lib.cref_ff(), 25.0 * lib.cref_ff(),
                      Edge::Rise, dm.default_input_slew_ps());
  const PathBounds b = compute_bounds(p, dm);
  const double tc = GetParam() * b.tmin_ps;
  const SizingResult r = size_for_constraint(p, dm, tc);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.delay_ps, tc * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Ratios, ConstraintRatioTest,
                         ::testing::Values(1.02, 1.1, 1.2, 1.35, 1.5, 1.75,
                                           2.0, 2.5, 3.0, 4.0));

// ----- The root search on real paths --------------------------------------

/// The critical path of paper benchmark `name` as a bounded path.
BoundedPath critical_path(const Library& lib, const DelayModel& dm,
                          const std::string& name) {
  const pops::netlist::Netlist nl = pops::netlist::make_benchmark(lib, name);
  const Sta sta(nl, dm);
  return BoundedPath::extract(nl, sta.critical_path(sta.run()),
                              dm.default_input_slew_ps());
}

const std::vector<std::string>& iscas_names() {
  static const std::vector<std::string> names{
      "c432", "c499", "c880", "c1355", "c1908",
      "c3540", "c5315", "c6288", "c7552"};
  return names;
}

/// The grow-then-bisect solve the root search replaced, kept as an
/// oracle: a = 0 from `path`'s sizes, grow |a| x4 from -1e-3 * A(0)/CIN(0)
/// until T(a) >= Tc, then bisect, keeping the smallest-area feasible fit.
/// Only for Tmin < Tc < Tmax.
SizingResult grow_bisect_oracle(const BoundedPath& path, const DelayModel& dm,
                                double tc_ps,
                                const SensitivityOptions& opt = {}) {
  SizingResult res{path, 0.0, 0.0, 0.0, false, 0};
  int sw = 0;
  BoundedPath warm = size_at_sensitivity(path, dm, 0.0, opt, &sw);
  res.sweeps += sw;
  BoundedPath best = warm;
  double best_delay = warm.delay_ps(dm);
  double a_hi = 0.0;
  double a_lo = -1e-3 * path.stage_coefficient(dm, 0) / path.cin(0);
  for (int grow = 0; grow < 80; ++grow) {
    warm = size_at_sensitivity(warm, dm, a_lo, opt, &sw);
    res.sweeps += sw;
    if (warm.delay_ps(dm) >= tc_ps) break;
    a_hi = a_lo;
    best = warm;
    best_delay = warm.delay_ps(dm);
    a_lo *= 4.0;
  }
  for (int it = 0; it < opt.max_bisect; ++it) {
    const double a_mid = 0.5 * (a_lo + a_hi);
    warm = size_at_sensitivity(warm, dm, a_mid, opt, &sw);
    res.sweeps += sw;
    const double t = warm.delay_ps(dm);
    if (t <= tc_ps) {
      a_hi = a_mid;
      best = warm;
      best_delay = t;
      if (std::abs(t - tc_ps) <= opt.tc_rel_tol * tc_ps) break;
    } else {
      a_lo = a_mid;
    }
  }
  res.path = std::move(best);
  res.delay_ps = best_delay;
  res.area_um = res.path.area_um();
  res.a = a_hi;
  res.feasible = best_delay <= tc_ps;
  return res;
}

TEST(SensitivityFloor, AllMinimumSizingIsTheFixedPointOnEveryBackend) {
  const Library lib(Technology::cmos025());
  const ClosedFormModel cf(lib);
  const TableModel table = TableModel::characterize(cf, {});
  for (const DelayModel* dm : {static_cast<const DelayModel*>(&cf),
                               static_cast<const DelayModel*>(&table)}) {
    for (const std::string& name : iscas_names()) {
      SCOPED_TRACE(std::string(dm->name()) + " " + name);
      const BoundedPath path = critical_path(lib, *dm, name);
      BoundedPath at_min = path;
      at_min.set_all_min_drive();
      const double tmax = at_min.delay_ps(*dm);
      const double a_floor = sensitivity_floor(path, *dm);
      ASSERT_LT(a_floor, 0.0);
      // Every update clamps to minimum drive: one sweep, nothing moves.
      int sweeps = 0;
      const BoundedPath at_floor =
          size_at_sensitivity(at_min, *dm, a_floor, {}, &sweeps);
      EXPECT_EQ(at_floor.cins(), at_min.cins());
      EXPECT_EQ(at_floor.delay_ps(*dm), tmax);
      EXPECT_EQ(sweeps, 1);
      // And the floor is tight: just above it some stage grows.
      EXPECT_LT(size_at_sensitivity(at_min, *dm, 0.9 * a_floor).delay_ps(*dm),
                tmax);
    }
  }
}

TEST(SensitivitySearch, MatchesGrowBisectOracleOnPaperCircuits) {
  // The protocol's call (seeded with the Tmin sizing) against the
  // replaced solve's call (seeded with the path as extracted).
  const Library lib(Technology::cmos025());
  const ClosedFormModel dm(lib);
  const SensitivityOptions opt;
  long sweeps = 0, oracle_sweeps = 0;
  int searched = 0;
  for (const std::string& name : iscas_names()) {
    const BoundedPath path = critical_path(lib, dm, name);
    const PathBounds b = compute_bounds(path, dm);
    for (double ratio : {1.02, 1.1, 1.3, 1.8, 2.4}) {
      SCOPED_TRACE(name + " Tc/Tmin=" + std::to_string(ratio));
      const double tc = ratio * b.tmin_ps;
      const SizingResult r = size_for_constraint(b.at_tmin, dm, tc, opt);
      EXPECT_TRUE(r.feasible);
      EXPECT_LE(r.delay_ps, tc);
      EXPECT_EQ(r.delay_ps, r.path.delay_ps(dm));
      sweeps += r.sweeps;
      if (tc >= b.tmax_ps) {
        EXPECT_EQ(r.path.cins(), b.at_tmax.cins());
        continue;
      }
      ++searched;
      EXPECT_LE(std::abs(r.delay_ps - tc), opt.tc_rel_tol * tc);
      const SizingResult o = grow_bisect_oracle(path, dm, tc, opt);
      ASSERT_TRUE(o.feasible);
      EXPECT_NEAR(r.area_um, o.area_um, 1e-3 * o.area_um);
      oracle_sweeps += o.sweeps;
    }
  }
  EXPECT_GE(searched, 30);
  // Deterministic work budget: at most 40% of the oracle's sweeps.
  EXPECT_LE(sweeps, 0.4 * static_cast<double>(oracle_sweeps))
      << sweeps << " sweeps vs the oracle's " << oracle_sweeps;
}

TEST(SensitivitySearch, ReturnsTheFeasibleEndWhenTheBudgetRunsOut) {
  // With one refinement solve the search stops before it reaches the
  // window; whatever it holds, the returned fit is feasible and `a` is
  // the sensitivity that produced it.
  const Library lib(Technology::cmos025());
  const ClosedFormModel dm(lib);
  const BoundedPath path = critical_path(lib, dm, "c432");
  const PathBounds b = compute_bounds(path, dm);
  const double tc = 1.1 * b.tmin_ps;
  for (int budget : {1, 2, 3}) {
    SCOPED_TRACE(budget);
    SensitivityOptions opt;
    opt.max_bisect = budget;
    const SizingResult r = size_for_constraint(path, dm, tc, opt);
    EXPECT_TRUE(r.feasible);
    EXPECT_LE(r.delay_ps, tc);
    EXPECT_EQ(r.delay_ps, r.path.delay_ps(dm));
    EXPECT_LE(r.a, 0.0);
    const double resolved = size_at_sensitivity(r.path, dm, r.a).delay_ps(dm);
    EXPECT_NEAR(resolved, r.delay_ps, 1e-6 * r.delay_ps);
  }
}

TEST(SensitivitySearch, SweepCountsStopAtTheBudget) {
  // size_for_tmin and size_at_sensitivity count sweeps the same way: a
  // budget of 2 on paths that need more reports 2, not 3.
  const Library lib(Technology::cmos025());
  const ClosedFormModel dm(lib);
  for (const char* name : {"c432", "c880", "c1908", "c6288"}) {
    SCOPED_TRACE(name);
    const BoundedPath path = critical_path(lib, dm, name);
    BoundsOptions bopt;
    bopt.max_sweeps = 2;
    int tmin_sweeps = 0;
    size_for_tmin(path, dm, bopt, nullptr, &tmin_sweeps);
    EXPECT_EQ(tmin_sweeps, 2);
    EXPECT_EQ(compute_bounds(path, dm, bopt).sweeps, 2);
    SensitivityOptions sopt;
    sopt.max_sweeps = 2;
    int a0_sweeps = 0;
    size_at_sensitivity(path, dm, 0.0, sopt, &a0_sweeps);
    EXPECT_EQ(a0_sweeps, 2);
    // Unconstrained, the Tmin solve converges well inside its budget.
    int free_sweeps = 0;
    size_for_tmin(path, dm, {}, nullptr, &free_sweeps);
    EXPECT_GE(free_sweeps, 3);
    EXPECT_LT(free_sweeps, BoundsOptions{}.max_sweeps);
  }
}

TEST(SensitivityOptionsTest, ProblemsAndEntryValidation) {
  EXPECT_TRUE(SensitivityOptions{}.problems().empty());
  EXPECT_TRUE(BoundsOptions{}.problems().empty());
  SensitivityOptions bad;
  bad.max_bisect = 0;
  bad.tol = 0.0;
  EXPECT_EQ(bad.problems().size(), 2u);
  const Library lib(Technology::cmos025());
  const ClosedFormModel dm(lib);
  const BoundedPath path = critical_path(lib, dm, "c432");
  EXPECT_THROW(size_for_constraint(path, dm, 1000.0, bad),
               std::invalid_argument);
  BoundsOptions bad_bounds;
  bad_bounds.init_scale = -1.0;
  EXPECT_EQ(bad_bounds.problems().size(), 1u);
  EXPECT_THROW(size_for_tmin(path, dm, bad_bounds), std::invalid_argument);
}

}  // namespace
