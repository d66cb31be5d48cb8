// Unit tests for the eq. (1-3) delay model: monotonicity, the coupling and
// slope terms, symmetry factors and the link-equation stage coefficient.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "pops/liberty/library.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/delay_model.hpp"
#include "pops/timing/table_model.hpp"

namespace {

using namespace pops::timing;
using pops::liberty::Cell;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;

class DelayModelTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  ClosedFormModel dm{lib};
};

TEST_F(DelayModelTest, TransitionScalesLinearlyWithLoad) {
  const Cell& inv = lib.cell(CellKind::Inv);
  const double t1 = dm.transition_ps(inv, Edge::Fall, 10.0, 20.0);
  const double t2 = dm.transition_ps(inv, Edge::Fall, 10.0, 40.0);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-12);
}

TEST_F(DelayModelTest, TransitionInverseInDrive) {
  const Cell& inv = lib.cell(CellKind::Inv);
  const double t1 = dm.transition_ps(inv, Edge::Rise, 10.0, 30.0);
  const double t2 = dm.transition_ps(inv, Edge::Rise, 20.0, 30.0);
  EXPECT_NEAR(t2, 0.5 * t1, 1e-12);
}

TEST_F(DelayModelTest, Eq2MatchesHandComputation) {
  // tau_outHL = S_HL * tau * CL/CIN with S_HL = (1+k)*DW_HL.
  const Cell& inv = lib.cell(CellKind::Inv);
  const double expect =
      (1.0 + inv.k_ratio) * 1.0 * lib.tech().tau_ps * (30.0 / 10.0);
  EXPECT_NEAR(dm.transition_ps(inv, Edge::Fall, 10.0, 30.0), expect, 1e-9);
}

TEST_F(DelayModelTest, SlowEdgeFollowsWeakNetwork) {
  // INV and NOR: the PMOS network is the weak one (k < R, plus the NOR's
  // serial P stack) -> rising is slower. NAND: the serial NMOS stack
  // dominates -> falling is slower.
  for (CellKind k : {CellKind::Inv, CellKind::Nor2, CellKind::Nor3}) {
    const Cell& c = lib.cell(k);
    EXPECT_GT(dm.transition_ps(c, Edge::Rise, 10.0, 30.0),
              dm.transition_ps(c, Edge::Fall, 10.0, 30.0))
        << c.name;
  }
  for (CellKind k : {CellKind::Nand2, CellKind::Nand3}) {
    const Cell& c = lib.cell(k);
    EXPECT_GT(dm.transition_ps(c, Edge::Fall, 10.0, 30.0),
              dm.transition_ps(c, Edge::Rise, 10.0, 30.0))
        << c.name;
  }
}

TEST_F(DelayModelTest, InvalidArgsThrow) {
  const Cell& inv = lib.cell(CellKind::Inv);
  EXPECT_THROW(dm.transition_ps(inv, Edge::Fall, 0.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(dm.delay_ps(inv, Edge::Fall, -1.0, 10.0, 10.0),
               std::invalid_argument);
}

TEST_F(DelayModelTest, CouplingCapMatchesDeviceSplit) {
  const Cell& inv = lib.cell(CellKind::Inv);  // k = 2
  const double cin = 12.0;
  // Falling output = rising input = coupling through the P gate cap.
  EXPECT_NEAR(dm.coupling_ff(inv, Edge::Fall, cin),
              0.5 * (inv.k_ratio / (1.0 + inv.k_ratio)) * cin, 1e-12);
  EXPECT_NEAR(dm.coupling_ff(inv, Edge::Rise, cin),
              0.5 * (1.0 / (1.0 + inv.k_ratio)) * cin, 1e-12);
}

TEST_F(DelayModelTest, MillerFactorBounded) {
  const Cell& inv = lib.cell(CellKind::Inv);
  // (1 + 2CM/(CM+CL)) lies in (1, 3); -> 1 as CL -> inf, -> 3 as CL -> 0.
  EXPECT_NEAR(dm.miller_factor(inv, Edge::Fall, 10.0, 1e9), 1.0, 1e-6);
  EXPECT_GT(dm.miller_factor(inv, Edge::Fall, 10.0, 0.01), 2.5);
  const double m = dm.miller_factor(inv, Edge::Fall, 10.0, 20.0);
  EXPECT_GT(m, 1.0);
  EXPECT_LT(m, 3.0);
}

TEST_F(DelayModelTest, DelayIncludesSlopeTerm) {
  // eq. (1): the input-slope contribution is exactly v_T/2 * tau_in.
  const Cell& inv = lib.cell(CellKind::Inv);
  const double d0 = dm.delay_ps(inv, Edge::Fall, 0.0, 10.0, 30.0);
  const double d1 = dm.delay_ps(inv, Edge::Fall, 100.0, 10.0, 30.0);
  EXPECT_NEAR(d1 - d0, 0.5 * lib.tech().vtn_reduced() * 100.0, 1e-9);
}

TEST_F(DelayModelTest, SlopeTermUsesEdgeSpecificThreshold) {
  EXPECT_DOUBLE_EQ(dm.reduced_vt(Edge::Fall), lib.tech().vtn_reduced());
  EXPECT_DOUBLE_EQ(dm.reduced_vt(Edge::Rise), lib.tech().vtp_reduced());
}

TEST_F(DelayModelTest, DelayMonotoneInLoad) {
  const Cell& nand2 = lib.cell(CellKind::Nand2);
  double prev = 0.0;
  for (double cl = 5.0; cl < 200.0; cl += 5.0) {
    const double d = dm.delay_ps(nand2, Edge::Fall, 40.0, 8.0, cl);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST_F(DelayModelTest, StageCoefficientPositiveAndOrdered) {
  // A_i = tau * S * (miller + vt_next)/2 — positive, and larger for the
  // weaker (higher logical weight) cells at identical conditions.
  const double a_inv = dm.stage_coefficient(lib.cell(CellKind::Inv),
                                            Edge::Rise, 10.0, 30.0, true,
                                            Edge::Fall);
  const double a_nor3 = dm.stage_coefficient(lib.cell(CellKind::Nor3),
                                             Edge::Rise, 10.0, 30.0, true,
                                             Edge::Fall);
  EXPECT_GT(a_inv, 0.0);
  EXPECT_GT(a_nor3, a_inv);
}

TEST_F(DelayModelTest, StageCoefficientLastStageDropsSlopeTerm) {
  const Cell& inv = lib.cell(CellKind::Inv);
  const double with_next =
      dm.stage_coefficient(inv, Edge::Rise, 10.0, 30.0, true, Edge::Fall);
  const double last =
      dm.stage_coefficient(inv, Edge::Rise, 10.0, 30.0, false, Edge::Fall);
  EXPECT_GT(with_next, last);
  const double vt = lib.tech().vtn_reduced();
  EXPECT_NEAR(with_next - last,
              lib.tech().tau_ps * dm.symmetry_factor(inv, Edge::Rise) * 0.5 * vt,
              1e-9);
}

TEST_F(DelayModelTest, DefaultInputSlewIsFo1Inverter) {
  const Cell& inv = lib.cell(CellKind::Inv);
  const double expect =
      0.5 * (lib.s_hl(inv) + lib.s_lh(inv)) * lib.tech().tau_ps;
  EXPECT_NEAR(dm.default_input_slew_ps(), expect, 1e-12);
  EXPECT_GT(dm.default_input_slew_ps(), 0.0);
}

TEST(DelayModel, DelayNonDecreasingInInputSlew) {
  // The premise that lets MultiVtPass test high-Vt flips in runs: a flip
  // derates its stage's delay and slew by >= 1, and no fanout arc may get
  // faster when its input slew grows. Checked on every cell and edge of
  // both backends, over a slew sweep that covers 0, each table grid point
  // with its floating-point neighbours, the segments between them, and
  // the clamped range past the last point, at loads on, between and
  // outside the load grid.
  const Library lib(Technology::cmos025());
  const ClosedFormModel closed(lib);
  const TableModelOptions grid;
  const TableModel table = TableModel::characterize(closed, grid);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> slews = {0.0, 1000.0, 5000.0, 1e5};
  for (const double g : grid.slew_grid_ps) {
    slews.push_back(std::nextafter(g, 0.0));
    slews.push_back(g);
    slews.push_back(std::nextafter(g, kInf));
  }
  for (int k = 1; k <= 1600; ++k) slews.push_back(0.5 * k);
  std::sort(slews.begin(), slews.end());
  slews.erase(std::unique(slews.begin(), slews.end()), slews.end());

  std::vector<double> ratios = {0.05, 200.0};
  for (std::size_t j = 0; j < grid.load_grid.size(); ++j) {
    ratios.push_back(grid.load_grid[j]);
    if (j + 1 < grid.load_grid.size())
      ratios.push_back(0.5 * (grid.load_grid[j] + grid.load_grid[j + 1]));
  }

  for (const DelayModel* dm : {static_cast<const DelayModel*>(&closed),
                               static_cast<const DelayModel*>(&table)}) {
    for (const Cell& cell : lib.cells()) {
      for (const Edge e : {Edge::Rise, Edge::Fall}) {
        for (const double cin : {1.0, 7.3}) {
          for (const double r : ratios) {
            double prev = dm->delay_ps(cell, e, slews.front(), cin, r * cin);
            for (std::size_t k = 1; k < slews.size(); ++k) {
              const double d = dm->delay_ps(cell, e, slews[k], cin, r * cin);
              ASSERT_GE(d, prev)
                  << dm->name() << " " << cell.name << " " << to_string(e)
                  << " cin " << cin << " CL/CIN " << r << " slew "
                  << slews[k - 1] << " -> " << slews[k];
              prev = d;
            }
          }
        }
      }
    }
  }

  // And the flip itself slows both edges on the shipped high-Vt class.
  const int hvt = lib.tech().find_vt_class("hvt");
  ASSERT_GT(hvt, 0);
  EXPECT_GE(closed.vt_derate(hvt, Edge::Rise), 1.0);
  EXPECT_GE(closed.vt_derate(hvt, Edge::Fall), 1.0);
}

TEST(EdgeHelpers, FlipAndNames) {
  EXPECT_EQ(flip(Edge::Rise), Edge::Fall);
  EXPECT_EQ(flip(Edge::Fall), Edge::Rise);
  EXPECT_STREQ(to_string(Edge::Rise), "rise");
  EXPECT_STREQ(to_string(Edge::Fall), "fall");
}

// Property sweep: the FO4 delay of every basic cell sits in a plausible
// 0.25µm window (tens of ps up to ~0.5 ns for the weak NOR edges).
class Fo4Test : public ::testing::TestWithParam<CellKind> {};

TEST_P(Fo4Test, Fo4DelayPlausible) {
  const Library lib(Technology::cmos025());
  const ClosedFormModel dm(lib);
  const Cell& c = lib.cell(GetParam());
  const double cin = c.cin_ff(lib.tech(), 2.0);
  for (Edge e : {Edge::Rise, Edge::Fall}) {
    const double d =
        dm.delay_ps(c, e, dm.default_input_slew_ps(), cin, 4.0 * cin);
    EXPECT_GT(d, 20.0) << c.name;
    EXPECT_LT(d, 600.0) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(BasicCells, Fo4Test,
                         ::testing::Values(CellKind::Inv, CellKind::Nand2,
                                           CellKind::Nand3, CellKind::Nand4,
                                           CellKind::Nor2, CellKind::Nor3,
                                           CellKind::Nor4),
                         [](const auto& info) {
                           return std::string(pops::liberty::to_string(info.param));
                         });

}  // namespace
