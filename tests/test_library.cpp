// Unit tests for pops::liberty — cell definitions, boolean functions,
// capacitance accessors and the eq. (3) symmetry factors.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "pops/liberty/library.hpp"
#include "pops/process/technology.hpp"

namespace {

using namespace pops::liberty;
using pops::process::Technology;

class LibraryTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
};

TEST_F(LibraryTest, AllKindsPresentWithCanonicalNames) {
  for (CellKind k : all_cell_kinds()) {
    const Cell& c = lib.cell(k);
    EXPECT_EQ(c.kind, k);
    EXPECT_EQ(c.name, to_string(k));
    EXPECT_EQ(&lib.cell(c.name), &c);
    // cells() is in enum order: the kind lookup is a direct index.
    EXPECT_EQ(&c, &lib.cells()[static_cast<std::size_t>(k)]);
  }
  // A kind past the populated set still fails loudly, not out of bounds.
  EXPECT_THROW(lib.cell(static_cast<CellKind>(kCellKindCount)),
               std::logic_error);
}

TEST_F(LibraryTest, KindFromStringRoundTrip) {
  for (CellKind k : all_cell_kinds())
    EXPECT_EQ(cell_kind_from_string(to_string(k)), k);
  EXPECT_THROW(cell_kind_from_string("nand17"), std::invalid_argument);
}

TEST_F(LibraryTest, CrefIsMinimumInverterInputCap) {
  const Cell& inv = lib.cell(CellKind::Inv);
  EXPECT_DOUBLE_EQ(lib.cref_ff(), inv.cin_ff(lib.tech(), lib.tech().wmin_um));
  EXPECT_GT(lib.cref_ff(), 1.0);  // a few fF at 0.25µm
  EXPECT_LT(lib.cref_ff(), 10.0);
}

TEST_F(LibraryTest, CinLinearInDrive) {
  const Cell& nand2 = lib.cell(CellKind::Nand2);
  const double c1 = nand2.cin_ff(lib.tech(), 1.0);
  const double c3 = nand2.cin_ff(lib.tech(), 3.0);
  EXPECT_NEAR(c3, 3.0 * c1, 1e-12);
}

TEST_F(LibraryTest, WnForCinInvertsCinFf) {
  for (CellKind k : all_cell_kinds()) {
    const Cell& c = lib.cell(k);
    const double wn = 2.34;
    EXPECT_NEAR(c.wn_for_cin(lib.tech(), c.cin_ff(lib.tech(), wn)), wn, 1e-12);
  }
}

TEST_F(LibraryTest, TotalWidthScalesWithFaninAndK) {
  const Cell& inv = lib.cell(CellKind::Inv);
  const Cell& nand2 = lib.cell(CellKind::Nand2);
  EXPECT_DOUBLE_EQ(inv.total_width_um(1.0), 1.0 + inv.k_ratio);
  EXPECT_DOUBLE_EQ(nand2.total_width_um(1.0), 2.0 * (1.0 + nand2.k_ratio));
}

TEST_F(LibraryTest, LogicalWeightsGrowWithStackDepth) {
  EXPECT_LT(lib.cell(CellKind::Nand2).dw_hl, lib.cell(CellKind::Nand3).dw_hl);
  EXPECT_LT(lib.cell(CellKind::Nand3).dw_hl, lib.cell(CellKind::Nand4).dw_hl);
  EXPECT_LT(lib.cell(CellKind::Nor2).dw_lh, lib.cell(CellKind::Nor3).dw_lh);
  EXPECT_LT(lib.cell(CellKind::Nor3).dw_lh, lib.cell(CellKind::Nor4).dw_lh);
}

TEST_F(LibraryTest, SymmetryFactorsReflectSerialArrays) {
  // eq. (3): S_HL = (1+k) DW_HL ; S_LH = R (1+k)/k DW_LH.
  const Cell& inv = lib.cell(CellKind::Inv);
  EXPECT_NEAR(lib.s_hl(inv), (1.0 + inv.k_ratio) * 1.0, 1e-12);
  EXPECT_NEAR(lib.s_lh(inv),
              lib.tech().r_ratio * (1.0 + inv.k_ratio) / inv.k_ratio, 1e-12);
  // The NOR3 rising edge is the weakest drive of the basic library.
  const double s_nor3 = lib.s_lh(lib.cell(CellKind::Nor3));
  for (CellKind k : {CellKind::Inv, CellKind::Nand2, CellKind::Nand3,
                     CellKind::Nor2}) {
    EXPECT_GT(s_nor3, lib.s_lh(lib.cell(k)));
    EXPECT_GT(s_nor3, lib.s_hl(lib.cell(k)));
  }
}

TEST_F(LibraryTest, ParasiticGrowsWithStackFactor) {
  const auto& t = lib.tech();
  EXPECT_GT(lib.cell(CellKind::Nand4).cpar_ff(t, 1.0) /
                lib.cell(CellKind::Nand4).cin_ff(t, 1.0),
            lib.cell(CellKind::Nand2).cpar_ff(t, 1.0) /
                lib.cell(CellKind::Nand2).cin_ff(t, 1.0) - 1e-12);
}

// ---- boolean functions, exhaustively per kind -------------------------------

bool ref_eval(CellKind k, const std::vector<bool>& in) {
  auto all = [&] {
    for (bool b : in)
      if (!b) return false;
    return true;
  };
  auto any = [&] {
    for (bool b : in)
      if (b) return true;
    return false;
  };
  switch (k) {
    case CellKind::Inv: return !in[0];
    case CellKind::Buf: return in[0];
    case CellKind::Nand2:
    case CellKind::Nand3:
    case CellKind::Nand4: return !all();
    case CellKind::Nor2:
    case CellKind::Nor3:
    case CellKind::Nor4: return !any();
    case CellKind::Aoi21: return !((in[0] && in[1]) || in[2]);
    case CellKind::Oai21: return !((in[0] || in[1]) && in[2]);
    case CellKind::Xor2: return in[0] != in[1];
    case CellKind::Xnor2: return in[0] == in[1];
  }
  return false;
}

class CellEvalTest : public ::testing::TestWithParam<CellKind> {};

TEST_P(CellEvalTest, MatchesTruthTable) {
  const Library lib(Technology::cmos025());
  const Cell& c = lib.cell(GetParam());
  const int n = c.fanin;
  for (unsigned pattern = 0; pattern < (1u << n); ++pattern) {
    std::vector<bool> in(static_cast<std::size_t>(n));
    bool raw[4];
    for (int i = 0; i < n; ++i) {
      in[static_cast<std::size_t>(i)] = (pattern >> i) & 1u;
      raw[i] = in[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(c.eval({raw, static_cast<std::size_t>(n)}),
              ref_eval(GetParam(), in))
        << c.name << " pattern " << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellEvalTest,
                         ::testing::ValuesIn(all_cell_kinds().begin(),
                                             all_cell_kinds().end()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_F(LibraryTest, EvalArityMismatchThrows) {
  const Cell& nand2 = lib.cell(CellKind::Nand2);
  bool one[1] = {true};
  EXPECT_THROW(nand2.eval({one, 1}), std::invalid_argument);
}

TEST_F(LibraryTest, InvertingFlagsConsistent) {
  EXPECT_TRUE(lib.cell(CellKind::Inv).inverting);
  EXPECT_FALSE(lib.cell(CellKind::Buf).inverting);
  EXPECT_TRUE(lib.cell(CellKind::Nand2).inverting);
  EXPECT_TRUE(lib.cell(CellKind::Nor4).inverting);
  EXPECT_FALSE(lib.cell(CellKind::Xor2).inverting);
  EXPECT_TRUE(lib.cell(CellKind::Xnor2).inverting);
}

}  // namespace
