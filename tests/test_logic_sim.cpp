// Unit tests for the zero-delay logic simulator: truth tables, functional
// equivalence checking and switching-activity estimation — including the
// word-parallel kernel against the scalar reference it replaced.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/process/technology.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops::netlist;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;
using pops::util::Rng;

class LogicSimTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
};

/// The scalar activity estimator the word kernel replaced: one
/// std::vector<bool> per vector through LogicSimulator::eval_all. Kept as
/// the reference estimate_activity must match bit for bit.
ActivityReport scalar_estimate_activity(const Netlist& nl, Rng& rng,
                                        int n_vectors) {
  const LogicSimulator sim(nl);
  const std::size_t n_pi = nl.inputs().size();

  std::vector<int> toggles(nl.size(), 0);
  std::vector<int> ones(nl.size(), 0);
  std::vector<bool> prev;
  for (int v = 0; v < n_vectors; ++v) {
    std::vector<bool> pi(n_pi);
    for (std::size_t i = 0; i < n_pi; ++i) pi[i] = rng.bernoulli(0.5);
    std::vector<bool> cur = sim.eval_all(pi);
    for (std::size_t i = 0; i < cur.size(); ++i)
      if (cur[i]) ++ones[i];
    if (v > 0)
      for (std::size_t i = 0; i < cur.size(); ++i)
        if (cur[i] != prev[i]) ++toggles[i];
    prev = std::move(cur);
  }

  ActivityReport report;
  report.toggle_rate.resize(nl.size());
  report.p_one.resize(nl.size());
  const double pairs = static_cast<double>(n_vectors - 1);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    report.toggle_rate[i] = static_cast<double>(toggles[i]) / pairs;
    report.p_one[i] =
        static_cast<double>(ones[i]) / static_cast<double>(n_vectors);
    report.switched_cap_ff_per_vec +=
        report.toggle_rate[i] * nl.load_ff(static_cast<NodeId>(i));
  }
  return report;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

TEST_F(LogicSimTest, C17KnownVectors) {
  const Netlist nl = make_c17(lib);
  const LogicSimulator sim(nl);
  // c17: 22 = NAND(10,16), 23 = NAND(16,19) with
  // 10=NAND(1,3), 11=NAND(3,6), 16=NAND(2,11), 19=NAND(11,7).
  // All-zero input: 10=1, 11=1, 16=1, 19=1 -> 22=0, 23=0.
  EXPECT_EQ(sim.eval_outputs({false, false, false, false, false}),
            (std::vector<bool>{false, false}));
  // All-one input: 10=0, 11=0, 16=1, 19=1 -> 22=1, 23=0.
  EXPECT_EQ(sim.eval_outputs({true, true, true, true, true}),
            (std::vector<bool>{true, false}));
}

TEST_F(LogicSimTest, PiCountMismatchThrows) {
  const Netlist nl = make_c17(lib);
  const LogicSimulator sim(nl);
  EXPECT_THROW(sim.eval_all({true}), std::invalid_argument);
}

TEST_F(LogicSimTest, EquivalentToItself) {
  const Netlist a = make_c17(lib);
  const Netlist b = make_c17(lib);
  Rng rng(1);
  EXPECT_TRUE(equivalent(a, b, rng));
}

TEST_F(LogicSimTest, DetectsFunctionalChange) {
  const Netlist a = make_c17(lib);
  Netlist b = make_c17(lib);
  // Tamper: swap a NAND for a NOR.
  const NodeId g = b.find("22");
  ASSERT_NE(g, kNoNode);
  b.replace_cell(g, CellKind::Nor2);
  Rng rng(1);
  EXPECT_FALSE(equivalent(a, b, rng));
}

TEST_F(LogicSimTest, EquivalenceIsSizeBlind) {
  const Netlist a = make_c17(lib);
  Netlist b = make_c17(lib);
  for (NodeId g : b.gates()) b.set_drive(g, 5.0);
  Rng rng(2);
  EXPECT_TRUE(equivalent(a, b, rng));
}

TEST_F(LogicSimTest, MismatchedInterfaceThrows) {
  const Netlist a = make_c17(lib);
  Netlist b(lib);
  b.add_input("1");
  const NodeId g = b.add_gate(CellKind::Inv, "22", {b.find("1")});
  b.mark_output(g, 1.0);
  Rng rng(3);
  EXPECT_THROW(equivalent(a, b, rng), std::invalid_argument);
}

TEST_F(LogicSimTest, ActivityBounds) {
  const Netlist nl = make_c17(lib);
  Rng rng(4);
  const ActivityReport rep = estimate_activity(nl, rng, 2000);
  ASSERT_EQ(rep.toggle_rate.size(), nl.size());
  for (double r : rep.toggle_rate) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
  // PIs toggle at ~1/2 under uniform random vectors.
  for (NodeId pi : nl.inputs())
    EXPECT_NEAR(rep.toggle_rate[static_cast<std::size_t>(pi)], 0.5, 0.08);
  EXPECT_GT(rep.switched_cap_ff_per_vec, 0.0);
}

TEST_F(LogicSimTest, ActivityNeedsTwoVectors) {
  const Netlist nl = make_c17(lib);
  Rng rng(5);
  EXPECT_THROW(estimate_activity(nl, rng, 1), std::invalid_argument);
}

TEST_F(LogicSimTest, InverterChainParity) {
  // A chain of N inverters computes parity of N: output = in XOR (N odd).
  for (int n : {1, 2, 5, 8}) {
    std::vector<CellKind> kinds(static_cast<std::size_t>(n), CellKind::Inv);
    const Netlist nl = make_chain(lib, kinds, 5.0, "chain" + std::to_string(n));
    const LogicSimulator sim(nl);
    const bool out_for_true = sim.eval_outputs({true}).front();
    EXPECT_EQ(out_for_true, n % 2 == 0);
  }
}

// ---------------------------------------------------------------------------
// Word-parallel kernel
// ---------------------------------------------------------------------------

TEST_F(LogicSimTest, EvalWordMatchesEvalOnEveryPatternInEveryLane) {
  ASSERT_EQ(lib.cells().size(), pops::liberty::kCellKindCount);
  for (const pops::liberty::Cell& cell : lib.cells()) {
    const auto fanin = static_cast<std::size_t>(cell.fanin);
    const std::size_t patterns = std::size_t{1} << fanin;
    // Lane j carries pattern (j + shift) mod 2^fanin; across the shifts
    // every pattern visits every lane.
    for (std::size_t shift = 0; shift < patterns; ++shift) {
      std::vector<std::uint64_t> words(fanin, 0);
      for (std::size_t lane = 0; lane < 64; ++lane) {
        const std::size_t p = (lane + shift) % patterns;
        for (std::size_t k = 0; k < fanin; ++k)
          words[k] |= static_cast<std::uint64_t>((p >> k) & 1u) << lane;
      }
      const std::uint64_t out = cell.eval_word(words);
      for (std::size_t lane = 0; lane < 64; ++lane) {
        const std::size_t p = (lane + shift) % patterns;
        bool in[4] = {};
        for (std::size_t k = 0; k < fanin; ++k) in[k] = (p >> k) & 1u;
        EXPECT_EQ(((out >> lane) & 1u) != 0, cell.eval({in, fanin}))
            << cell.name << " pattern " << p << " lane " << lane;
      }
    }
  }
}

TEST_F(LogicSimTest, EvalWordArityMismatchThrows) {
  const std::uint64_t one[1] = {0};
  EXPECT_THROW(lib.cell(CellKind::Nand2).eval_word(one), std::invalid_argument);
}

class LogicSimParity : public ::testing::TestWithParam<const char*> {
 protected:
  Library lib{Technology::cmos025()};
};

TEST_P(LogicSimParity, WordKernelMatchesScalarReferenceBitForBit) {
  const Netlist nl = make_benchmark(lib, GetParam());
  // Partial words (2, 63, 65, 127, 1000), exact words (64, 128, 512) and
  // every toggle pair that straddles two words.
  for (int n : {2, 63, 64, 65, 127, 128, 512, 1000}) {
    Rng word_rng(0xACE0u + static_cast<unsigned>(n));
    Rng scalar_rng(0xACE0u + static_cast<unsigned>(n));
    const ActivityReport word = estimate_activity(nl, word_rng, n);
    const ActivityReport ref = scalar_estimate_activity(nl, scalar_rng, n);
    EXPECT_TRUE(same_bits(word.toggle_rate, ref.toggle_rate)) << n;
    EXPECT_TRUE(same_bits(word.p_one, ref.p_one)) << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(word.switched_cap_ff_per_vec),
              std::bit_cast<std::uint64_t>(ref.switched_cap_ff_per_vec))
        << n;
    // Same draws in the same order leave the two engines in step.
    EXPECT_EQ(word_rng(), scalar_rng()) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Iscas, LogicSimParity,
                         ::testing::Values("c17", "c432", "c880", "c7552"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

/// FNV-1a over the per-node (ones, toggles) counts behind a report.
std::uint64_t count_hash(const ActivityReport& rep, int n_vectors) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t i = 0; i < rep.p_one.size(); ++i) {
    mix(static_cast<std::uint64_t>(std::llround(rep.p_one[i] * n_vectors)));
    mix(static_cast<std::uint64_t>(
        std::llround(rep.toggle_rate[i] * (n_vectors - 1))));
  }
  return h;
}

TEST(LogicSimGolden, ActivityCountsArePinned) {
  // Recorded from the scalar simulator, before the word kernel existed.
  const Library lib{Technology::cmos025()};
  const struct {
    const char* circuit;
    std::uint64_t hash;
  } golden[] = {
      {"c432", 0xa0738aa987ca36f7ull},
      {"c880", 0xdf2e49df8929b81cull},
      {"c7552", 0x6cddf1cc020c2c86ull},
  };
  for (const auto& g : golden) {
    const Netlist nl = make_benchmark(lib, g.circuit);
    Rng rng(0x5EED);
    EXPECT_EQ(count_hash(estimate_activity(nl, rng, 512), 512), g.hash)
        << g.circuit;
  }
}

// ---------------------------------------------------------------------------
// Equivalence on the word kernel
// ---------------------------------------------------------------------------

TEST_F(LogicSimTest, EquivalentRejectsOutOfRangeExhaustiveLimit) {
  const Netlist a = make_c17(lib);
  Rng rng(6);
  EXPECT_THROW(equivalent(a, a, rng, 512, 64), std::invalid_argument);
  EXPECT_THROW(equivalent(a, a, rng, 512, -1), std::invalid_argument);
}

TEST_F(LogicSimTest, EquivalentRejectsNonPositiveRandomVectorCount) {
  const Netlist a = make_c17(lib);
  Rng rng(7);
  EXPECT_THROW(equivalent(a, a, rng, 0), std::invalid_argument);
  EXPECT_THROW(equivalent(a, a, rng, -5), std::invalid_argument);
}

TEST_F(LogicSimTest, MismatchInLastLaneOfPartialExhaustiveWord) {
  // Five PIs: the 32 exhaustive patterns fill half a word. `a` is
  // NAND(x0, x1); `b` replaces x1 by x1 & !(x2 & x3 & x4), which differs
  // only on the all-ones pattern — lane 31, the last valid lane.
  Netlist a(lib), b(lib);
  std::vector<NodeId> xa, xb;
  for (int i = 0; i < 5; ++i) {
    xa.push_back(a.add_input("x" + std::to_string(i)));
    xb.push_back(b.add_input("x" + std::to_string(i)));
  }
  a.mark_output(a.add_gate(CellKind::Nand2, "out", {xa[0], xa[1]}), 1.0);
  const NodeId n3 = b.add_gate(CellKind::Nand3, "n3", {xb[2], xb[3], xb[4]});
  const NodeId t = b.add_gate(
      CellKind::Inv, "t", {b.add_gate(CellKind::Nand2, "tn", {xb[1], n3})});
  b.mark_output(b.add_gate(CellKind::Nand2, "out", {xb[0], t}), 1.0);

  Rng rng(8);
  EXPECT_FALSE(equivalent(a, b, rng));
  // The scalar oracle agrees on where: only pattern 31.
  const LogicSimulator sim_a(a), sim_b(b);
  for (int p = 0; p < 32; ++p) {
    std::vector<bool> v(5);
    for (int i = 0; i < 5; ++i) v[static_cast<std::size_t>(i)] = (p >> i) & 1;
    EXPECT_EQ(sim_a.eval_outputs(v) != sim_b.eval_outputs(v), p == 31) << p;
  }
}

TEST_F(LogicSimTest, RandomPathMasksUnusedLanesOfPartialWord) {
  // 20 PIs, so 65 random vectors: one full word plus a single lane. The
  // unused lanes hold the all-zero vector, the one input on which `b`
  // (x0 | all-zero) differs from `a` (x0); they must not count.
  Netlist a(lib), b(lib);
  std::vector<NodeId> xa, xb;
  for (int i = 0; i < 20; ++i) {
    xa.push_back(a.add_input("x" + std::to_string(i)));
    xb.push_back(b.add_input("x" + std::to_string(i)));
  }
  a.mark_output(a.add_gate(CellKind::Buf, "out", {xa[0]}), 1.0);
  std::vector<NodeId> group_zero;
  for (int k = 0; k < 5; ++k) {
    const auto at = [&](int j) { return xb[static_cast<std::size_t>(4 * k + j)]; };
    group_zero.push_back(b.add_gate(CellKind::Nor4, "z" + std::to_string(k),
                                    {at(0), at(1), at(2), at(3)}));
  }
  const NodeId low4 = b.add_gate(CellKind::Nand4, "low4",
                                 {group_zero[0], group_zero[1], group_zero[2],
                                  group_zero[3]});
  const NodeId hi = b.add_gate(CellKind::Inv, "hi", {group_zero[4]});
  const NodeId all_zero = b.add_gate(CellKind::Nor2, "all_zero", {low4, hi});
  const NodeId nx0 = b.add_gate(CellKind::Inv, "nx0", {xb[0]});
  const NodeId nz = b.add_gate(CellKind::Inv, "nz", {all_zero});
  b.mark_output(b.add_gate(CellKind::Nand2, "out", {nx0, nz}), 1.0);

  Rng rng(9);
  EXPECT_TRUE(equivalent(a, b, rng, /*n_random_vectors=*/65));
  // Exhaustively they differ, so the masking is what kept it true.
  EXPECT_FALSE(equivalent(a, b, rng, 512, /*exhaustive_limit=*/20));
}

TEST_F(LogicSimTest, RandomPathDrawsTheScalarVectorSequence) {
  // Equivalent netlists consume exactly n_vectors x n_pi bernoulli draws,
  // vector-major — the vectors the scalar checker drew.
  const Netlist a = make_benchmark(lib, "c432");
  for (int n : {1, 64, 100}) {
    Rng rng(10), ref(10);
    ASSERT_TRUE(equivalent(a, a, rng, n));
    for (int v = 0; v < n; ++v)
      for (std::size_t i = 0; i < a.inputs().size(); ++i) (void)ref.bernoulli(0.5);
    EXPECT_EQ(rng(), ref()) << n;
  }
}

}  // namespace
