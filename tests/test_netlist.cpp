// Unit tests for pops::netlist::Netlist — DAG construction, capacitance
// accounting, editing operations and validation.

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/process/technology.hpp"

namespace {

using namespace pops::netlist;
using pops::liberty::CellKind;
using pops::liberty::Library;
using pops::process::Technology;

class NetlistTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
};

TEST_F(NetlistTest, BuildSmallDag) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::Nand2, "g", {a, b});
  const NodeId h = nl.add_gate(CellKind::Inv, "h", {g});
  nl.mark_output(h, 10.0);

  EXPECT_EQ(nl.size(), 4u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs(), std::vector<NodeId>{h});
  EXPECT_EQ(nl.gates(), (std::vector<NodeId>{g, h}));
  EXPECT_EQ(nl.fanouts(a), std::vector<NodeId>{g});
  EXPECT_EQ(nl.fanouts(g), std::vector<NodeId>{h});
  EXPECT_NO_THROW(nl.validate());
}

TEST_F(NetlistTest, DuplicateNameThrows) {
  Netlist nl(lib);
  nl.add_input("x");
  EXPECT_THROW(nl.add_input("x"), std::invalid_argument);
}

TEST_F(NetlistTest, ArityMismatchThrows) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(CellKind::Nand2, "g", {a}), std::invalid_argument);
}

TEST_F(NetlistTest, InvalidFaninThrows) {
  Netlist nl(lib);
  nl.add_input("a");
  EXPECT_THROW(nl.add_gate(CellKind::Inv, "g", {99}), std::invalid_argument);
}

TEST_F(NetlistTest, TopoOrderRespectsEdges) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::Inv, "g1", {a});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  nl.mark_output(g2, 5.0);
  const auto& topo = nl.topo_order();
  auto pos = [&](NodeId id) {
    return std::find(topo.begin(), topo.end(), id) - topo.begin();
  };
  EXPECT_LT(pos(a), pos(g1));
  EXPECT_LT(pos(g1), pos(g2));
}

TEST_F(NetlistTest, LoadAccountsWireSinksAndPo) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  const NodeId s1 = nl.add_gate(CellKind::Inv, "s1", {g});
  const NodeId s2 = nl.add_gate(CellKind::Nand2, "s2", {g, a});
  nl.mark_output(g, 7.5);
  nl.mark_output(s1, 1.0);
  nl.mark_output(s2, 1.0);
  nl.set_wire_cap(g, 3.0);
  EXPECT_NEAR(nl.load_ff(g), 3.0 + 7.5 + nl.cin_ff(s1) + nl.cin_ff(s2), 1e-12);
}

TEST_F(NetlistTest, DriveClampingAndCin) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.mark_output(g, 1.0);
  nl.set_drive(g, 1e9);
  EXPECT_DOUBLE_EQ(nl.drive(g), lib.wmax_um());
  nl.set_drive(g, 0.0);
  EXPECT_DOUBLE_EQ(nl.drive(g), lib.wmin_um());
  EXPECT_NEAR(nl.cin_ff(g), lib.cref_ff(), 1e-12);
  EXPECT_THROW(nl.set_drive(a, 1.0), std::invalid_argument);
  EXPECT_THROW(nl.drive(a), std::invalid_argument);
}

TEST_F(NetlistTest, TotalWidthSumsGates) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::Inv, "g1", {a});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  nl.mark_output(g2, 1.0);
  nl.set_drive(g1, 1.0);
  nl.set_drive(g2, 2.0);
  const auto& inv = lib.cell(CellKind::Inv);
  EXPECT_NEAR(nl.total_width_um(),
              inv.total_width_um(1.0) + inv.total_width_um(2.0), 1e-12);
}

TEST_F(NetlistTest, InsertBufferCapturesAllSinksAndPo) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  const NodeId s1 = nl.add_gate(CellKind::Inv, "s1", {g});
  nl.mark_output(g, 9.0);
  nl.mark_output(s1, 2.0);
  nl.set_wire_cap(g, 4.0);

  const NodeId buf = nl.insert_buffer(g, CellKind::Buf, "buf_g");
  EXPECT_EQ(nl.fanouts(g), std::vector<NodeId>{buf});
  EXPECT_EQ(nl.fanouts(buf), std::vector<NodeId>{s1});
  // PO role and wire cap migrated to the buffer.
  EXPECT_FALSE(nl.node(g).is_output);
  EXPECT_TRUE(nl.node(buf).is_output);
  EXPECT_DOUBLE_EQ(nl.node(buf).po_load_ff, 9.0);
  EXPECT_DOUBLE_EQ(nl.node(buf).wire_cap_ff, 4.0);
  EXPECT_NO_THROW(nl.validate());
}

TEST_F(NetlistTest, InsertBufferOnSubsetOfSinks) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  const NodeId s1 = nl.add_gate(CellKind::Inv, "s1", {g});
  const NodeId s2 = nl.add_gate(CellKind::Inv, "s2", {g});
  nl.mark_output(s1, 1.0);
  nl.mark_output(s2, 1.0);

  const NodeId buf = nl.insert_buffer(g, CellKind::Inv, "b", {s2});
  EXPECT_EQ(nl.fanouts(buf), std::vector<NodeId>{s2});
  // s1 still fed directly.
  const auto& fo = nl.fanouts(g);
  EXPECT_NE(std::find(fo.begin(), fo.end(), s1), fo.end());
  EXPECT_NO_THROW(nl.validate());
}

TEST_F(NetlistTest, CachesMatchReferenceKahnAcrossEdits) {
  // rebuild_caches reuses its storage across edits; the fanout lists and
  // the topological order must still be exactly those of a from-scratch
  // FIFO Kahn's (sweep_dead renumbers nodes in this order).
  Netlist nl = make_benchmark(lib, "c432");
  auto check = [&](const char* when) {
    const std::size_t n = nl.size();
    std::vector<std::vector<NodeId>> fanouts(n);
    std::vector<int> indeg(n, 0);
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id)
      for (NodeId f : nl.node(id).fanins) {
        fanouts[static_cast<std::size_t>(f)].push_back(id);
        ++indeg[static_cast<std::size_t>(id)];
      }
    std::queue<NodeId> ready;
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id)
      if (indeg[static_cast<std::size_t>(id)] == 0) ready.push(id);
    std::vector<NodeId> topo;
    while (!ready.empty()) {
      const NodeId id = ready.front();
      ready.pop();
      topo.push_back(id);
      for (NodeId s : fanouts[static_cast<std::size_t>(id)])
        if (--indeg[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
    EXPECT_EQ(nl.topo_order(), topo) << when;
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id)
      EXPECT_EQ(nl.fanouts(id), fanouts[static_cast<std::size_t>(id)])
          << when << ": node " << id;
  };
  check("fresh");
  for (int edit = 0; edit < 6; ++edit) {
    NodeId driver = kNoNode;
    for (NodeId g : nl.gates())
      if (nl.fanouts(g).size() >= 2) driver = g;
    ASSERT_NE(driver, kNoNode);
    const std::vector<NodeId> sinks = nl.fanouts(driver);
    nl.insert_buffer(driver, CellKind::Buf, nl.fresh_name("b"),
                     {sinks.begin() + 1, sinks.end()});
    check("after insert_buffer");
  }
}

TEST_F(NetlistTest, InsertBufferRejectsNonBufferKinds) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.mark_output(g, 1.0);
  EXPECT_THROW(nl.insert_buffer(g, CellKind::Nand2, "b"),
               std::invalid_argument);
}

TEST_F(NetlistTest, ReplaceCellKeepsArity) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::Nor2, "g", {a, b});
  nl.mark_output(g, 1.0);
  nl.replace_cell(g, CellKind::Nand2);
  EXPECT_EQ(nl.node(g).kind, CellKind::Nand2);
  EXPECT_THROW(nl.replace_cell(g, CellKind::Inv), std::invalid_argument);
}

TEST_F(NetlistTest, RenamePreservesLookup) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.mark_output(g, 1.0);
  nl.rename(g, "renamed");
  EXPECT_EQ(nl.find("renamed"), g);
  EXPECT_EQ(nl.find("g"), kNoNode);
  EXPECT_THROW(nl.rename(g, "a"), std::invalid_argument);
}

TEST_F(NetlistTest, DepthsAndStats) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(CellKind::Nand2, "g1", {a, b});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {g1});
  const NodeId g3 = nl.add_gate(CellKind::Nand2, "g3", {g2, a});
  nl.mark_output(g3, 1.0);
  const auto d = nl.depths();
  EXPECT_EQ(d[static_cast<std::size_t>(a)], 0);
  EXPECT_EQ(d[static_cast<std::size_t>(g1)], 1);
  EXPECT_EQ(d[static_cast<std::size_t>(g3)], 3);

  const NetlistStats s = nl.stats();
  EXPECT_EQ(s.n_inputs, 2u);
  EXPECT_EQ(s.n_gates, 3u);
  EXPECT_EQ(s.depth, 3u);
  EXPECT_EQ(s.gates_by_kind.at("nand2"), 2u);
}

TEST_F(NetlistTest, ValidateDetectsDangling) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::Inv, "g1", {a});
  const NodeId g2 = nl.add_gate(CellKind::Inv, "g2", {a});
  nl.mark_output(g1, 1.0);
  (void)g2;  // g2 dangles
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST_F(NetlistTest, FreshNameNeverCollides) {
  Netlist nl(lib);
  nl.add_input("buf_0");
  const std::string n1 = nl.fresh_name("buf");
  const std::string n2 = nl.fresh_name("buf");
  EXPECT_NE(n1, "buf_0");
  EXPECT_NE(n1, n2);
}

// ---- build_wide_gate ---------------------------------------------------------

class WideGateTest : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(WideGateTest, ComputesWideAndOr) {
  const auto [width, is_and, invert] = GetParam();
  const Library lib(Technology::cmos025());
  Netlist nl(lib);
  std::vector<NodeId> pis;
  for (int i = 0; i < width; ++i)
    pis.push_back(nl.add_input("i" + std::to_string(i)));
  const NodeId root = build_wide_gate(nl, is_and, invert, pis, "w");
  nl.mark_output(root, 1.0);
  nl.validate();

  // Check against the reference function over all input patterns.
  for (unsigned pattern = 0; pattern < (1u << width); ++pattern) {
    // Direct recursive evaluation through node values.
    std::vector<bool> value(nl.size());
    for (int i = 0; i < width; ++i)
      value[static_cast<std::size_t>(pis[static_cast<std::size_t>(i)])] =
          (pattern >> i) & 1u;
    for (NodeId id : nl.topo_order()) {
      const Node& node = nl.node(id);
      if (node.is_input) continue;
      bool raw[4];
      for (std::size_t k = 0; k < node.fanins.size(); ++k)
        raw[k] = value[static_cast<std::size_t>(node.fanins[k])];
      value[static_cast<std::size_t>(id)] =
          lib.cell(node.kind).eval({raw, node.fanins.size()});
    }
    bool expect = is_and;
    for (int i = 0; i < width; ++i) {
      const bool bit = (pattern >> i) & 1u;
      expect = is_and ? (expect && bit) : (i == 0 ? bit : (expect || bit));
    }
    if (invert) expect = !expect;
    EXPECT_EQ(value[static_cast<std::size_t>(root)], expect)
        << "width=" << width << " and=" << is_and << " inv=" << invert
        << " pattern=" << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, WideGateTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 13),
                       ::testing::Bool(), ::testing::Bool()));

}  // namespace
