// Tests for the netlist-level optimisation passes: inverter-pair
// cancellation, dead-logic sweeping and circuit-wide fanout shielding —
// all with functional-equivalence guarantees.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pops/core/netopt.hpp"
#include "pops/core/restructure.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/bench_io.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/obs/trace.hpp"
#include "pops/process/technology.hpp"
#include "pops/service/cache_io.hpp"
#include "pops/timing/sta.hpp"
#include "pops/timing/table_model.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using namespace pops::netlist;
using liberty::CellKind;
using liberty::Library;
using process::Technology;
using util::Rng;

class NetoptTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  timing::ClosedFormModel dm{lib};
};

TEST_F(NetoptTest, CancelSimpleInverterPair) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId i1 = nl.add_gate(CellKind::Inv, "i1", {a});
  const NodeId i2 = nl.add_gate(CellKind::Inv, "i2", {i1});
  const NodeId g = nl.add_gate(CellKind::Nand2, "g", {i2, a});
  nl.mark_output(g, 5.0);

  const std::size_t rewired = core::cancel_inverter_pairs(nl);
  EXPECT_EQ(rewired, 1u);
  // g now reads a directly.
  EXPECT_EQ(nl.node(g).fanins[0], a);
  // The bypassed pair is dead; sweeping removes it.
  const Netlist swept = core::sweep_dead(nl);
  EXPECT_EQ(swept.stats().n_gates, 1u);
  Rng rng(1);
  Netlist reference(lib);
  {
    const NodeId ra = reference.add_input("a");
    const NodeId rg = reference.add_gate(CellKind::Nand2, "g", {ra, ra});
    (void)rg;
    reference.mark_output(rg, 5.0);
  }
  EXPECT_TRUE(equivalent(reference, swept, rng));
}

TEST_F(NetoptTest, NeverBypassesPrimaryOutputGate) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId i1 = nl.add_gate(CellKind::Inv, "i1", {a});
  const NodeId i2 = nl.add_gate(CellKind::Inv, "i2", {i1});
  nl.mark_output(i2, 5.0);  // i2 IS the output: it must survive

  core::cancel_inverter_pairs(nl);
  const Netlist swept = core::sweep_dead(nl);
  EXPECT_NE(swept.find("i2"), kNoNode);
  EXPECT_TRUE(swept.node(swept.find("i2")).is_output);
  Rng rng(2);
  EXPECT_TRUE(equivalent(nl, swept, rng));
}

TEST_F(NetoptTest, CancellationAfterDeMorganRoundTrip) {
  // NOR -> NAND rewrite inserts inverters; a following NOR of the INV
  // output... build INV feeding the NOR so the rewrite creates an
  // INV(INV(x)) pair, then cancel and sweep: function intact.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId inv_a = nl.add_gate(CellKind::Inv, "inv_a", {a});
  const NodeId nor = nl.add_gate(CellKind::Nor2, "nor", {inv_a, b});
  nl.mark_output(nor, 5.0);

  Netlist rewritten = nl;
  core::demorgan_nor_to_nand(rewritten, rewritten.find("nor"));
  const std::size_t rewired = core::cancel_inverter_pairs(rewritten);
  EXPECT_GE(rewired, 1u);  // the a-side pair collapses
  const Netlist swept = core::sweep_dead(rewritten);
  Rng rng(3);
  EXPECT_TRUE(equivalent(nl, swept, rng));
  // The pair really is gone: fewer gates than the raw rewrite.
  EXPECT_LT(swept.stats().n_gates, rewritten.stats().n_gates);
}

TEST_F(NetoptTest, SweepKeepsAllPis) {
  Netlist nl(lib);
  nl.add_input("used");
  nl.add_input("unused");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {nl.find("used")});
  nl.mark_output(g, 1.0);
  const Netlist swept = core::sweep_dead(nl);
  EXPECT_EQ(swept.inputs().size(), 2u);
}

TEST_F(NetoptTest, SweepPreservesSizesAndLoads) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  nl.set_drive(g, 3.3);
  nl.set_wire_cap(g, 7.5);
  nl.mark_output(g, 11.0);
  const Netlist swept = core::sweep_dead(nl);
  const NodeId g2 = swept.find("g");
  EXPECT_DOUBLE_EQ(swept.node(g2).wn_um, 3.3);
  EXPECT_DOUBLE_EQ(swept.node(g2).wire_cap_ff, 7.5);
  EXPECT_DOUBLE_EQ(swept.node(g2).po_load_ff, 11.0);
}

TEST_F(NetoptTest, SweepIsIdempotentOnCleanCircuits) {
  const Netlist nl = make_c17(lib);
  const Netlist swept = core::sweep_dead(nl);
  EXPECT_EQ(swept.stats().n_gates, nl.stats().n_gates);
  Rng rng(4);
  EXPECT_TRUE(equivalent(nl, swept, rng));
}

TEST_F(NetoptTest, ShieldingImprovesOverloadedCircuit) {
  // A driver with one critical sink chain and many parasitic sinks.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId hub = nl.add_gate(CellKind::Inv, "hub", {a});
  // Critical chain.
  NodeId prev = hub;
  for (int i = 0; i < 4; ++i)
    prev = nl.add_gate(CellKind::Inv, "chain" + std::to_string(i), {prev});
  nl.mark_output(prev, 20.0);
  // Parasitic fanout.
  for (int i = 0; i < 14; ++i) {
    const NodeId s = nl.add_gate(CellKind::Inv, "leaf" + std::to_string(i), {hub});
    nl.mark_output(s, 2.0);
  }
  nl.validate();
  Netlist original = nl;

  core::FlimitTable table;
  const core::ShieldReport report =
      core::shield_high_fanout_nets(nl, dm, table);
  EXPECT_GE(report.buffers_inserted, 1u);
  EXPECT_LT(report.delay_after_ps, report.delay_before_ps);
  EXPECT_GT(report.area_added_um, 0.0);
  nl.validate();
  Rng rng(5);
  EXPECT_TRUE(equivalent(original, nl, rng));
}

TEST_F(NetoptTest, ShieldingRespectsBudget) {
  Netlist nl = make_benchmark(lib, "c880");
  core::FlimitTable table;
  core::ShieldOptions opt;
  opt.max_buffers = 2;
  const core::ShieldReport report =
      core::shield_high_fanout_nets(nl, dm, table, opt);
  EXPECT_LE(report.buffers_inserted, 2u);
}

TEST_F(NetoptTest, ShieldingPreservesFunctionOnBenchmarks) {
  for (const char* name : {"c432", "fpd"}) {
    Netlist nl = make_benchmark(lib, name);
    Netlist original = nl;
    core::FlimitTable table;
    core::shield_high_fanout_nets(nl, dm, table);
    nl.validate();
    Rng rng(6);
    EXPECT_TRUE(equivalent(original, nl, rng, 128)) << name;
  }
}

// ----- regression: incremental shield == historical full-sweep shield ---------

// The historical shield (pre incremental-STA sharing) re-ran a cold
// Sta::run() for every candidate net and read slacks against the
// *current* critical delay. The rewritten pass keeps one IncrementalSta
// and queries slacks against the fixed pre-shield delay. The two must
// pick identical sinks on every net — slacks at different tc differ by a
// uniform additive constant, which an argmin ignores — so the edited
// netlists and reports must agree bit for bit.
core::ShieldReport reference_shield(Netlist& nl, const timing::DelayModel& dm,
                                    core::FlimitTable& table,
                                    const core::ShieldOptions& opt) {
  core::ShieldReport report;
  {
    const timing::Sta sta(nl, dm);
    report.delay_before_ps = sta.run().critical_delay_ps;
  }

  struct Candidate {
    NodeId net;
    double overload;
  };
  std::vector<Candidate> candidates;
  for (NodeId g : nl.gates()) {
    if (nl.node(g).kind == CellKind::Buf) continue;
    const auto& sinks = nl.fanouts(g);
    if (sinks.size() < 2) continue;
    double limit = std::numeric_limits<double>::infinity();
    for (NodeId s : sinks)
      limit = std::min(limit, table.get(dm, nl.node(g).kind, nl.node(s).kind));
    const double f = nl.load_ff(g) / nl.cin_ff(g);
    if (f > opt.margin * limit) candidates.push_back({g, f / limit});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.overload > b.overload;
            });

  const double area_before = nl.total_width_um();
  for (const Candidate& cand : candidates) {
    if (report.buffers_inserted >= opt.max_buffers) break;
    const NodeId g = cand.net;

    // The historical full sweep: cold run per candidate, slacks at the
    // current critical delay.
    const timing::Sta cold(nl, dm);
    const timing::StaResult res = cold.run();
    const std::vector<double> slack = cold.slacks(res, res.critical_delay_ps);

    const std::vector<NodeId> sinks = nl.fanouts(g);
    if (sinks.size() < 2) continue;
    NodeId keep = sinks.front();
    for (NodeId s : sinks)
      if (slack[static_cast<std::size_t>(s)] <
          slack[static_cast<std::size_t>(keep)])
        keep = s;

    std::vector<NodeId> moved;
    for (NodeId s : sinks)
      if (s != keep) moved.push_back(s);
    if (moved.empty()) continue;

    const NodeId buf = nl.insert_buffer(g, CellKind::Buf,
                                        nl.fresh_name(nl.node(g).name + "_sh"),
                                        moved);
    const liberty::Cell& bufc = nl.lib().cell(CellKind::Buf);
    const double load = nl.load_ff(buf);
    nl.set_drive(buf, bufc.wn_for_cin(nl.lib().tech(),
                                      load / opt.shield_fanout));
    ++report.buffers_inserted;
  }

  {
    const timing::Sta sta(nl, dm);
    report.delay_after_ps = sta.run().critical_delay_ps;
  }
  report.area_added_um = nl.total_width_um() - area_before;
  return report;
}

void expect_netlists_identical(const Netlist& a, const Netlist& b,
                               const char* when) {
  ASSERT_EQ(a.size(), b.size()) << when;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Node& na = a.node(static_cast<NodeId>(i));
    const Node& nb = b.node(static_cast<NodeId>(i));
    EXPECT_EQ(na.name, nb.name) << when << ": node " << i;
    EXPECT_EQ(na.kind, nb.kind) << when << ": node " << i;
    EXPECT_EQ(na.is_input, nb.is_input) << when << ": node " << i;
    EXPECT_EQ(na.is_output, nb.is_output) << when << ": node " << i;
    EXPECT_EQ(na.fanins, nb.fanins) << when << ": node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(na.wn_um),
              std::bit_cast<std::uint64_t>(nb.wn_um))
        << when << ": node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(na.po_load_ff),
              std::bit_cast<std::uint64_t>(nb.po_load_ff))
        << when << ": node " << i;
  }
}

TEST_F(NetoptTest, ShieldMatchesHistoricalFullSweepBitwise) {
  const timing::TableModel tm = timing::TableModel::characterize(dm);
  const timing::DelayModel* backends[] = {&dm, &tm};
  const char* backend_names[] = {"closed-form", "table"};
  for (const char* name : {"c17", "c432", "c880", "c1355"}) {
    for (std::size_t b = 0; b < 2; ++b) {
      SCOPED_TRACE(std::string(name) + " / " + backend_names[b]);
      const core::ShieldOptions opt;
      Netlist incr_nl = make_benchmark(lib, name);
      core::FlimitTable incr_table;
      const core::ShieldReport incr =
          core::shield_high_fanout_nets(incr_nl, *backends[b], incr_table, opt);

      Netlist ref_nl = make_benchmark(lib, name);
      core::FlimitTable ref_table;
      const core::ShieldReport ref =
          reference_shield(ref_nl, *backends[b], ref_table, opt);

      EXPECT_EQ(incr.buffers_inserted, ref.buffers_inserted);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(incr.delay_before_ps),
                std::bit_cast<std::uint64_t>(ref.delay_before_ps));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(incr.delay_after_ps),
                std::bit_cast<std::uint64_t>(ref.delay_after_ps));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(incr.area_added_um),
                std::bit_cast<std::uint64_t>(ref.area_added_um));
      expect_netlists_identical(incr_nl, ref_nl, name);
      if (HasFatalFailure()) return;
    }
  }
}

// The shield reads only its candidates' sink slacks, as sparse engine
// queries: no whole-circuit backward sweep at all, only the sinks' fanout
// cones. Two overloaded hubs sit off the critical path (a long chain
// dominates), so no insertion moves the critical delay and the engine's
// tc-keyed stamps stay valid: the second candidate's query repairs the
// first insertion (sta/slack_update) and computes its own sinks' cones,
// and the cones together cover fewer nodes than the netlist.
TEST_F(NetoptTest, ShieldQueriesSinkConesWithoutWholeCircuitSweeps) {
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  NodeId prev = a;
  for (int i = 0; i < 16; ++i)
    prev = nl.add_gate(CellKind::Inv, "chain" + std::to_string(i), {prev});
  nl.mark_output(prev, 120.0);  // the chain owns the critical path
  for (int h = 0; h < 2; ++h) {
    const NodeId hi = nl.add_input("h" + std::to_string(h));
    const NodeId hub =
        nl.add_gate(CellKind::Inv, "hub" + std::to_string(h), {hi});
    for (int i = 0; i < 14; ++i) {
      const NodeId leaf = nl.add_gate(
          CellKind::Inv, "leaf" + std::to_string(h) + "_" + std::to_string(i),
          {hub});
      nl.mark_output(leaf, 1.0);
    }
  }
  nl.validate();

  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.start();
  core::FlimitTable table;
  const core::ShieldReport report =
      core::shield_high_fanout_nets(nl, dm, table);
  rec.stop();

  ASSERT_EQ(report.buffers_inserted, 2u);
  // Both hubs are off-critical: unloading them leaves the chain's delay
  // bit-identical, so no stamp is voided.
  EXPECT_EQ(report.delay_after_ps, report.delay_before_ps);

  std::size_t slack_full = 0, slack_update = 0, cones = 0;
  double cone_nodes = 0.0;
  for (const util::Json& r : rec.jsonl_records()) {
    const std::string& name = r.find("name")->as_string();
    if (name == "sta/slack_full") ++slack_full;
    if (name == "sta/slack_update") ++slack_update;
    if (name == "sta/required_cone") {
      ++cones;
      cone_nodes += r.find("args")->find("nodes")->as_number();
    }
  }
  EXPECT_EQ(slack_full, 0u);     // no whole-vector sweep
  EXPECT_GE(slack_update, 1u);   // the second candidate repaired the first
  EXPECT_GE(cones, 2u);          // each hub's sinks computed on demand
  EXPECT_LT(cone_nodes, static_cast<double>(nl.size()));
}

TEST_F(NetoptTest, QuietCircuitUnchanged) {
  // A chain has fanout 1 everywhere: no candidates.
  Netlist nl = make_chain(lib, {CellKind::Inv, CellKind::Inv, CellKind::Inv},
                          6.0, "quiet");
  core::FlimitTable table;
  const core::ShieldReport report =
      core::shield_high_fanout_nets(nl, dm, table);
  EXPECT_EQ(report.buffers_inserted, 0u);
  EXPECT_DOUBLE_EQ(report.delay_after_ps, report.delay_before_ps);
}

// ----- in-place compaction == the rebuilding sweep ---------------------------

// Netlist::compact() replaced a sweep that rebuilt the netlist gate by
// gate. Cached results persist the compacted netlist (node records, the
// fresh-name counter), so compaction must reproduce the rebuild exactly.
// The rebuild is kept here verbatim as the oracle.
Netlist rebuild_sweep_dead(const Netlist& nl) {
  const std::size_t n = nl.size();
  std::vector<bool> live(n, false);
  std::vector<NodeId> stack;
  for (NodeId po : nl.outputs()) {
    live[static_cast<std::size_t>(po)] = true;
    stack.push_back(po);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId f : nl.node(id).fanins) {
      if (!live[static_cast<std::size_t>(f)]) {
        live[static_cast<std::size_t>(f)] = true;
        stack.push_back(f);
      }
    }
  }
  Netlist out(nl.lib(), nl.name());
  std::vector<NodeId> remap(n, kNoNode);
  for (NodeId pi : nl.inputs())
    remap[static_cast<std::size_t>(pi)] = out.add_input(nl.node(pi).name);
  for (NodeId id : nl.topo_order()) {
    const Node& node = nl.node(id);
    if (node.is_input || !live[static_cast<std::size_t>(id)]) continue;
    std::vector<NodeId> fanins;
    fanins.reserve(node.fanins.size());
    for (NodeId f : node.fanins)
      fanins.push_back(remap[static_cast<std::size_t>(f)]);
    const NodeId nid = out.add_gate(node.kind, node.name, fanins);
    out.set_drive(nid, node.wn_um);
    out.set_wire_cap(nid, node.wire_cap_ff);
    if (node.is_output) out.mark_output(nid, node.po_load_ff);
    remap[static_cast<std::size_t>(id)] = nid;
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Compact a copy of `nl` and compare it with the oracle on every surface:
/// archived bytes, topological order, fanouts, inputs, outputs, names and
/// the fresh-name counter. Also checks the map and the reloaded list: a
/// node not reported as reloaded keeps its load_ff() bits. Returns the
/// map.
std::vector<NodeId> expect_compact_matches_oracle(const Netlist& nl,
                                                  const std::string& when) {
  const Netlist want = rebuild_sweep_dead(nl);
  Netlist got = nl;
  std::vector<NodeId> reloaded;
  const std::vector<NodeId> remap = got.compact(&reloaded);

  EXPECT_EQ(service::archive_netlist(got).dump(0),
            service::archive_netlist(want).dump(0))
      << when;
  EXPECT_EQ(service::archive_netlist(core::sweep_dead(nl)).dump(0),
            service::archive_netlist(want).dump(0))
      << when;
  EXPECT_EQ(got.fresh_counter(), 0) << when;
  EXPECT_EQ(got.topo_order(), want.topo_order()) << when;
  EXPECT_EQ(got.inputs(), want.inputs()) << when;
  EXPECT_EQ(got.outputs(), want.outputs()) << when;
  EXPECT_EQ(got.size(), want.size()) << when;
  for (NodeId id = 0; id < static_cast<NodeId>(want.size()); ++id) {
    EXPECT_EQ(got.fanouts(id), want.fanouts(id)) << when << ": node " << id;
    EXPECT_EQ(got.find(want.node(id).name), id) << when;
  }

  EXPECT_EQ(remap.size(), nl.size()) << when;
  std::vector<bool> is_reloaded(got.size(), false);
  for (NodeId id : reloaded) is_reloaded[static_cast<std::size_t>(id)] = true;
  for (NodeId old = 0; old < static_cast<NodeId>(nl.size()); ++old) {
    const NodeId to = remap[static_cast<std::size_t>(old)];
    const std::string& name = nl.node(old).name;
    EXPECT_EQ(got.find(name), to) << when << ": " << name;
    if (to == kNoNode || is_reloaded[static_cast<std::size_t>(to)]) continue;
    EXPECT_TRUE(same_bits(got.load_ff(to), nl.load_ff(old)))
        << when << ": " << name << " was not reported as reloaded";
  }
  return remap;
}

/// A seeded random .bench text over every op the reader handles. AND/OR
/// and wide NAND/NOR decompose into trees with inverter pairs, and gates
/// that no later gate reads and no OUTPUT names stay dead.
std::string random_bench(std::uint64_t seed) {
  Rng rng(seed);
  const int n_pi = static_cast<int>(rng.uniform_int(3, 8));
  const int n_gates = static_cast<int>(rng.uniform_int(15, 70));
  const char* const ops[] = {"NAND", "NOR", "AND", "OR",
                             "NOT",  "BUF", "XOR", "XNOR"};
  std::vector<std::string> signals;
  std::string text;
  for (int i = 0; i < n_pi; ++i) {
    signals.push_back("i" + std::to_string(i));
    text += "INPUT(" + signals.back() + ")\n";
  }
  std::vector<std::string> gates;
  for (int g = 0; g < n_gates; ++g) {
    const std::string op = ops[rng.uniform_int(0, 7)];
    const int arity = op == "NOT" || op == "BUF"
                          ? 1
                          : static_cast<int>(rng.uniform_int(2, 6));
    std::string line = "g" + std::to_string(g) + " = " + op + "(";
    for (int k = 0; k < arity; ++k) {
      if (k > 0) line += ", ";
      line += signals[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(signals.size()) - 1))];
    }
    gates.push_back(line + ")\n");
    signals.push_back("g" + std::to_string(g));
  }
  text += "OUTPUT(" + signals.back() + ")\n";
  for (int g = 0; g + 1 < n_gates; ++g)
    if (rng.bernoulli(0.15)) text += "OUTPUT(g" + std::to_string(g) + ")\n";
  // Definitions out of order: the reader resolves them.
  for (std::size_t i = gates.size(); i > 1; --i)
    std::swap(gates[i - 1], gates[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  for (const std::string& g : gates) text += g;
  return text;
}

TEST_F(NetoptTest, CompactMatchesRebuildingSweepOracle) {
  // The grid's built-ins after the cleanup passes' predecessors: shield
  // buffers (appended ids with forward fanins) and cancelled inverter
  // pairs (dead logic).
  for (const char* name : {"Adder16", "fpd", "c432", "c499", "c880", "c1355",
                           "c1908", "c3540", "c5315", "c6288", "c7552"}) {
    Netlist nl = make_benchmark(lib, name);
    core::FlimitTable table;
    core::shield_high_fanout_nets(nl, dm, table);
    core::cancel_inverter_pairs(nl);
    expect_compact_matches_oracle(nl, name);
    if (HasFailure()) return;
  }
  // Seeded random .bench netlists: parser-made dead logic, a nonzero
  // fresh-name counter, then the same two passes.
  std::size_t removed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Netlist nl = read_bench_string(random_bench(seed), lib);
    const std::string when = "random seed " + std::to_string(seed);
    expect_compact_matches_oracle(nl, when + " as parsed");
    core::FlimitTable table;
    core::shield_high_fanout_nets(nl, dm, table);
    core::cancel_inverter_pairs(nl);
    const std::vector<NodeId> remap =
        expect_compact_matches_oracle(nl, when + " after cleanup");
    removed += static_cast<std::size_t>(
        std::count(remap.begin(), remap.end(), kNoNode));
    if (HasFailure()) return;
  }
  EXPECT_GT(removed, 0u);  // the corpus really exercises removal
}

// ----- the dense class column == the node records -----------------------------

/// Netlist::classes() must equal a scan of the node records: the kind bits
/// of every gate, and the PI / PO flags of every node.
void expect_classes_match_records(const Netlist& nl, const std::string& when) {
  const std::vector<NodeClass>& cls = nl.classes();
  ASSERT_EQ(cls.size(), nl.size()) << when;
  for (NodeId id = 0; id < static_cast<NodeId>(nl.size()); ++id) {
    const Node& n = nl.node(id);
    const NodeClass c = cls[static_cast<std::size_t>(id)];
    EXPECT_EQ((c & kClassInput) != 0, n.is_input) << when << ": " << n.name;
    EXPECT_EQ((c & kClassOutput) != 0, n.is_output) << when << ": " << n.name;
    if (!n.is_input) {
      EXPECT_EQ(class_kind(c), n.kind) << when << ": " << n.name;
    }
  }
}

/// Every Netlist mutator in turn on `nl`, checking the column after each.
void expect_classes_follow_every_edit(Netlist nl, const timing::DelayModel& dm,
                                      const std::string& name) {
  expect_classes_match_records(nl, name + " as built");
  {
    const Netlist copy = nl;
    expect_classes_match_records(copy, name + " copy");
    Netlist moved = Netlist(copy);
    const Netlist target = std::move(moved);
    expect_classes_match_records(target, name + " move");
  }

  // add_gate (a non-unate kind) and mark_output on it.
  const NodeId a = nl.gates().front();
  const NodeId b = nl.gates().back();
  const NodeId x = nl.add_gate(CellKind::Xnor2, nl.fresh_name("col"), {a, b});
  expect_classes_match_records(nl, name + " add_gate");
  nl.mark_output(x, 4.0);
  expect_classes_match_records(nl, name + " mark_output");

  // replace_cell on a same-arity gate.
  for (NodeId g : nl.gates()) {
    const CellKind k = nl.node(g).kind;
    if (k == CellKind::Nand2 || k == CellKind::Nor2) {
      nl.replace_cell(g, k == CellKind::Nand2 ? CellKind::Nor2 : CellKind::Nand2);
      break;
    }
  }
  expect_classes_match_records(nl, name + " replace_cell");

  // insert_buffer on a subset of sinks, and capturing all sinks of a PO
  // driver (the PO flag migrates to the buffer) and of a plain driver.
  for (NodeId g : nl.gates()) {
    if (nl.fanouts(g).size() < 2) continue;
    std::vector<NodeId> sinks = nl.fanouts(g);
    sinks.erase(sinks.begin());
    nl.insert_buffer(g, CellKind::Buf, nl.fresh_name("colb"), sinks);
    break;
  }
  expect_classes_match_records(nl, name + " insert_buffer with sinks");
  nl.insert_buffer(x, CellKind::Inv, nl.fresh_name("colp"));
  EXPECT_FALSE(nl.node(x).is_output) << name;
  expect_classes_match_records(nl, name + " insert_buffer capturing a PO");
  nl.insert_buffer(a, CellKind::Buf, nl.fresh_name("cola"));
  expect_classes_match_records(nl, name + " insert_buffer capturing all");

  // rewire_fanin: x's first pin onto a primary input.
  nl.rewire_fanin(x, nl.node(x).fanins.front(), nl.inputs().front());
  expect_classes_match_records(nl, name + " rewire_fanin");

  // The passes' own edits, then compaction and a rebuild from records.
  core::shield_high_fanout_nets(nl, dm, core::FlimitTable{});
  core::cancel_inverter_pairs(nl);
  expect_classes_match_records(nl, name + " shield + cancel");
  nl.compact();
  expect_classes_match_records(nl, name + " compact");
  std::vector<Node> records;
  for (NodeId id = 0; id < static_cast<NodeId>(nl.size()); ++id)
    records.push_back(nl.node(id));
  const Netlist rebuilt =
      Netlist::from_nodes(nl.lib(), nl.name(), records, nl.fresh_counter());
  expect_classes_match_records(rebuilt, name + " from_nodes");
}

TEST_F(NetoptTest, ClassColumnMatchesNodeRecordsAfterEveryEdit) {
  for (const char* name : {"Adder16", "fpd", "c432", "c499", "c880", "c1355",
                           "c1908", "c3540", "c5315", "c6288", "c7552"}) {
    expect_classes_follow_every_edit(make_benchmark(lib, name), dm, name);
    if (HasFailure()) return;
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expect_classes_follow_every_edit(read_bench_string(random_bench(seed), lib),
                                     dm, "random seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
}

TEST_F(NetoptTest, CompactRenumbersWithNothingDeadAndReordersSinks) {
  // d feeds s1 (id 3) and s2 (id 4). A buffer appended in front of s1's
  // other pin makes s1 ready after s2 in Kahn order, so compaction swaps
  // the two sinks' ids: nothing is removed and d's fanout list is
  // reordered. d's load adds the same cins in the other order; s1's drive
  // is picked so that the order changes the sum's bits, which makes d the
  // one reloaded node.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId d = nl.add_gate(CellKind::Nand2, "d", {a, b});
  const NodeId s1 = nl.add_gate(CellKind::Nand2, "s1", {d, b});
  const NodeId s2 = nl.add_gate(CellKind::Inv, "s2", {d});
  nl.mark_output(s1, 5.0);
  nl.mark_output(s2, 5.0);
  nl.set_wire_cap(d, 0.7);
  nl.insert_buffer(b, CellKind::Buf, "bb", {s1});
  ASSERT_EQ(nl.fanouts(d), (std::vector<NodeId>{s1, s2}));
  const double w = nl.node(d).wire_cap_ff;
  bool order_matters = false;
  for (int k = 0; k < 200 && !order_matters; ++k) {
    nl.set_drive(s1, 1.0 + 0.037 * k);
    const double c1 = nl.cin_ff(s1);
    const double c2 = nl.cin_ff(s2);
    order_matters = !same_bits(w + c1 + c2, w + c2 + c1);
  }
  ASSERT_TRUE(order_matters);

  const std::vector<NodeId> remap =
      expect_compact_matches_oracle(nl, "sink swap");
  EXPECT_EQ(std::count(remap.begin(), remap.end(), kNoNode), 0);
  EXPECT_GT(remap[static_cast<std::size_t>(s1)],
            remap[static_cast<std::size_t>(s2)]);
  Netlist got = nl;
  std::vector<NodeId> reloaded;
  got.compact(&reloaded);
  EXPECT_EQ(reloaded,
            (std::vector<NodeId>{remap[static_cast<std::size_t>(d)]}));
}

TEST_F(NetoptTest, CompactNumbersShieldBuffersTopologically) {
  // Shield buffers are appended: their sinks read them through forward
  // fanins. After compaction every fanin id is below its reader's.
  Netlist nl = make_benchmark(lib, "c880");
  core::FlimitTable table;
  ASSERT_GT(core::shield_high_fanout_nets(nl, dm, table).buffers_inserted, 0u);
  bool forward = false;
  for (NodeId g : nl.gates())
    for (NodeId f : nl.node(g).fanins) forward = forward || f > g;
  ASSERT_TRUE(forward);
  expect_compact_matches_oracle(nl, "c880 shielded");
  Netlist got = nl;
  got.compact();
  for (NodeId g : got.gates())
    for (NodeId f : got.node(g).fanins) EXPECT_LT(f, g);
  Rng rng(7);
  EXPECT_TRUE(equivalent(nl, got, rng, 128));
}

TEST_F(NetoptTest, CompactKeepsPrimaryOutputInverterPair) {
  // Both i2 = INV(INV(a)) and j2 = INV(INV(a)) feed `keep`, and
  // cancellation re-points both of keep's pins at a. i2 is a PO, so its
  // pair survives; j2's pair is dead.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId i1 = nl.add_gate(CellKind::Inv, "i1", {a});
  const NodeId i2 = nl.add_gate(CellKind::Inv, "i2", {i1});
  const NodeId j1 = nl.add_gate(CellKind::Inv, "j1", {a});
  const NodeId j2 = nl.add_gate(CellKind::Inv, "j2", {j1});
  const NodeId keep = nl.add_gate(CellKind::Nand2, "keep", {j2, i2});
  nl.mark_output(i2, 5.0);
  nl.mark_output(keep, 5.0);
  EXPECT_EQ(core::cancel_inverter_pairs(nl), 2u);
  const std::vector<NodeId> remap =
      expect_compact_matches_oracle(nl, "po pair");
  EXPECT_NE(remap[static_cast<std::size_t>(i1)], kNoNode);
  EXPECT_NE(remap[static_cast<std::size_t>(i2)], kNoNode);
  EXPECT_EQ(remap[static_cast<std::size_t>(j1)], kNoNode);
  EXPECT_EQ(remap[static_cast<std::size_t>(j2)], kNoNode);
}

TEST_F(NetoptTest, CompactIdentityMovesNothingButTheNameCounter) {
  Netlist nl = make_c17(lib);
  nl.fresh_name("x");
  const Netlist before = nl;
  const std::vector<NodeId> remap = nl.compact();
  for (std::size_t i = 0; i < remap.size(); ++i)
    EXPECT_EQ(remap[i], static_cast<NodeId>(i));
  EXPECT_EQ(nl.fresh_counter(), 0);
  EXPECT_EQ(service::archive_netlist(nl).dump(0),
            service::archive_netlist(rebuild_sweep_dead(before)).dump(0));
}

TEST_F(NetoptTest, CompactKeepsVtClasses) {
  // The rebuild reset every Vt class to the default; compaction moves the
  // records whole.
  Netlist nl(lib);
  const NodeId a = nl.add_input("a");
  const NodeId dead = nl.add_gate(CellKind::Inv, "dead", {a});
  const NodeId g = nl.add_gate(CellKind::Inv, "g", {a});
  (void)dead;
  nl.mark_output(g, 5.0);
  const int high_vt = static_cast<int>(lib.tech().n_vt_classes()) - 1;
  ASSERT_GT(high_vt, 0);
  nl.set_vt_class(g, high_vt);
  const Netlist swept = core::sweep_dead(nl);
  ASSERT_EQ(swept.size(), 2u);
  EXPECT_EQ(swept.vt_class(swept.find("g")), high_vt);
}

}  // namespace
