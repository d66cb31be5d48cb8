// The unified pipeline API: config validation, pass ordering, report
// aggregation, legacy-shim equivalence, and run_many determinism across
// thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/timing/sta.hpp"
#include "pops/timing/table_model.hpp"
#include "pops/util/json.hpp"

namespace {

using namespace pops;
using api::OptContext;
using api::Optimizer;
using api::OptimizerConfig;
using api::PassPipeline;
using api::PipelineReport;
using netlist::Netlist;

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(OptimizerConfig, DefaultIsValid) {
  EXPECT_TRUE(OptimizerConfig{}.validate().empty());
  EXPECT_NO_THROW(OptimizerConfig{}.ensure_valid());
}

TEST(OptimizerConfig, InvertedDomainRatiosRejected) {
  OptimizerConfig cfg;
  cfg.with_domain_ratios(2.5, 1.2);  // hard >= weak: Medium domain empty
  const auto problems = cfg.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_THROW(cfg.ensure_valid(), api::ConfigError);
}

TEST(OptimizerConfig, SubUnityHardRatioRejected) {
  OptimizerConfig cfg;
  cfg.hard_ratio = 0.5;
  EXPECT_THROW(cfg.ensure_valid(), api::ConfigError);
}

TEST(OptimizerConfig, BadMarginAndPathsRejected) {
  OptimizerConfig cfg;
  cfg.tc_margin = 0.0;
  cfg.max_paths = 0;
  cfg.max_rounds = -1;
  const auto problems = cfg.validate();
  EXPECT_GE(problems.size(), 3u);  // every problem reported, not just one
}

TEST(OptimizerConfig, ErrorListsEveryProblem) {
  OptimizerConfig cfg;
  cfg.tc_margin = 2.0;
  cfg.shield_fanout = 0.5;
  try {
    cfg.ensure_valid();
    FAIL() << "expected ConfigError";
  } catch (const api::ConfigError& e) {
    EXPECT_EQ(e.problems().size(), 2u);
    EXPECT_NE(std::string(e.what()).find("tc_margin"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("shield_fanout"), std::string::npos);
  }
}

TEST(OptimizerConfig, AllPassesDisabledRejected) {
  OptimizerConfig cfg;
  cfg.with_shielding(false).with_cleanup(false).with_protocol(false);
  EXPECT_THROW(cfg.ensure_valid(), api::ConfigError);
}

TEST(OptimizerConfig, OptimizerConstructionValidates) {
  OptContext ctx;
  OptimizerConfig cfg;
  cfg.weak_ratio = 1.0;  // < hard_ratio
  EXPECT_THROW(Optimizer(ctx, cfg), api::ConfigError);
}

// Legacy structs now diagnose instead of silently misclassifying.
TEST(LegacyOptions, ProtocolOptionsValidate) {
  core::ProtocolOptions opt;
  opt.hard_ratio = 3.0;  // >= weak_ratio (2.5)
  EXPECT_THROW(core::classify_constraint(100.0, 50.0, opt),
               std::invalid_argument);
}

TEST(LegacyOptions, CircuitOptionsValidate) {
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
  core::FlimitTable table;
  core::CircuitOptions opt;
  opt.tc_margin = 1.5;
  EXPECT_THROW(
      api::ProtocolPass::run_protocol(nl, ctx.dm(), table, 100.0, opt),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

TEST(OptContextTest, OwnsConsistentState) {
  OptContext ctx(process::Technology::cmos018());
  EXPECT_EQ(ctx.tech().name, "generic-cmos018");
  EXPECT_EQ(&ctx.dm().lib(), &ctx.lib());
  EXPECT_GT(ctx.lib().cref_ff(), 0.0);
}

TEST(OptContextTest, WarmFlimitsCoversAllPairs) {
  OptContext ctx;
  EXPECT_EQ(ctx.flimits().size(), 0u);
  ctx.warm_flimits();
  EXPECT_EQ(ctx.flimits().size(),
            liberty::kCellKindCount * liberty::kCellKindCount);
  // A warmed table returns without recomputation; spot-check a pair.
  const double f = ctx.flimits().get(ctx.dm(), liberty::CellKind::Inv,
                                     liberty::CellKind::Inv);
  EXPECT_GT(f, 1.0);
}

TEST(OptContextTest, RngStreamsAreDeterministicAndDistinct) {
  OptContext ctx;
  util::Rng a1 = ctx.make_rng(0), a2 = ctx.make_rng(0), b = ctx.make_rng(1);
  EXPECT_EQ(a1(), a2());
  util::Rng a3 = ctx.make_rng(0);
  EXPECT_NE(a3(), b());
}

// ---------------------------------------------------------------------------
// Pipeline structure
// ---------------------------------------------------------------------------

TEST(PassPipelineTest, StandardOrderIsShieldCancelSweepProtocol) {
  const PassPipeline p = PassPipeline::standard(OptimizerConfig{});
  const std::vector<std::string> expected = {"shield", "cancel-inverters",
                                             "sweep-dead", "protocol"};
  EXPECT_EQ(p.pass_names(), expected);
}

TEST(PassPipelineTest, ConfigFlagsGatePasses) {
  OptimizerConfig cfg;
  cfg.with_shielding(false).with_cleanup(false);
  const PassPipeline p = PassPipeline::standard(cfg);
  EXPECT_EQ(p.pass_names(), std::vector<std::string>{"protocol"});
}

TEST(PassPipelineTest, ReportHasOneEntryPerPass) {
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  Optimizer opt(ctx);
  const PipelineReport r = opt.run_relative(nl, 0.85);
  ASSERT_EQ(r.passes.size(), 4u);
  EXPECT_EQ(r.passes[0].pass_name, "shield");
  EXPECT_EQ(r.passes[3].pass_name, "protocol");
  EXPECT_TRUE(r.passes[3].circuit.has_value());
}

TEST(PassPipelineTest, AggregatesMatchPerPassSums) {
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c880");
  Optimizer opt(ctx);
  // Tight enough that the protocol pass still has work after shielding.
  const PipelineReport r = opt.run_relative(nl, 0.6);

  std::size_t buffers = 0, rewired = 0, removed = 0, paths = 0;
  double ms = 0.0;
  for (const api::PassReport& p : r.passes) {
    buffers += p.buffers_inserted;
    rewired += p.sinks_rewired;
    removed += p.gates_removed;
    paths += p.paths_optimized;
    ms += p.runtime_ms;
  }
  EXPECT_EQ(r.total_buffers_inserted(), buffers);
  EXPECT_EQ(r.total_sinks_rewired(), rewired);
  EXPECT_EQ(r.total_gates_removed(), removed);
  EXPECT_EQ(r.total_paths_optimized(), paths);
  EXPECT_DOUBLE_EQ(r.total_runtime_ms(), ms);

  // The report envelope is consistent with the pass chain.
  EXPECT_DOUBLE_EQ(r.passes.front().delay_before_ps, r.initial_delay_ps);
  EXPECT_DOUBLE_EQ(r.passes.back().delay_after_ps, r.final_delay_ps);
  EXPECT_GT(r.total_paths_optimized(), 0u);
}

TEST(PassPipelineTest, CustomPipelineRuns) {
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  Optimizer opt(ctx);
  PassPipeline custom;
  custom.emplace<api::CancelInvertersPass>()
      .emplace<api::SweepDeadPass>();
  opt.set_pipeline(std::move(custom));
  const PipelineReport r = opt.run(nl, 1e6);
  EXPECT_EQ(r.passes.size(), 2u);
  EXPECT_TRUE(r.met);  // effectively unconstrained
}

TEST(PassPipelineTest, RejectsNonPositiveTc) {
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
  Optimizer opt(ctx);
  EXPECT_THROW(opt.run(nl, 0.0), std::invalid_argument);
  EXPECT_THROW(opt.run(nl, -5.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shim equivalence: the unified API drives the same kernels as the
// pipeline-free protocol driver, so protocol-only results must be
// bit-identical.
// ---------------------------------------------------------------------------

TEST(ShimEquivalence, ProtocolOnlyPipelineMatchesOptimizeCircuit) {
  OptContext ctx_api;
  Netlist nl_api = netlist::make_benchmark(ctx_api.lib(), "c499");
  Netlist nl_legacy = netlist::make_benchmark(ctx_api.lib(), "c499");

  const double initial =
      timing::Sta(nl_api, ctx_api.dm()).run().critical_delay_ps;
  const double tc = 0.8 * initial;

  OptimizerConfig cfg;
  cfg.with_shielding(false).with_cleanup(false);
  Optimizer opt(ctx_api, cfg);
  const PipelineReport r_api = opt.run(nl_api, tc);

  core::FlimitTable table;
  const core::CircuitResult r_legacy = api::ProtocolPass::run_protocol(
      nl_legacy, ctx_api.dm(), table, tc, {});

  ASSERT_NE(r_api.protocol(), nullptr);
  EXPECT_EQ(r_api.protocol()->paths_optimized, r_legacy.paths_optimized);
  EXPECT_DOUBLE_EQ(r_api.protocol()->achieved_delay_ps,
                   r_legacy.achieved_delay_ps);
  EXPECT_DOUBLE_EQ(r_api.final_area_um, r_legacy.area_um);
  for (netlist::NodeId id : nl_api.gates())
    EXPECT_DOUBLE_EQ(nl_api.drive(id),
                     nl_legacy.drive(nl_legacy.find(nl_api.node(id).name)));
}

// ---------------------------------------------------------------------------
// run_many: determinism across thread counts
// ---------------------------------------------------------------------------

std::vector<Netlist> make_fleet(const OptContext& ctx) {
  std::vector<Netlist> fleet;
  for (const char* name : {"c17", "c432", "c499", "Adder16"})
    fleet.push_back(netlist::make_benchmark(ctx.lib(), name));
  return fleet;
}

TEST(RunMany, OneThreadVsFourThreadsBitIdentical) {
  OptContext ctx1, ctx4;
  std::vector<Netlist> fleet1 = make_fleet(ctx1);
  std::vector<Netlist> fleet4 = make_fleet(ctx4);

  Optimizer opt1(ctx1), opt4(ctx4);
  const auto r1 = opt1.run_many_relative(fleet1, 0.85, 1);
  const auto r4 = opt4.run_many_relative(fleet4, 0.85, 4);

  ASSERT_EQ(r1.size(), fleet1.size());
  ASSERT_EQ(r4.size(), fleet4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1[i].tc_ps, r4[i].tc_ps) << i;
    EXPECT_DOUBLE_EQ(r1[i].final_delay_ps, r4[i].final_delay_ps) << i;
    EXPECT_DOUBLE_EQ(r1[i].final_area_um, r4[i].final_area_um) << i;
    EXPECT_EQ(r1[i].total_buffers_inserted(), r4[i].total_buffers_inserted())
        << i;
    EXPECT_EQ(r1[i].total_paths_optimized(), r4[i].total_paths_optimized())
        << i;
    // The optimized netlists themselves are bit-identical.
    ASSERT_EQ(fleet1[i].size(), fleet4[i].size()) << i;
    for (netlist::NodeId id : fleet1[i].gates())
      EXPECT_DOUBLE_EQ(
          fleet1[i].drive(id),
          fleet4[i].drive(fleet4[i].find(fleet1[i].node(id).name)))
          << i;
  }
}

TEST(RunMany, ReportsInInputOrder) {
  OptContext ctx;
  std::vector<Netlist> fleet = make_fleet(ctx);
  std::vector<double> initial;
  for (const Netlist& nl : fleet)
    initial.push_back(timing::Sta(nl, ctx.dm()).run().critical_delay_ps);

  Optimizer opt(ctx);
  const auto reports = opt.run_many_relative(fleet, 0.9, 2);
  ASSERT_EQ(reports.size(), fleet.size());
  for (std::size_t i = 0; i < reports.size(); ++i)
    EXPECT_NEAR(reports[i].tc_ps, 0.9 * initial[i], 1e-9) << i;
}

TEST(RunMany, EmptySpanIsNoop) {
  OptContext ctx;
  Optimizer opt(ctx);
  std::vector<Netlist> none;
  EXPECT_TRUE(opt.run_many(none, 100.0, 4).empty());
}

TEST(RunMany, WorkerExceptionPropagates) {
  OptContext ctx;
  std::vector<Netlist> fleet = make_fleet(ctx);
  Optimizer opt(ctx);
  EXPECT_THROW(opt.run_many(fleet, -1.0, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Delay-model backend selection & ownership
// ---------------------------------------------------------------------------

TEST(DelayModelBackend, ConfigValidatesBackendSelection) {
  OptimizerConfig cfg;
  cfg.with_delay_model("nldm");  // unknown family name
  EXPECT_FALSE(cfg.validate().empty());
  EXPECT_THROW(cfg.ensure_valid(), api::ConfigError);

  cfg.with_delay_model("table");
  EXPECT_TRUE(cfg.validate().empty());
  timing::TableModelOptions bad;
  bad.slew_grid_ps = {20.0, 10.0};  // not ascending
  cfg.with_table_model(bad);
  EXPECT_FALSE(cfg.validate().empty());

  // Grid problems only matter when the table backend is selected.
  cfg.with_delay_model("closed-form");
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(DelayModelBackend, ContextDefaultsToClosedForm) {
  OptContext ctx;
  EXPECT_EQ(ctx.dm().name(), "closed-form");
  EXPECT_NE(ctx.dm().closed_form(), nullptr);
  EXPECT_EQ(&ctx.dm().lib(), &ctx.lib());
}

TEST(DelayModelBackend, OptimizerInstallsSelectedBackend) {
  OptContext ctx;
  OptimizerConfig cfg;
  cfg.with_delay_model("table");
  Optimizer opt(ctx, cfg);
  const api::DelayBackend& table = ctx.backend(cfg);
  EXPECT_EQ(table.dm().name(), "table");
  EXPECT_EQ(table.dm().selector(), cfg.delay_model_selector());
  // The context's default backend is untouched.
  EXPECT_EQ(ctx.dm().name(), "closed-form");

  // A matching selection resolves the same backend object; another
  // selection never replaces it.
  Optimizer again(ctx, cfg);
  Optimizer third(ctx, OptimizerConfig{});
  EXPECT_EQ(&ctx.backend(cfg), &table);
  EXPECT_EQ(&ctx.backend(OptimizerConfig{}.with_delay_model("closed-form"))
                 .dm(),
            &ctx.dm());

  // Each optimizer keeps computing under its own selection.
  Netlist a = netlist::make_benchmark(ctx.lib(), "c17");
  Netlist b = netlist::make_benchmark(ctx.lib(), "c17");
  EXPECT_EQ(opt.run_relative(a, 0.9).delay_model, "table");
  EXPECT_EQ(third.run_relative(b, 0.9).delay_model, "closed-form");
}

TEST(DelayModelBackend, TableBackendOptimizesEndToEnd) {
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  OptimizerConfig cfg;
  cfg.with_delay_model("table");
  Optimizer opt(ctx, cfg);
  const PipelineReport report = opt.run_relative(nl, 0.85);
  EXPECT_EQ(report.delay_model, "table");
  EXPECT_LT(report.final_delay_ps, report.initial_delay_ps);
  EXPECT_TRUE(report.met);
}

TEST(DelayModelBackend, BackendsAreBuiltOverTheInternedLibrary) {
  // A backend holds a non-owning pointer to its library, so it is only
  // ever built over the context's own — the process-lifetime library of
  // the technology, shared by every context over an equal one.
  OptContext ctx;
  const OptimizerConfig table = OptimizerConfig{}.with_delay_model("table");
  EXPECT_EQ(&ctx.dm().lib(), &ctx.lib());
  EXPECT_EQ(&ctx.backend(table).dm().lib(), &ctx.lib());

  OptContext same;
  OptContext other(process::Technology::cmos018());
  EXPECT_EQ(&same.lib(), &ctx.lib());
  EXPECT_EQ(&same.lib(), &liberty::Library::intern(ctx.tech()));
  EXPECT_NE(&other.lib(), &ctx.lib());
  // Backends belong to their context, never to the shared library.
  EXPECT_NE(&same.backend(table), &ctx.backend(table));
}

TEST(DelayModelBackend, EachBackendOwnsItsFlimitTable) {
  // Flimit values are delays of one backend: selecting another backend
  // gets a table of its own and leaves the default's warm table intact.
  OptContext ctx;
  ctx.warm_flimits();
  const std::size_t warm = ctx.flimits().size();
  ASSERT_GT(warm, 0u);
  const OptimizerConfig cfg = OptimizerConfig{}.with_delay_model("table");
  Optimizer opt(ctx, cfg);
  EXPECT_EQ(ctx.flimits().size(), warm);
  const api::DelayBackend& table = ctx.backend(cfg);
  EXPECT_NE(&table.flimits, &ctx.flimits());
  EXPECT_EQ(table.flimits.size(), 0u);
  EXPECT_GT(table.flimits.get(table.dm(), liberty::CellKind::Inv,
                              liberty::CellKind::Inv),
            1.0);
  EXPECT_EQ(table.flimits.size(), 1u);
}

// ---------------------------------------------------------------------------
// Cross-pass timing-engine sharing + enumeration gating (obs counters)
// ---------------------------------------------------------------------------

double counter_value(const char* name) {
  const util::Json snap = obs::Registry::global().snapshot_json();
  const util::Json* counters = snap.find("counters");
  if (counters == nullptr) return 0.0;
  const util::Json* cell = counters->find(name);
  return cell == nullptr ? 0.0 : cell->as_number();
}

TEST(EngineSharing, PipelineColdRunsBoundedPerPoint) {
  // One optimization point = one shared IncrementalSta: cold O(E) runs
  // are bounded by structure, not by pass count — one to measure the
  // relative target, one to start the shared engine. The sweep pass
  // compacts the netlist in place and carries the engine over to the new
  // ids (compact()); everything else — shield candidates, protocol sizing
  // rounds, per-pass delay envelopes — flows through update(), and no
  // pass leaves the engine for the pipeline to invalidate.
  OptContext ctx;
  ctx.warm_flimits();  // characterization runs its own engines; exclude
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c880");

  const double full_before = counter_value("sta.full_runs");
  const double updates_before = counter_value("sta.updates");
  const double invalidated_before =
      counter_value("pipeline.engine_invalidated");
  const PipelineReport report = Optimizer(ctx).run_relative(nl, 0.85);
  const double full_runs = counter_value("sta.full_runs") - full_before;
  const double updates = counter_value("sta.updates") - updates_before;

  EXPECT_EQ(report.passes.size(), 4u);  // shield, cancel, sweep, protocol
  EXPECT_GT(report.total_gates_removed(), 0u);  // the sweep really compacted
  EXPECT_LE(full_runs, 2.0);  // target measure + engine start
  EXPECT_GE(updates, 1.0);    // the passes really report edits
  EXPECT_EQ(counter_value("pipeline.engine_invalidated"), invalidated_before);
}

TEST(EngineSharing, ProtocolGatingReplaysCachedEnumerations) {
  // A circuit the protocol cannot improve: the critical path's only gate
  // is the first gate of its path, whose input capacitance is pinned by
  // the primary input's load, while a fast side path keeps the round
  // loop re-checking instead of breaking. Every round after the first
  // must replay the cached path list instead of re-enumerating.
  OptContext ctx;
  Netlist nl(ctx.lib(), "input_pinned");
  const netlist::NodeId a = nl.add_input("a");
  const netlist::NodeId h1 =
      nl.add_gate(liberty::CellKind::Inv, "h1", {a});
  nl.mark_output(h1, 1e4);  // heavy PO keeps the pinned path critical
  const netlist::NodeId b = nl.add_input("b");
  const netlist::NodeId s1 =
      nl.add_gate(liberty::CellKind::Inv, "s1", {b});
  nl.mark_output(s1, 1.0);

  const timing::Sta sta(nl, ctx.dm());
  const double initial = sta.run().critical_delay_ps;

  core::CircuitOptions opt;
  opt.max_rounds = 8;
  const double enum_before = counter_value("sta.kpaths_enumerated");
  const double cached_before = counter_value("sta.kpaths_cached");
  const core::CircuitResult res = api::ProtocolPass::run_protocol(
      nl, ctx.dm(), ctx.flimits(), 0.3 * initial, opt);
  const double enumerations =
      counter_value("sta.kpaths_enumerated") - enum_before;
  const double cached = counter_value("sta.kpaths_cached") - cached_before;

  EXPECT_FALSE(res.met);                // infeasible by construction
  EXPECT_EQ(enumerations, 1.0);         // round 1 only
  EXPECT_GE(cached, 1.0);               // later rounds replayed the cache
}

TEST(EngineSharing, BudgetCapCountersFireOnlyWhenACapBinds) {
  // Budget caps are visible as counters (no record field): each fires
  // when its budget, not convergence, stopped the pass.
  OptContext ctx;
  ctx.warm_flimits();
  const char* const names[] = {"shield.max_buffers_hit",
                               "protocol.max_rounds_hit",
                               "protocol.max_paths_hit"};
  auto deltas = [&](const OptimizerConfig& cfg, double ratio) {
    std::array<double, 3> d{};
    for (std::size_t i = 0; i < d.size(); ++i) d[i] = -counter_value(names[i]);
    Netlist nl = netlist::make_benchmark(ctx.lib(), "c880");
    Optimizer(ctx, cfg).run_relative(nl, ratio);
    for (std::size_t i = 0; i < d.size(); ++i) d[i] += counter_value(names[i]);
    return d;
  };

  const std::array<double, 3> tight = deltas(OptimizerConfig{}
                                                 .with_shield_budget(1)
                                                 .with_max_rounds(1)
                                                 .with_max_paths(1),
                                             0.7);
  EXPECT_EQ(tight[0], 1.0);  // one shield pass, stopped at one buffer
  EXPECT_EQ(tight[1], 1.0);  // one protocol pass, out of rounds, unmet
  EXPECT_EQ(tight[2], 1.0);  // its one round enumerated a capped list

  const std::array<double, 3> loose =
      deltas(OptimizerConfig{}.with_shield_budget(100000), 1.0);
  EXPECT_EQ(loose, (std::array<double, 3>{0.0, 0.0, 0.0}));
}

TEST(DelayModelBackend, ClosedFormRunsBitIdenticalAcrossBackendSwitches) {
  // Running closed-form after a table interlude reproduces the original
  // closed-form result bit-for-bit (the refactor is behavior-preserving).
  OptContext ctx;
  Netlist a = netlist::make_benchmark(ctx.lib(), "c880");
  const PipelineReport before = Optimizer(ctx).run_relative(a, 0.9);

  Netlist scratch = netlist::make_benchmark(ctx.lib(), "c880");
  Optimizer(ctx, OptimizerConfig{}.with_delay_model("table"))
      .run_relative(scratch, 0.9);

  Netlist b = netlist::make_benchmark(ctx.lib(), "c880");
  const PipelineReport after = Optimizer(ctx).run_relative(b, 0.9);
  EXPECT_EQ(before.delay_model, "closed-form");
  EXPECT_EQ(after.delay_model, "closed-form");
  EXPECT_EQ(before.final_delay_ps, after.final_delay_ps);
  EXPECT_EQ(before.final_area_um, after.final_area_um);
}

}  // namespace
