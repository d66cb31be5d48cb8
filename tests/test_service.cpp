// The pops::service subsystem: result-cache accounting and bit-identical
// replay, cache keying across constraint axes, run_many determinism with
// the cache enabled, the pass registry, sweep-spec validation, sweep
// equivalence to direct Optimizer runs, and JSON serialization.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/service/result_cache.hpp"
#include "pops/service/serialize.hpp"
#include "pops/service/sweep.hpp"
#include "pops/timing/sta.hpp"
#include "pops/timing/table_model.hpp"

namespace {

using namespace pops;
using api::OptContext;
using api::Optimizer;
using api::OptimizerConfig;
using api::PassRegistry;
using api::PipelineReport;
using netlist::Netlist;
using service::ResultCache;
using service::SweepService;
using service::SweepSpec;

void expect_same_netlist(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.size(), b.size());
  for (netlist::NodeId id : a.gates()) {
    const netlist::NodeId other = b.find(a.node(id).name);
    ASSERT_NE(other, netlist::kNoNode) << a.node(id).name;
    EXPECT_DOUBLE_EQ(a.drive(id), b.drive(other)) << a.node(id).name;
  }
}

void expect_same_report(const PipelineReport& fresh,
                        const PipelineReport& cached) {
  EXPECT_DOUBLE_EQ(fresh.tc_ps, cached.tc_ps);
  EXPECT_DOUBLE_EQ(fresh.initial_delay_ps, cached.initial_delay_ps);
  EXPECT_DOUBLE_EQ(fresh.final_delay_ps, cached.final_delay_ps);
  EXPECT_DOUBLE_EQ(fresh.initial_area_um, cached.initial_area_um);
  EXPECT_DOUBLE_EQ(fresh.final_area_um, cached.final_area_um);
  EXPECT_EQ(fresh.met, cached.met);
  EXPECT_EQ(fresh.total_buffers_inserted(), cached.total_buffers_inserted());
  EXPECT_EQ(fresh.total_gates_removed(), cached.total_gates_removed());
  EXPECT_EQ(fresh.total_paths_optimized(), cached.total_paths_optimized());
  ASSERT_EQ(fresh.passes.size(), cached.passes.size());
  for (std::size_t i = 0; i < fresh.passes.size(); ++i)
    EXPECT_EQ(fresh.passes[i].pass_name, cached.passes[i].pass_name);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

TEST(ResultCache, HitMissAccounting) {
  OptContext ctx;
  ResultCache cache;
  Optimizer opt(ctx, {}, &cache);

  Netlist nl1 = netlist::make_benchmark(ctx.lib(), "c17");
  opt.run_relative(nl1, 0.9);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  Netlist nl2 = netlist::make_benchmark(ctx.lib(), "c17");
  opt.run_relative(nl2, 0.9);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  cache.clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, CachedReplayIsBitIdentical) {
  // Fresh run without any cache...
  OptContext ctx_fresh;
  Netlist nl_fresh = netlist::make_benchmark(ctx_fresh.lib(), "c432");
  const PipelineReport r_fresh = Optimizer(ctx_fresh).run_relative(nl_fresh, 0.8);

  // ...vs a cached replay in a caching context.
  OptContext ctx;
  ResultCache cache;
  Optimizer opt(ctx, {}, &cache);
  Netlist nl_miss = netlist::make_benchmark(ctx.lib(), "c432");
  const PipelineReport r_miss = opt.run_relative(nl_miss, 0.8);
  Netlist nl_hit = netlist::make_benchmark(ctx.lib(), "c432");
  const PipelineReport r_hit = opt.run_relative(nl_hit, 0.8);

  EXPECT_FALSE(r_miss.from_cache);
  EXPECT_TRUE(r_hit.from_cache);
  expect_same_report(r_fresh, r_miss);
  expect_same_report(r_fresh, r_hit);
  expect_same_netlist(nl_fresh, nl_miss);
  expect_same_netlist(nl_fresh, nl_hit);
}

TEST(ResultCache, KeyedByConstraintAndCircuit) {
  OptContext ctx;
  ResultCache cache;
  Optimizer opt(ctx, {}, &cache);

  // Different Tc points of the same circuit are distinct entries.
  for (const double ratio : {0.8, 0.9, 1.0}) {
    Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
    opt.run_relative(nl, ratio);
  }
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);

  // A different circuit is a distinct entry.
  Netlist other = netlist::make_benchmark(ctx.lib(), "Adder16");
  opt.run_relative(other, 0.9);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ResultCache, KeyedByShieldMarginAndConfig) {
  OptContext ctx;
  ResultCache cache;

  // Same circuit + Tc under different Flimit bounds (shield margins) and
  // policies must not collide.
  for (const double margin : {1.0, 1.5}) {
    OptimizerConfig cfg;
    cfg.shield_margin = margin;
    Optimizer opt(ctx, cfg, &cache);
    Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
    opt.run_relative(nl, 0.85);
  }
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);

  OptimizerConfig no_restructure;
  no_restructure.with_restructuring(false);
  Optimizer opt(ctx, no_restructure, &cache);
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  opt.run_relative(nl, 0.85);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ResultCache, KeyIsNormalizedToPassesThatReadTheKnob) {
  // With shielding disabled, shield_margin cannot affect the result, so a
  // margin sweep under a no-shield policy must collapse to one entry per
  // (circuit, Tc) — the second margin point is a hit, not a recompute.
  OptContext ctx;
  ResultCache cache;
  for (const double margin : {1.0, 1.5, 2.0}) {
    OptimizerConfig cfg;
    cfg.with_shielding(false);
    cfg.shield_margin = margin;
    Optimizer opt(ctx, cfg, &cache);
    Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
    opt.run_relative(nl, 0.9);
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

namespace salt {

// Same name, different constructor parameter: cache_salt must keep the
// two variants from sharing cached results.
class NoopPass final : public api::Pass {
 public:
  explicit NoopPass(int strength) : strength_(strength) {}
  std::string_view name() const noexcept override { return "noop"; }
  std::string cache_salt() const override {
    return "strength=" + std::to_string(strength_);
  }
  void run(netlist::Netlist&, const OptContext&, const OptimizerConfig&,
           double, api::PassReport&, timing::IncrementalSta&) const override {}

 private:
  int strength_;
};

}  // namespace salt

TEST(ResultCache, CustomPassSaltDistinguishesKeys) {
  OptContext ctx;
  const OptimizerConfig cfg;
  api::PassPipeline a, b, b2;
  a.emplace<salt::NoopPass>(1).emplace<api::ProtocolPass>();
  b.emplace<salt::NoopPass>(2).emplace<api::ProtocolPass>();
  b2.emplace<salt::NoopPass>(2).emplace<api::ProtocolPass>();
  EXPECT_NE(ResultCache::hash_config(ctx, cfg, a),
            ResultCache::hash_config(ctx, cfg, b));
  EXPECT_EQ(ResultCache::hash_config(ctx, cfg, b),
            ResultCache::hash_config(ctx, cfg, b2));
}

TEST(ResultCache, UnknownPassHashesEveryKnob) {
  // A custom pass may read any config knob, so normalization must not
  // collapse configs that differ only in a knob no built-in pass of the
  // pipeline reads.
  OptContext ctx;
  OptimizerConfig a, b;
  b.shield_margin = 1.5;  // no shield pass in the pipeline below
  api::PassPipeline p1, p2;
  p1.emplace<salt::NoopPass>(1);
  p2.emplace<salt::NoopPass>(1);
  EXPECT_NE(ResultCache::hash_config(ctx, a, p1),
            ResultCache::hash_config(ctx, b, p2));
}

TEST(ResultCache, KeySharedAcrossContextsWithEqualTechnology) {
  // Keys are pure content and cached netlists point into the interned
  // library of their technology, so one cache serves every context over
  // an equal technology — and never one over a different technology.
  OptContext a, b;
  OptContext other(process::Technology::cmos018());
  ResultCache cache;

  Netlist na = netlist::make_benchmark(a.lib(), "c432");
  const PipelineReport ra = Optimizer(a, {}, &cache).run_relative(na, 0.9);
  EXPECT_FALSE(ra.from_cache);
  ASSERT_EQ(cache.misses(), 1u);

  Netlist nb = netlist::make_benchmark(b.lib(), "c432");
  const PipelineReport rb = Optimizer(b, {}, &cache).run_relative(nb, 0.9);
  EXPECT_TRUE(rb.from_cache);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(&nb.lib(), &a.lib());
  EXPECT_EQ(ResultCache::hash_netlist(nb), ResultCache::hash_netlist(na));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rb.final_delay_ps),
            std::bit_cast<std::uint64_t>(ra.final_delay_ps));

  Netlist no = netlist::make_benchmark(other.lib(), "c432");
  const PipelineReport ro = Optimizer(other, {}, &cache).run_relative(no, 0.9);
  EXPECT_FALSE(ro.from_cache);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ResultCache, GoldenKeyHashesAreStable) {
  // Cache keys (and the fabric shard placement built from them) must not
  // move by accident, or every persisted journal and warm worker cache
  // would go cold. The context hash is unchanged since backends became
  // per-config context state; the config hashes were re-pinned on purpose
  // when the protocol pass gained its solver-revision cache salt
  // (previously 0xa5180c7c75b097f8 and 0xefc84023983cd304).
  OptContext ctx;
  EXPECT_EQ(ResultCache::hash_context(ctx), 0xd2eff23d22719ee7ull);
  const OptimizerConfig closed_form;
  EXPECT_EQ(ResultCache::hash_config(ctx, closed_form,
                                     api::PassPipeline::standard(closed_form)),
            0xff9e94f29b80e325ull);
  const OptimizerConfig table = OptimizerConfig{}.with_delay_model("table");
  EXPECT_EQ(ResultCache::hash_config(ctx, table,
                                     api::PassPipeline::standard(table)),
            0x7aea6e94695b9759ull);
}

TEST(ResultCache, HashContextSeparatesSeedsAndTechnologies) {
  OptContext a;
  OptContext seeded(process::Technology::cmos025(), core::FlimitOptions{},
                    /*rng_seed=*/12345);
  EXPECT_NE(ResultCache::hash_context(a), ResultCache::hash_context(seeded));
}

TEST(ResultCache, KeyDependsOnNetlistName) {
  // A hit overwrites the caller's netlist wholesale, name included — so
  // structurally identical circuits under different names must not share
  // an entry (the replay would silently relabel the design).
  OptContext ctx;
  const std::vector<liberty::CellKind> kinds(4, liberty::CellKind::Inv);
  const Netlist a = netlist::make_chain(ctx.lib(), kinds, 12.0, "top_a");
  const Netlist b = netlist::make_chain(ctx.lib(), kinds, 12.0, "top_b");
  EXPECT_NE(ResultCache::hash_netlist(a), ResultCache::hash_netlist(b));
}

TEST(ResultCache, RepeatedRelativeRunMemoizesInitialSta) {
  OptContext ctx;
  ResultCache cache;
  Optimizer opt(ctx, {}, &cache);
  Netlist nl1 = netlist::make_benchmark(ctx.lib(), "c17");
  const PipelineReport r1 = opt.run_relative(nl1, 0.9);

  // The memoized initial delay must be retrievable under the tc-less key
  // and make the repeat derive a bit-identical Tc.
  const api::ResultCacheKey key = cache.make_key(
      ctx, netlist::make_benchmark(ctx.lib(), "c17"), opt.config(),
      opt.pipeline(), 0.0);
  ASSERT_TRUE(cache.initial_delay_ps(key).has_value());
  EXPECT_DOUBLE_EQ(*cache.initial_delay_ps(key), r1.initial_delay_ps);

  Netlist nl2 = netlist::make_benchmark(ctx.lib(), "c17");
  const PipelineReport r2 = opt.run_relative(nl2, 0.9);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_DOUBLE_EQ(r1.tc_ps, r2.tc_ps);
}

TEST(ResultCache, InitialDelayMemoStoresZero) {
  // The memo is sentinel-free: a legitimately measured 0.0 is stored and
  // distinguishable from "never stored" (nullopt).
  ResultCache cache;
  api::ResultCacheKey key{1, 2, 0};
  EXPECT_FALSE(cache.initial_delay_ps(key).has_value());
  cache.store_initial_delay(key, 0.0);
  ASSERT_TRUE(cache.initial_delay_ps(key).has_value());
  EXPECT_EQ(*cache.initial_delay_ps(key), 0.0);
}

namespace {
// Delegating hook that counts memo traffic — the observable for the
// zero-delay miss regression below.
struct CountingCache final : api::ResultCacheHook {
  ResultCache inner;
  mutable int memo_queries = 0;
  mutable int memo_known = 0;
  int memo_stores = 0;

  api::ResultCacheKey make_key(const api::OptContext& ctx, const Netlist& nl,
                               const OptimizerConfig& cfg,
                               const api::PassPipeline& pipeline,
                               double tc_ps) const override {
    return inner.make_key(ctx, nl, cfg, pipeline, tc_ps);
  }
  bool lookup(const api::ResultCacheKey& key, Netlist& nl,
              PipelineReport& report) override {
    return inner.lookup(key, nl, report);
  }
  void store(const api::ResultCacheKey& key, const Netlist& nl,
             const PipelineReport& report) override {
    inner.store(key, nl, report);
  }
  std::optional<double> initial_delay_ps(
      const api::ResultCacheKey& key) const override {
    ++memo_queries;
    const std::optional<double> v = inner.initial_delay_ps(key);
    if (v) ++memo_known;
    return v;
  }
  void store_initial_delay(const api::ResultCacheKey& key,
                           double delay_ps) override {
    ++memo_stores;
    inner.store_initial_delay(key, delay_ps);
  }
};
}  // namespace

TEST(ResultCache, ZeroInitialDelayIsMemoizedOnce) {
  // Regression: a degenerate netlist whose critical delay is exactly 0.0
  // used to never memoize (the store was gated on initial > 0.0), so
  // every replay re-ran full STA. Both runs still throw — a zero-derived
  // Tc is invalid — but the second must be served from the memo.
  OptContext ctx;
  CountingCache cache;
  Optimizer opt(ctx, {}, &cache);

  Netlist nl(ctx.lib(), "wire");
  const netlist::NodeId a = nl.add_input("a");
  nl.mark_output(a, 10.0);  // PI fed straight to a PO: zero critical delay

  EXPECT_THROW(opt.run_relative(nl, 0.9), std::invalid_argument);
  EXPECT_EQ(cache.memo_stores, 1) << "0.0 must be stored, not skipped";
  EXPECT_EQ(cache.memo_known, 0);

  EXPECT_THROW(opt.run_relative(nl, 0.9), std::invalid_argument);
  EXPECT_EQ(cache.memo_stores, 1) << "replay must not re-measure";
  EXPECT_EQ(cache.memo_known, 1) << "replay must hit the memo";
}

TEST(ResultCache, KeyDependsOnInputSizing) {
  // The key hashes netlist *content*, including current drives: the same
  // topology at different initial sizes is a different problem.
  OptContext ctx;
  Netlist a = netlist::make_benchmark(ctx.lib(), "c17");
  Netlist b = netlist::make_benchmark(ctx.lib(), "c17");
  const auto key_a = ResultCache::hash_netlist(a);
  EXPECT_EQ(key_a, ResultCache::hash_netlist(b));
  b.set_drive(b.gates().front(), 2.0 * b.drive(b.gates().front()));
  EXPECT_NE(key_a, ResultCache::hash_netlist(b));
}

TEST(ResultCache, RunManyDeterministicWithCacheAcrossThreadCounts) {
  const auto make_fleet = [](const OptContext& ctx) {
    std::vector<Netlist> fleet;
    for (const char* name : {"c17", "c432", "c499", "Adder16"})
      fleet.push_back(netlist::make_benchmark(ctx.lib(), name));
    return fleet;
  };

  OptContext ctx1, ctx4;
  std::vector<Netlist> fleet1 = make_fleet(ctx1);
  std::vector<Netlist> fleet4 = make_fleet(ctx4);

  ResultCache cache1, cache4;
  Optimizer opt1(ctx1, {}, &cache1), opt4(ctx4, {}, &cache4);
  const auto r1 = opt1.run_many_relative(fleet1, 0.85, 1);
  const auto r4 = opt4.run_many_relative(fleet4, 0.85, 4);

  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    expect_same_report(r1[i], r4[i]);
    expect_same_netlist(fleet1[i], fleet4[i]);
  }

  // A repeated batch is served fully from cache, bit-identically.
  std::vector<Netlist> fleet1b = make_fleet(ctx1);
  const auto r1b = opt1.run_many_relative(fleet1b, 0.85, 4);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(r1b[i].from_cache) << i;
    expect_same_report(r1[i], r1b[i]);
    expect_same_netlist(fleet1[i], fleet1b[i]);
  }
  const ResultCache::Stats stats = cache1.stats();
  EXPECT_EQ(stats.hits, fleet1.size());
  EXPECT_EQ(stats.misses, fleet1.size());
}

// ---------------------------------------------------------------------------
// PassRegistry + duplicate pass names
// ---------------------------------------------------------------------------

TEST(PassRegistry, BuiltinsRegistered) {
  const std::vector<std::string> expected = {
      "cancel-inverters", "multi-vt", "protocol", "shield", "sweep-dead"};
  EXPECT_EQ(PassRegistry::global().names(), expected);
  EXPECT_TRUE(PassRegistry::global().contains("protocol"));
  EXPECT_FALSE(PassRegistry::global().contains("retime"));
}

TEST(PassRegistry, CreateProducesMatchingPass) {
  const auto pass = PassRegistry::global().create("shield");
  ASSERT_NE(pass, nullptr);
  EXPECT_EQ(pass->name(), "shield");
  EXPECT_THROW(PassRegistry::global().create("nope"), std::invalid_argument);
}

TEST(PassRegistry, MakePipelinePreservesOrder) {
  const api::PassPipeline p = PassRegistry::global().make_pipeline(
      {"cancel-inverters", "sweep-dead", "protocol"});
  const std::vector<std::string> expected = {"cancel-inverters", "sweep-dead",
                                             "protocol"};
  EXPECT_EQ(p.pass_names(), expected);
}

TEST(PassRegistry, DuplicateRegistrationRejected) {
  PassRegistry local;  // not the global one: keep the singleton clean
  EXPECT_THROW(local.register_pass(
                   "shield", [] { return std::make_unique<api::ShieldPass>(); }),
               std::invalid_argument);
  local.register_pass("shield2",
                      [] { return std::make_unique<api::ShieldPass>(); });
  EXPECT_TRUE(local.contains("shield2"));
}

TEST(PassPipelineDuplicates, AddRejectsDuplicateNames) {
  api::PassPipeline p;
  p.emplace<api::ShieldPass>();
  EXPECT_THROW(p.emplace<api::ShieldPass>(), std::invalid_argument);
  try {
    api::PassPipeline q;
    q.emplace<api::ProtocolPass>();
    q.emplace<api::ProtocolPass>();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("protocol"), std::string::npos);
  }
}

TEST(PassRegistry, MakePipelineRejectsDuplicates) {
  EXPECT_THROW(PassRegistry::global().make_pipeline({"shield", "shield"}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SweepSpec validation
// ---------------------------------------------------------------------------

TEST(SweepSpec, DefaultAxesAndJobCount) {
  SweepSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.tc_ratios = {0.8, 0.9, 1.0};
  EXPECT_EQ(spec.n_jobs(), 6u);
  EXPECT_TRUE(spec.validate().empty());
  spec.shield_margins = {1.0, 1.5};
  spec.policies = {service::buffer_policy("standard"),
                   service::buffer_policy("no-shield")};
  EXPECT_EQ(spec.n_jobs(), 24u);
  EXPECT_TRUE(spec.validate().empty());
}

TEST(SweepSpec, ValidationReportsEveryProblem) {
  SweepSpec spec;  // circuits and tc_ratios empty
  spec.tc_ratios = {-1.0};
  spec.shield_margins = {0.0};
  spec.pipeline = {"unknown-pass"};
  spec.base.tc_margin = 5.0;
  const auto problems = spec.validate();
  EXPECT_GE(problems.size(), 5u);
  EXPECT_THROW(spec.ensure_valid(), std::invalid_argument);
}

TEST(SweepSpec, DuplicateAxesRejected) {
  SweepSpec spec;
  spec.circuits = {"c17", "c17"};
  spec.tc_ratios = {0.9};
  spec.policies = {service::buffer_policy("standard"),
                   service::buffer_policy("standard")};
  const auto problems = spec.validate();
  EXPECT_EQ(problems.size(), 2u);
}

TEST(SweepSpec, PolicyOverridesAreValidatedUpFront) {
  // A valid base can still produce an invalid *job* config once a policy's
  // overrides land on it; that must be caught by validate(), not thrown
  // mid-sweep after points were already streamed.
  SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.9};
  spec.base.with_cleanup(false).with_protocol(false);  // shield-only base
  EXPECT_TRUE(spec.base.validate().empty());
  spec.policies = {service::buffer_policy("standard"),
                   service::buffer_policy("no-shield")};
  const auto problems = spec.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("no-shield"), std::string::npos);
  EXPECT_THROW(spec.ensure_valid(), std::invalid_argument);
}

TEST(SweepSpec, NamedPoliciesResolve) {
  EXPECT_TRUE(service::buffer_policy("standard").shielding);
  EXPECT_FALSE(service::buffer_policy("no-shield").shielding);
  EXPECT_TRUE(service::buffer_policy("no-shield").restructuring);
  EXPECT_FALSE(service::buffer_policy("no-restructure").restructuring);
  EXPECT_FALSE(service::buffer_policy("minimal").shielding);
  EXPECT_THROW(service::buffer_policy("bogus"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SweepService
// ---------------------------------------------------------------------------

SweepService::CircuitLoader builtin_loader(const OptContext& ctx) {
  return [&ctx](const std::string& name) {
    return netlist::make_benchmark(ctx.lib(), name);
  };
}

TEST(SweepService, PointsMatchDirectOptimizerRuns) {
  SweepSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.tc_ratios = {0.8, 0.9, 1.1};
  spec.n_threads = 2;

  OptContext ctx;
  SweepService sweeps(ctx);
  const service::SweepReport sweep = sweeps.run(spec, builtin_loader(ctx));
  ASSERT_EQ(sweep.points.size(), 6u);
  EXPECT_EQ(sweep.cache_misses, 6u);
  EXPECT_EQ(sweep.cache_hits, 0u);

  // Every point must be bit-identical to a direct (uncached) run.
  OptContext ctx_direct;
  Optimizer direct(ctx_direct);
  for (const service::SweepPoint& point : sweep.points) {
    Netlist nl = netlist::make_benchmark(ctx_direct.lib(), point.circuit);
    const PipelineReport r = direct.run_relative(nl, point.tc_ratio);
    expect_same_report(r, point.report);
  }
}

TEST(SweepService, RepeatedSweepHitsCacheWithUnchangedResults) {
  SweepSpec spec;
  spec.circuits = {"c17", "Adder16"};
  spec.tc_ratios = {0.85, 1.0};

  OptContext ctx;
  SweepService sweeps(ctx);
  const service::SweepReport first = sweeps.run(spec, builtin_loader(ctx));
  const service::SweepReport second = sweeps.run(spec, builtin_loader(ctx));

  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, 4u);
  EXPECT_EQ(second.cache_hits, 4u);
  EXPECT_EQ(second.cache_misses, 0u);

  ASSERT_EQ(first.points.size(), second.points.size());
  for (std::size_t i = 0; i < first.points.size(); ++i) {
    EXPECT_TRUE(second.points[i].report.from_cache) << i;
    expect_same_report(first.points[i].report, second.points[i].report);
  }
}

TEST(SweepService, StreamsRecordsInJobOrder) {
  SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.9};
  spec.shield_margins = {1.0, 2.0};
  spec.policies = {service::buffer_policy("standard"),
                   service::buffer_policy("minimal")};

  OptContext ctx;
  SweepService sweeps(ctx);
  std::vector<std::string> streamed;
  const service::SweepReport sweep = sweeps.run(
      spec, builtin_loader(ctx), [&](const service::SweepPoint& point) {
        streamed.push_back(point.policy + "/" +
                           util::Json(point.shield_margin).dump());
      });
  const std::vector<std::string> expected = {"standard/1", "standard/2",
                                             "minimal/1", "minimal/2"};
  EXPECT_EQ(streamed, expected);
  ASSERT_EQ(sweep.points.size(), 4u);
  EXPECT_EQ(sweep.points[0].policy, "standard");
  EXPECT_EQ(sweep.points[3].policy, "minimal");
}

TEST(SweepService, DeclarativePipelineViaRegistry) {
  SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.9};
  spec.pipeline = {"cancel-inverters", "protocol"};

  OptContext ctx;
  SweepService sweeps(ctx);
  const service::SweepReport sweep = sweeps.run(spec, builtin_loader(ctx));
  ASSERT_EQ(sweep.points.size(), 1u);
  const std::vector<std::string> expected = {"cancel-inverters", "protocol"};
  ASSERT_EQ(sweep.points[0].report.passes.size(), 2u);
  EXPECT_EQ(sweep.points[0].report.passes[0].pass_name, expected[0]);
  EXPECT_EQ(sweep.points[0].report.passes[1].pass_name, expected[1]);
}

TEST(SweepService, NoCacheMode) {
  SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.9};

  // Caching is a property of the service, not the context: an uncached
  // service next to a cached one on the same context runs every point
  // and leaves the cached service's memo intact.
  OptContext ctx;
  const SweepService cached(ctx);
  const service::SweepReport cold = cached.run(spec, builtin_loader(ctx));
  EXPECT_EQ(cold.cache_misses, 1u);

  const SweepService uncached(ctx, /*use_cache=*/false);
  EXPECT_EQ(uncached.cache(), nullptr);
  const service::SweepReport sweep = uncached.run(spec, builtin_loader(ctx));
  ASSERT_EQ(sweep.points.size(), 1u);
  EXPECT_FALSE(sweep.points[0].report.from_cache);
  EXPECT_EQ(sweep.cache_hits, 0u);
  EXPECT_EQ(sweep.cache_misses, 0u);

  const service::SweepReport warm = cached.run(spec, builtin_loader(ctx));
  ASSERT_EQ(warm.points.size(), 1u);
  EXPECT_TRUE(warm.points[0].report.from_cache);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(Serialize, ConfigHasEveryKnob) {
  const util::Json j = service::to_json(OptimizerConfig{});
  for (const char* key :
       {"hard_ratio", "weak_ratio", "allow_restructuring", "max_paths",
        "max_rounds", "tc_margin", "pi_slew_ps", "shield_margin",
        "max_shield_buffers", "shield_fanout", "enable_shielding",
        "enable_cleanup", "enable_protocol"})
    EXPECT_NE(j.find(key), nullptr) << key;
  EXPECT_EQ(j.find("hard_ratio")->dump(), "1.2");
}

TEST(Serialize, PipelineReportRoundTripsFields) {
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  // Tight enough that the protocol pass optimizes paths (per-path records).
  const PipelineReport r = Optimizer(ctx).run_relative(nl, 0.6);
  const util::Json j = service::to_json(r);

  EXPECT_EQ(j.find("tc_ps")->dump(), util::Json(r.tc_ps).dump());
  EXPECT_EQ(j.find("met")->dump(), r.met ? "true" : "false");
  ASSERT_NE(j.find("passes"), nullptr);
  EXPECT_EQ(j.find("passes")->size(), r.passes.size());
  EXPECT_EQ(j.find("paths_optimized")->dump(),
            util::Json(r.total_paths_optimized()).dump());

  // Run-dependent fields live only in the trailing "measured" object —
  // and vanish entirely when serialized with measured=false.
  const util::Json* measured = j.find("measured");
  ASSERT_NE(measured, nullptr);
  EXPECT_EQ(measured->find("from_cache")->dump(), "false");
  EXPECT_DOUBLE_EQ(measured->find("runtime_ms")->as_number(),
                   r.total_runtime_ms());
  EXPECT_EQ(measured->find("pass_runtimes_ms")->size(), r.passes.size());
  const util::Json bare = service::to_json(r, {.measured = false});
  EXPECT_EQ(bare.find("measured"), nullptr);
  EXPECT_EQ(bare.dump(0).find("runtime_ms"), std::string::npos);

  // The protocol pass entry carries the per-path circuit result,
  // including the round counter of the no-op-spin fix.
  const std::string text = j.dump(0);
  EXPECT_NE(text.find("\"protocol\""), std::string::npos);
  EXPECT_NE(text.find("\"per_path\""), std::string::npos);
  EXPECT_NE(text.find("\"domain\""), std::string::npos);
  EXPECT_NE(text.find("\"rounds\""), std::string::npos);
}

TEST(Serialize, SerializationIsDeterministic) {
  OptContext ctx;
  Netlist nl1 = netlist::make_benchmark(ctx.lib(), "c17");
  Netlist nl2 = netlist::make_benchmark(ctx.lib(), "c17");
  Optimizer opt(ctx);
  // With measurements off the serialization is a pure function of the
  // inputs: exact bytes, no masking.
  const std::string a =
      service::to_json(opt.run_relative(nl1, 0.9), {.measured = false})
          .dump(0);
  const std::string b =
      service::to_json(opt.run_relative(nl2, 0.9), {.measured = false})
          .dump(0);
  EXPECT_EQ(a, b);
}

TEST(Serialize, SweepReportSchema) {
  SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.9};

  OptContext ctx;
  SweepService sweeps(ctx);
  const service::SweepReport sweep = sweeps.run(spec, builtin_loader(ctx));
  const util::Json j = service::to_json(sweep);
  ASSERT_NE(j.find("points"), nullptr);
  EXPECT_EQ(j.find("points")->size(), 1u);
  ASSERT_NE(j.find("cache"), nullptr);
  EXPECT_EQ(j.find("cache")->find("misses")->dump(), "1");
  EXPECT_NE(j.find("wall_ms"), nullptr);

  // measured=false keeps the cache summary but drops the wall clock.
  const util::Json bare = service::to_json(sweep, {.measured = false});
  EXPECT_NE(bare.find("cache"), nullptr);
  EXPECT_EQ(bare.find("wall_ms"), nullptr);

  const util::Json spec_json = service::to_json(spec);
  EXPECT_EQ(spec_json.find("circuits")->size(), 1u);
  EXPECT_NE(spec_json.find("base"), nullptr);
}

// ---------------------------------------------------------------------------
// Delay-model backends through the service layer
// ---------------------------------------------------------------------------

TEST(ResultCache, KeyedByDelayModelBackend) {
  // hash_config must separate closed-form from table — and two tables
  // characterized on different grids from each other — so backends can
  // never replay each other's entries.
  OptContext ctx;
  const api::PassPipeline pipeline = api::PassPipeline::standard({});

  const std::uint64_t h_closed =
      ResultCache::hash_config(ctx, OptimizerConfig{}, pipeline);
  const std::uint64_t h_table = ResultCache::hash_config(
      ctx, OptimizerConfig{}.with_delay_model("table"), pipeline);
  EXPECT_NE(h_closed, h_table);

  timing::TableModelOptions coarse;
  coarse.slew_grid_ps = {10.0, 100.0};
  coarse.load_grid = {1.0, 10.0};
  const std::uint64_t h_coarse = ResultCache::hash_config(
      ctx,
      OptimizerConfig{}.with_delay_model("table").with_table_model(coarse),
      pipeline);
  EXPECT_NE(h_table, h_coarse);
  EXPECT_NE(h_closed, h_coarse);
}

TEST(ResultCache, BackendsNeverAliasUnderMixedRepeats) {
  // A mixed-backend repeat sweep: every backend's first pass must miss
  // (nothing replayed across backends), every repeat must hit within its
  // own backend, and the replays must be bit-identical per backend.
  OptContext ctx;
  ResultCache cache;

  auto run_once = [&](const std::string& model) {
    Optimizer opt(ctx, OptimizerConfig{}.with_delay_model(model), &cache);
    Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
    return opt.run_relative(nl, 0.85);
  };

  const PipelineReport cf1 = run_once("closed-form");
  EXPECT_EQ(cache.misses(), 1u);
  const PipelineReport tb1 = run_once("table");
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u) << "table run replayed a closed-form entry";

  const PipelineReport cf2 = run_once("closed-form");
  const PipelineReport tb2 = run_once("table");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_TRUE(cf2.from_cache);
  EXPECT_TRUE(tb2.from_cache);
  EXPECT_EQ(cf1.delay_model, "closed-form");
  EXPECT_EQ(tb1.delay_model, "table");
  EXPECT_EQ(cf1.final_delay_ps, cf2.final_delay_ps);
  EXPECT_EQ(tb1.final_delay_ps, tb2.final_delay_ps);
}

TEST(SweepService, MixedBackendSweepKeepsBackendsApart) {
  OptContext ctx;
  SweepService sweeps(ctx);

  SweepSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.tc_ratios = {0.85, 1.0};
  spec.n_threads = 1;

  auto run_model = [&](const std::string& model) {
    SweepSpec s = spec;
    s.base.delay_model = model;
    return sweeps.run(s, builtin_loader(ctx));
  };

  const service::SweepReport cf = run_model("closed-form");
  EXPECT_EQ(cf.cache_hits, 0u);
  EXPECT_EQ(cf.cache_misses, spec.n_jobs());

  const service::SweepReport tb = run_model("table");
  EXPECT_EQ(tb.cache_hits, 0u) << "table sweep aliased closed-form entries";
  EXPECT_EQ(tb.cache_misses, spec.n_jobs());
  for (const service::SweepPoint& p : tb.points)
    EXPECT_EQ(p.report.delay_model, "table");

  const service::SweepReport cf2 = run_model("closed-form");
  const service::SweepReport tb2 = run_model("table");
  EXPECT_EQ(cf2.cache_hits, spec.n_jobs());
  EXPECT_EQ(tb2.cache_hits, spec.n_jobs());
  for (std::size_t i = 0; i < tb.points.size(); ++i) {
    EXPECT_EQ(tb.points[i].report.final_delay_ps,
              tb2.points[i].report.final_delay_ps);
    EXPECT_EQ(cf.points[i].report.final_delay_ps,
              cf2.points[i].report.final_delay_ps);
  }
}

TEST(Serialize, ReportsCarryBackendIdentity) {
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
  Optimizer opt(ctx, OptimizerConfig{}.with_delay_model("table"));
  const util::Json j = service::to_json(opt.run_relative(nl, 0.9));
  ASSERT_NE(j.find("delay_model"), nullptr);
  EXPECT_EQ(j.find("delay_model")->dump(), "\"table\"");

  // delay_model and table_model are archived unconditionally: a
  // closed-form base can still carry a custom grid that a
  // --delay-model table run uses, and the dumped spec must reproduce it.
  for (const char* model : {"closed-form", "table"}) {
    const util::Json cfg_json =
        service::to_json(OptimizerConfig{}.with_delay_model(model));
    ASSERT_NE(cfg_json.find("delay_model"), nullptr) << model;
    ASSERT_NE(cfg_json.find("table_model"), nullptr) << model;
  }
}

// ---------------------------------------------------------------------------
// Spec-file input (sweep_spec_from_json / config_from_json)
// ---------------------------------------------------------------------------

TEST(SpecFromJson, FullSpecRoundTrips) {
  SweepSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.tc_ratios = {0.8, 0.95};
  spec.shield_margins = {1.0, 1.5};
  spec.policies = {service::buffer_policy("standard"),
                   service::buffer_policy("no-shield")};
  spec.pipeline = {"cancel-inverters", "protocol"};
  spec.n_threads = 2;
  spec.base.with_delay_model("table").with_max_rounds(4);

  const SweepSpec parsed =
      service::sweep_spec_from_json(service::to_json(spec));
  EXPECT_EQ(parsed.circuits, spec.circuits);
  EXPECT_EQ(parsed.tc_ratios, spec.tc_ratios);
  EXPECT_EQ(parsed.shield_margins, spec.shield_margins);
  ASSERT_EQ(parsed.policies.size(), 2u);
  EXPECT_EQ(parsed.policies[1].name, "no-shield");
  EXPECT_FALSE(parsed.policies[1].shielding);
  EXPECT_EQ(parsed.pipeline, spec.pipeline);
  EXPECT_EQ(parsed.n_threads, 2u);
  EXPECT_EQ(parsed.base.delay_model, "table");
  EXPECT_EQ(parsed.base.max_rounds, 4);
  EXPECT_EQ(parsed.base.table_model.slew_grid_ps,
            spec.base.table_model.slew_grid_ps);
  EXPECT_TRUE(parsed.validate().empty());
}

TEST(SpecFromJson, ExplicitlyEmptyPoliciesRejectedLikeOtherAxes) {
  // "policies": [] must flow into SweepSpec::validate ("policies is
  // empty"), not silently fall back to the default standard policy.
  const util::Json j = util::Json::parse(
      R"({"circuits": ["c17"], "tc_ratios": [0.9], "policies": []})");
  const SweepSpec spec = service::sweep_spec_from_json(j);
  EXPECT_TRUE(spec.policies.empty());
  EXPECT_THROW(spec.ensure_valid(), std::invalid_argument);
}

TEST(SpecFromJson, PolicyNamesResolve) {
  const util::Json j = util::Json::parse(
      R"({"circuits": ["c17"], "tc_ratios": [0.9],
          "policies": ["minimal", "standard"]})");
  const SweepSpec spec = service::sweep_spec_from_json(j);
  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[0].name, "minimal");
  EXPECT_FALSE(spec.policies[0].restructuring);
}

TEST(SpecFromJson, DiagnosticsListEveryProblem) {
  const util::Json j = util::Json::parse(
      R"({"circuits": [1], "tc_ratio": [0.9],
          "base": {"max_paths": "lots", "mystery": true}})");
  try {
    service::sweep_spec_from_json(j);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'circuits' must contain only strings"),
              std::string::npos);
    EXPECT_NE(msg.find("unknown sweep-spec key 'tc_ratio'"),
              std::string::npos);
    EXPECT_NE(msg.find("'max_paths' must be a number"), std::string::npos);
    EXPECT_NE(msg.find("unknown config key 'mystery'"), std::string::npos);
  }
}

TEST(SpecFromJson, OutOfRangeCountsDiagnosedNotCast) {
  // Counts beyond the integer range must produce diagnostics, never reach
  // the float->size_t cast (UB on out-of-range input from untrusted files).
  for (const char* bad : {"1e300", "-3", "2.5", "1e20"}) {
    const util::Json j = util::Json::parse(
        std::string(R"({"circuits": ["c17"], "tc_ratios": [0.9], )") +
        R"("n_threads": )" + bad + "}");
    EXPECT_THROW(service::sweep_spec_from_json(j), std::invalid_argument)
        << bad;
  }
  // max_rounds additionally narrows to int: values past INT_MAX must be
  // rejected, not wrapped into a wrong-but-positive round count.
  const util::Json j = util::Json::parse(
      R"({"circuits": ["c17"], "tc_ratios": [0.9],
          "base": {"max_rounds": 4294967297}})");
  EXPECT_THROW(service::sweep_spec_from_json(j), std::invalid_argument);
}

TEST(SpecFromJson, RetiredStaWorkerKeysLoadAndAreIgnored) {
  // Spec files from when STA sweeps could fan out over workers still
  // load, whatever the retired keys hold (0 used to fail validation), and
  // parse to the same spec as the file without them.
  const std::string head =
      R"({"circuits": ["c17"], "tc_ratios": [0.9], "base": {"max_paths": 8)";
  const SweepSpec plain =
      service::sweep_spec_from_json(util::Json::parse(head + "}}"));
  for (const char* workers : {"0", "1", "4"}) {
    const SweepSpec old = service::sweep_spec_from_json(util::Json::parse(
        head + R"(, "sta_workers": )" + workers +
        R"(, "sta_parallel_min_nodes": 0}})"));
    EXPECT_EQ(service::to_json(old).dump(), service::to_json(plain).dump())
        << workers;
    EXPECT_TRUE(old.validate().empty()) << workers;
  }
  // Neither key is written back out.
  const util::Json base = *service::to_json(plain).find("base");
  EXPECT_EQ(base.find("sta_workers"), nullptr);
  EXPECT_EQ(base.find("sta_parallel_min_nodes"), nullptr);
  EXPECT_EQ(base.find("max_paths")->dump(), "8");
}

TEST(SpecFromJson, ParsedSpecRunsEndToEnd) {
  const util::Json j = util::Json::parse(
      R"({"circuits": ["c17"], "tc_ratios": [0.9],
          "base": {"delay_model": "table"}})");
  SweepSpec spec = service::sweep_spec_from_json(j);
  OptContext ctx;
  SweepService sweeps(ctx);
  const service::SweepReport report = sweeps.run(spec, builtin_loader(ctx));
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_EQ(report.points[0].report.delay_model, "table");
}

}  // namespace
