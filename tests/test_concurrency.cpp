// Concurrency stress suites for the shared sweep stack. These run in the
// default build (plain interleaving stress + invariant checks) and,
// more importantly, under ThreadSanitizer in the POPS_TSAN CI job, where
// any unsynchronized access they provoke is a hard failure. Surfaces:
// the shared ResultCache (lookup/insert/evict at small capacity, the
// initial-delay memo, stats/capacity/visitation admin), PassRegistry
// register-vs-make, Optimizer::run_many under cross-thread contention
// and concurrent batches on the shared pool, closed-form and table
// Optimizers constructed and run concurrently on one context, and
// a SweepServer handling concurrent sweeps with per-sweep
// checkpointing.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/net/client.hpp"
#include "pops/net/server.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/service/result_cache.hpp"
#include "pops/service/sweep.hpp"
#include "pops/util/json.hpp"

namespace {

using namespace pops;

// ----- ResultCache: concurrent lookup / insert / evict ------------------------

TEST(ConcurrencyTest, ResultCacheLookupInsertEvictStress) {
  api::OptContext ctx;
  const netlist::Netlist proto = netlist::make_benchmark(ctx.lib(), "c17");
  const api::PipelineReport proto_report;

  service::ResultCache cache(/*capacity=*/4);
  // circuit_hash varies too: the initial-delay memo keys on the tc-less
  // half of the key (tc_bits ignored), so distinct memo slots need
  // distinct content hashes.
  const auto key_for = [](std::uint64_t i) {
    api::ResultCacheKey key;
    key.circuit_hash = 0x1234 + i;
    key.config_hash = 0x5678;
    key.tc_bits = std::bit_cast<std::uint64_t>(100.0 + double(i));
    return key;
  };

  constexpr int kIters = 400;
  constexpr std::uint64_t kKeySpace = 16;

  std::vector<std::thread> threads;
  // Two writers storing overlapping key ranges (first-writer-wins paths)
  // plus the initial-delay memo.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t k = (std::uint64_t(i) + 5u * w) % kKeySpace;
        cache.store(key_for(k), proto, proto_report);
        cache.store_initial_delay(key_for(k), 42.0 + double(k));
      }
    });
  }
  // A reader hammering lookups (hit copies proceed outside the lock
  // while evictions race) and the memo.
  threads.emplace_back([&] {
    netlist::Netlist scratch = proto;
    api::PipelineReport report;
    for (int i = 0; i < kIters; ++i) {
      const std::uint64_t k = std::uint64_t(i) % kKeySpace;
      if (cache.lookup(key_for(k), scratch, report)) {
        EXPECT_EQ(scratch.size(), proto.size());
      }
      const auto memo = cache.initial_delay_ps(key_for(k));
      if (memo) {
        EXPECT_EQ(*memo, 42.0 + double(k));
      }
    }
  });
  // Admin churn: stats, capacity changes (shrink evicts immediately),
  // and full-snapshot visitation concurrent with everything above.
  threads.emplace_back([&] {
    for (int i = 0; i < kIters / 4; ++i) {
      cache.set_capacity(i % 2 == 0 ? 2 : 6);
      const service::ResultCache::Stats s = cache.stats();
      EXPECT_LE(s.entries, 6u);
      std::size_t visited = 0;
      cache.for_each_entry([&](const api::ResultCacheKey&,
                               const netlist::Netlist& nl,
                               const api::PipelineReport&) {
        EXPECT_EQ(nl.size(), proto.size());
        ++visited;
      });
      EXPECT_LE(visited, 6u);
      cache.for_each_initial_delay(
          [&](const api::ResultCacheKey&, double d) { EXPECT_GE(d, 42.0); });
    }
  });
  for (std::thread& t : threads) t.join();

  const service::ResultCache::Stats s = cache.stats();
  EXPECT_LE(s.entries, cache.capacity());
  EXPECT_EQ(s.capacity, cache.capacity());
  EXPECT_GT(s.evictions, 0u);
}

// ----- PassRegistry: concurrent register / create -----------------------------

class NamedNopPass final : public api::Pass {
 public:
  explicit NamedNopPass(std::string name) : name_(std::move(name)) {}
  std::string_view name() const noexcept override { return name_; }
  void run(netlist::Netlist&, const api::OptContext&,
           const api::OptimizerConfig&, double, api::PassReport&,
           timing::IncrementalSta&) const override {}

 private:
  std::string name_;
};

TEST(ConcurrencyTest, RegistryConcurrentRegisterAndMake) {
  api::PassRegistry reg;  // local instance: the global registry is shared
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string name =
            "stress-t" + std::to_string(t) + "-p" + std::to_string(i);
        reg.register_pass(
            name, [name] { return std::make_unique<NamedNopPass>(name); });
        // Interleave reads and instantiation against other registrars.
        EXPECT_TRUE(reg.contains(name));
        EXPECT_TRUE(reg.contains("protocol"));
        EXPECT_EQ(reg.create(name)->name(), name);
        api::PassPipeline p = reg.make_pipeline({"shield", name, "protocol"});
        EXPECT_EQ(p.size(), 3u);
        EXPECT_GE(reg.names().size(), 5u);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(reg.names().size(), 5u + kThreads * kPerThread);
  // Duplicate registration still throws after the stampede.
  EXPECT_THROW(reg.register_pass(
                   "stress-t0-p0",
                   [] { return std::make_unique<NamedNopPass>("x"); }),
               std::invalid_argument);
}

// ----- run_many under cross-thread contention ---------------------------------

TEST(ConcurrencyTest, RunManyUnderContention) {
  api::OptContext ctx;
  service::ResultCache cache;
  api::Optimizer opt(ctx, {}, &cache);

  const std::vector<std::string> names = {"c17", "c432"};
  constexpr int kThreads = 3;
  constexpr int kRounds = 2;

  std::vector<std::vector<api::PipelineReport>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<netlist::Netlist> circuits;
        for (const std::string& name : names)
          circuits.push_back(netlist::make_benchmark(ctx.lib(), name));
        results[t] =
            opt.run_many_relative(circuits, 0.9, /*n_threads=*/2);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every thread raced the same shared cache (stores are first-writer-
  // wins, replays bit-identical), so all reports must agree bitwise.
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), results[0].size());
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(results[t][i].final_delay_ps),
                std::bit_cast<std::uint64_t>(results[0][i].final_delay_ps));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(results[t][i].final_area_um),
                std::bit_cast<std::uint64_t>(results[0][i].final_area_um));
      EXPECT_EQ(results[t][i].met, results[0][i].met);
    }
  }
  EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);
}

// ----- mixed-backend Optimizers on one context -------------------------------

/// The bits a point's result is judged by: final delay/area/power and the
/// optimized netlist's content hash.
std::vector<std::uint64_t> result_bits(const netlist::Netlist& nl,
                                       const api::PipelineReport& r) {
  return {std::bit_cast<std::uint64_t>(r.final_delay_ps),
          std::bit_cast<std::uint64_t>(r.final_area_um),
          std::bit_cast<std::uint64_t>(r.power.total_uw),
          service::ResultCache::hash_netlist(nl)};
}

TEST(ConcurrencyTest, ConcurrentOptimizerConstructionOnSharedContext) {
  // Closed-form and table Optimizers are constructed and run interleaved
  // from two threads on ONE context. Backends are resolved once and never
  // swapped, and Flimit slots fill idempotently, so every result must be
  // bit-identical to the same run on a context of its own.
  const api::OptimizerConfig closed_form;
  const api::OptimizerConfig table =
      api::OptimizerConfig{}.with_delay_model("table");
  const auto dedicated = [](const api::OptimizerConfig& cfg) {
    api::OptContext own;
    netlist::Netlist nl = netlist::make_benchmark(own.lib(), "c432");
    const api::PipelineReport r =
        api::Optimizer(own, cfg).run_relative(nl, 0.9);
    return result_bits(nl, r);
  };
  const std::vector<std::uint64_t> want[2] = {dedicated(closed_form),
                                              dedicated(table)};
  ASSERT_NE(want[0], want[1]) << "the two backends must be distinguishable";

  api::OptContext shared;  // cold: the threads race the first Flimit fills
  constexpr int kThreads = 2;
  constexpr int kIters = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int backend = (i + t) % 2;
        const api::Optimizer opt(shared, backend == 0 ? closed_form : table);
        netlist::Netlist nl = netlist::make_benchmark(shared.lib(), "c432");
        const api::PipelineReport r = opt.run_relative(nl, 0.9);
        EXPECT_EQ(r.delay_model, backend == 0 ? "closed-form" : "table");
        EXPECT_EQ(result_bits(nl, r), want[backend])
            << "thread " << t << " iteration " << i;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// ----- run_many batches sharing the pool ---------------------------------------

// run_many's workers are chunks of util::ThreadPool::global(). A batch
// must not move a bit at any thread count, also while a second batch from
// another thread shares the pool.
TEST(ConcurrencyTest, RunManySharesThePoolBitIdentically) {
  api::OptContext ctx;
  // No shield pass: it dominates the run time.
  const api::Optimizer opt(ctx, api::OptimizerConfig{}.with_shielding(false));
  const auto run = [&](std::size_t n_threads) {
    std::vector<netlist::Netlist> batch;
    for (std::uint64_t i = 0; i < 4; ++i) {
      netlist::BenchmarkSpec spec;
      spec.name = "nest" + std::to_string(i);
      spec.n_gates = 3000;
      spec.n_pi = 64;
      spec.n_po = 32;
      spec.path_depth = 16;
      spec.seed = 0x9E57u + i;
      batch.push_back(netlist::make_synthetic(ctx.lib(), spec));
    }
    const std::vector<api::PipelineReport> reports =
        opt.run_many_relative(batch, 0.9, n_threads);
    std::vector<std::vector<std::uint64_t>> bits;
    for (std::size_t i = 0; i < batch.size(); ++i)
      bits.push_back(result_bits(batch[i], reports[i]));
    return bits;
  };

  const std::vector<std::vector<std::uint64_t>> want = run(1);
  std::vector<std::vector<std::uint64_t>> other;
  std::thread second([&] { other = run(4); });
  const std::vector<std::vector<std::uint64_t>> got = run(4);
  second.join();
  EXPECT_EQ(got, want);
  EXPECT_EQ(other, want);
}

// ----- SweepServer: concurrent sweeps + checkpointing + stats -----------------

TEST(ConcurrencyTest, ServerConcurrentSweepsWithCheckpointing) {
  const std::string cache_file =
      testing::TempDir() + "/pops_concurrency_cache.bin";
  std::filesystem::remove(cache_file);

  net::SweepServerOptions sopt;
  sopt.cache_file = cache_file;
  sopt.checkpoint_every = 1;  // checkpoint after EVERY sweep
  sopt.n_threads = 2;
  net::SweepServer server(sopt);
  server.start();

  service::SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.85, 0.95};
  spec.n_threads = 2;
  const std::size_t points_per_sweep = spec.n_jobs();

  constexpr int kClients = 3;
  constexpr int kSweepsPerClient = 2;
  std::atomic<bool> done{false};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      net::SweepClient client("127.0.0.1", server.port());
      for (int s = 0; s < kSweepsPerClient; ++s) {
        std::size_t streamed = 0;
        const net::SweepSummary summary = client.submit(
            spec, [&](const util::Json&, const std::string&) { ++streamed; });
        EXPECT_EQ(streamed, points_per_sweep);
        EXPECT_EQ(summary.points, points_per_sweep);
      }
    });
  }
  // A control client hammering stats and save ops mid-sweep. Every
  // stats reply must be internally consistent: the sweeps/points pair
  // is published together with the cache counters, so points always
  // equals sweeps x points_per_sweep and cache traffic never lags the
  // counted points.
  std::thread control([&] {
    net::SweepClient client("127.0.0.1", server.port());
    while (!done.load(std::memory_order_acquire)) {
      const util::Json stats = client.server_stats();
      const std::size_t sweeps = std::size_t(stats.find("sweeps")->as_number());
      const std::size_t points = std::size_t(stats.find("points")->as_number());
      EXPECT_EQ(points, sweeps * points_per_sweep);
      const util::Json& cache = *stats.find("cache");
      const std::size_t hits = std::size_t(cache.find("hits")->as_number());
      const std::size_t misses = std::size_t(cache.find("misses")->as_number());
      EXPECT_GE(hits + misses, points);
      client.save();
      client.ping();
    }
  });

  for (std::thread& t : clients) t.join();
  done.store(true, std::memory_order_release);
  control.join();

  const net::SweepServerStats final_stats = server.stats();
  EXPECT_EQ(final_stats.sweeps, std::size_t(kClients * kSweepsPerClient));
  EXPECT_EQ(final_stats.points,
            std::size_t(kClients * kSweepsPerClient) * points_per_sweep);
  EXPECT_EQ(final_stats.errors, 0u);
  // One compute, the rest replays (exact split depends on interleaving).
  EXPECT_GE(final_stats.cache.hits, 1u);
  EXPECT_GE(final_stats.cache.entries, points_per_sweep);

  server.stop();
  EXPECT_TRUE(std::filesystem::exists(cache_file));
  std::filesystem::remove(cache_file);
}

}  // namespace
