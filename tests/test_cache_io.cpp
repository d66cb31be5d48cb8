// Persistence of ResultCache: full-fidelity JSON archives of netlists and
// reports (service/cache_io.hpp), and through the CacheJournal that
// carries them — checkpoint (compact) -> restart (open) -> replay
// bit-identical to the original run, stale-context rejection with
// diagnostics, per-record corruption skipping, deterministic compaction
// bytes, and the LRU capacity bound.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/service/cache_io.hpp"
#include "pops/service/cache_journal.hpp"
#include "pops/service/result_cache.hpp"
#include "pops/service/serialize.hpp"
#include "pops/util/hash.hpp"

namespace {

using namespace pops;
using api::OptContext;
using api::Optimizer;
using api::OptimizerConfig;
using api::PipelineReport;
using netlist::Netlist;
using service::CacheJournal;
using service::CacheLoadReport;
using service::ResultCache;
using util::Json;

void expect_same_netlist(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.fresh_counter(), b.fresh_counter());
  for (netlist::NodeId id = 0; id < static_cast<netlist::NodeId>(a.size());
       ++id) {
    const netlist::Node& na = a.node(id);
    const netlist::Node& nb = b.node(id);
    EXPECT_EQ(na.name, nb.name);
    EXPECT_EQ(na.is_input, nb.is_input);
    EXPECT_EQ(na.kind, nb.kind);
    EXPECT_EQ(na.fanins, nb.fanins);
    EXPECT_EQ(na.wn_um, nb.wn_um);  // bit-exact, not just close
    EXPECT_EQ(na.wire_cap_ff, nb.wire_cap_ff);
    EXPECT_EQ(na.is_output, nb.is_output);
    EXPECT_EQ(na.po_load_ff, nb.po_load_ff);
  }
}

// ----- netlist archive --------------------------------------------------------

TEST(CacheIo, NetlistRoundTripIsExact) {
  OptContext ctx;
  // An *optimized* netlist: buffer insertion re-points fanins at
  // later-appended nodes, the exact shape add_gate cannot replay.
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  Optimizer opt(ctx);
  opt.run_relative(nl, 0.75);

  const Json archived = service::archive_netlist(nl);
  const Netlist restored = service::restore_netlist(archived, ctx.lib());
  expect_same_netlist(nl, restored);
  EXPECT_EQ(ResultCache::hash_netlist(nl), ResultCache::hash_netlist(restored));
  // Serialization is deterministic: archiving the restored netlist gives
  // the same bytes.
  EXPECT_EQ(archived.dump(0), service::archive_netlist(restored).dump(0));
}

TEST(CacheIo, RestoreRejectsOutOfRangeIntegers) {
  // Every integer field is range-checked as a double before the cast: an
  // out-of-range double converted to int is undefined behaviour, and a
  // fraction or a negative count must not be truncated into a valid one.
  OptContext ctx;
  const Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
  const Json good = service::archive_netlist(nl);
  ASSERT_NO_THROW(service::restore_netlist(good, ctx.lib()));
  const std::size_t gate = nl.size() - 1;  // c17's last node is a gate
  ASSERT_FALSE(nl.node(static_cast<netlist::NodeId>(gate)).is_input);
  for (const double bad : {1e30, -5.5, -1.0, 0.5}) {
    Json j = good;
    j["fresh_counter"] = bad;
    EXPECT_THROW(service::restore_netlist(j, ctx.lib()), std::invalid_argument)
        << "fresh_counter " << bad;
  }
  for (const double bad : {1e30, -1.0, 1.5}) {
    Json j = good;
    j["nodes"].at(gate)["vt"] = bad;
    EXPECT_THROW(service::restore_netlist(j, ctx.lib()), std::invalid_argument)
        << "vt " << bad;
    j = good;
    j["nodes"].at(gate)["fanins"].at(0) = bad;
    EXPECT_THROW(service::restore_netlist(j, ctx.lib()), std::invalid_argument)
        << "fanin " << bad;
  }

  Netlist run = netlist::make_benchmark(ctx.lib(), "c17");
  const Json report =
      service::archive_report(Optimizer(ctx).run_relative(run, 0.9));
  ASSERT_NO_THROW(service::restore_report(report));
  for (const double bad : {-1.0, 2.5, 1e300}) {
    Json j = report;
    j["vt_mix"].at(0) = bad;
    EXPECT_THROW(service::restore_report(j), std::invalid_argument)
        << "vt_mix " << bad;
  }
}

TEST(CacheIo, RestoreNetlistRejectsCorruption) {
  OptContext ctx;
  const Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
  Json j = service::archive_netlist(nl);
  // Duplicate a node name.
  Json& nodes = j["nodes"];
  nodes.push_back(nodes.items().front());
  EXPECT_THROW(service::restore_netlist(j, ctx.lib()), std::invalid_argument);
}

// ----- report archive ---------------------------------------------------------

TEST(CacheIo, ReportRoundTripIsExact) {
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  Optimizer opt(ctx);
  // c432 meets 0.7x and looser without the protocol touching a path.
  const PipelineReport report = opt.run_relative(nl, 0.65);
  ASSERT_NE(report.protocol(), nullptr) << "fixture must exercise per-path "
                                           "protocol results";

  const Json archived = service::archive_report(report);
  const PipelineReport restored = service::restore_report(archived);

  // Field-by-field bit-exactness, including the per-path decisions.
  EXPECT_EQ(report.tc_ps, restored.tc_ps);
  EXPECT_EQ(report.initial_delay_ps, restored.initial_delay_ps);
  EXPECT_EQ(report.final_delay_ps, restored.final_delay_ps);
  EXPECT_EQ(report.initial_area_um, restored.initial_area_um);
  EXPECT_EQ(report.final_area_um, restored.final_area_um);
  EXPECT_EQ(report.met, restored.met);
  EXPECT_EQ(report.delay_model, restored.delay_model);
  ASSERT_EQ(report.passes.size(), restored.passes.size());
  for (std::size_t i = 0; i < report.passes.size(); ++i) {
    EXPECT_EQ(report.passes[i].pass_name, restored.passes[i].pass_name);
    EXPECT_EQ(report.passes[i].runtime_ms, restored.passes[i].runtime_ms);
    EXPECT_EQ(report.passes[i].circuit.has_value(),
              restored.passes[i].circuit.has_value());
  }
  const core::CircuitResult* orig = report.protocol();
  const core::CircuitResult* back = restored.protocol();
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(orig->rounds, back->rounds);
  EXPECT_EQ(orig->paths_optimized, back->paths_optimized);
  ASSERT_FALSE(orig->per_path.empty());
  ASSERT_EQ(orig->per_path.size(), back->per_path.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < orig->per_path.size(); ++i) {
    const core::PathDecision& a = orig->per_path[i];
    const core::PathDecision& b = back->per_path[i];
    EXPECT_EQ(a.domain, b.domain) << i;
    EXPECT_EQ(a.method, b.method) << i;
    EXPECT_EQ(bits(a.tmin_ps), bits(b.tmin_ps)) << i;
    EXPECT_EQ(bits(a.tmax_ps), bits(b.tmax_ps)) << i;
    EXPECT_EQ(bits(a.delay_ps), bits(b.delay_ps)) << i;
    EXPECT_EQ(bits(a.area_um), bits(b.area_um)) << i;
    EXPECT_EQ(a.buffers_inserted, b.buffers_inserted) << i;
    EXPECT_EQ(a.gates_restructured, b.gates_restructured) << i;
  }
  // The public JSON projection of both reports is byte-identical — what
  // sweep records and JSONL streams are made of.
  EXPECT_EQ(service::to_json(report).dump(0),
            service::to_json(restored).dump(0));
}

TEST(CacheIo, SizedPathRecordsRestoreAsDecisions) {
  // Format 2/3 archived each path as a whole sized path. The decision
  // keeps its delay and its total area, summed as total_area_um() did.
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  Json archived =
      service::archive_report(Optimizer(ctx).run_relative(nl, 0.65));
  Json* per_path = nullptr;
  for (std::size_t i = 0; i < archived["passes"].size(); ++i)
    if (Json* protocol = archived["passes"].at(i).find("protocol"))
      per_path = protocol->find("per_path");
  ASSERT_NE(per_path, nullptr);
  ASSERT_GT(per_path->size(), 0u);
  Json& record = per_path->at(0);
  Json legacy = Json::object();
  for (const char* key : {"domain", "method", "tmin_ps", "tmax_ps",
                          "buffers_inserted", "gates_restructured"})
    legacy[key] = *record.find(key);
  legacy["extra_area_um"] = 0.1;
  Json sizing = Json::object();
  sizing["delay_ps"] = 123.5;
  sizing["area_um"] = 0.2;
  sizing["a"] = "-inf";
  sizing["path"] = Json::object();  // never read
  legacy["sizing"] = std::move(sizing);
  record = std::move(legacy);

  const PipelineReport back = service::restore_report(archived);
  const core::PathDecision& d = back.protocol()->per_path.at(0);
  EXPECT_EQ(d.delay_ps, 123.5);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.area_um),
            std::bit_cast<std::uint64_t>(0.2 + 0.1));
}

// ----- persistence through the journal ---------------------------------------

/// One process's persistent cache: a fresh context and a cache journaled
/// to `path` (replayed on construction).
struct Journaled {
  explicit Journaled(const std::string& path, std::size_t capacity = 0)
      : cache(std::make_shared<ResultCache>(capacity)), journal(cache, path) {
    loaded = journal.open(ctx);
  }

  /// An Optimizer on this process's context, memoizing through its cache.
  Optimizer optimizer(OptimizerConfig cfg = {}) const {
    return Optimizer(ctx, std::move(cfg), cache.get());
  }

  OptContext ctx;
  std::shared_ptr<ResultCache> cache;
  CacheJournal journal;
  CacheLoadReport loaded;
};

std::string temp_path(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Run a two-circuit, two-Tc grid through `p`'s cache; returns the
/// reports in run order.
std::vector<PipelineReport> run_grid(const Journaled& p) {
  const Optimizer opt = p.optimizer();
  std::vector<PipelineReport> reports;
  for (const char* name : {"c17", "c432"}) {
    for (const double ratio : {0.8, 0.9}) {
      Netlist nl = netlist::make_benchmark(p.ctx.lib(), name);
      reports.push_back(opt.run_relative(nl, ratio));
    }
  }
  return reports;
}

TEST(CacheIo, SaveLoadReplayIsBitIdentical) {
  const std::string path = temp_path("pops_cache_io_replay.jnl");
  // Process A: run a grid, checkpoint (compact) the journal.
  std::vector<PipelineReport> fresh;
  std::string checkpoint;
  {
    Journaled a(path);
    fresh = run_grid(a);
    ASSERT_EQ(a.cache->size(), 4u);
    a.journal.compact();
    checkpoint = slurp(path);
  }

  // "Process B": a brand-new context + cache, warmed from the journal.
  Journaled b(path);
  EXPECT_EQ(b.loaded.entries_loaded, 4u);
  EXPECT_GT(b.loaded.initial_delays_loaded, 0u);
  EXPECT_TRUE(b.loaded.problems.empty()) << b.loaded.problems.front();

  // The same grid replays entirely from cache, bit-identically.
  const std::vector<PipelineReport> replayed = run_grid(b);
  EXPECT_EQ(b.cache->hits(), 4u);
  EXPECT_EQ(b.cache->misses(), 0u);
  ASSERT_EQ(fresh.size(), replayed.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_TRUE(replayed[i].from_cache) << i;
    PipelineReport expect = fresh[i];
    // from_cache is the only field allowed to differ.
    expect.from_cache = replayed[i].from_cache;
    EXPECT_EQ(service::to_json(expect).dump(0),
              service::to_json(replayed[i]).dump(0))
        << i;
  }

  // Determinism: checkpointing the replayed cache reproduces the bytes.
  b.journal.compact();
  EXPECT_EQ(checkpoint, slurp(path));
  b.journal.close();
  std::remove(path.c_str());
}

TEST(CacheIo, LoadRejectsStaleContextWithDiagnostics) {
  const std::string path = temp_path("pops_cache_io_stale.jnl");
  {
    Journaled a(path);
    Netlist nl = netlist::make_benchmark(a.ctx.lib(), "c17");
    a.optimizer().run_relative(nl, 0.9);
  }

  // A context with a different RNG seed is a different characterization:
  // its results would not replay bit-identically.
  OptContext other(process::Technology::cmos025(), core::FlimitOptions{},
                   /*rng_seed=*/99);
  auto fresh = std::make_shared<ResultCache>();
  CacheJournal journal(fresh, path);
  try {
    journal.open(other);
    FAIL() << "expected stale-context rejection";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("different context characterization"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("rng_seed"), std::string::npos) << msg;
  }
  EXPECT_EQ(fresh->size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheIo, LoadRejectsWrongFormatAndVersion) {
  const std::string path = temp_path("pops_cache_io_version.jnl");
  {
    Journaled a(path);  // a valid, empty journal: just the header line
  }
  const std::string header = slurp(path);
  const std::string current = "\"version\":4";
  ASSERT_NE(header.find(current), std::string::npos) << header;

  const auto opens = [&path](const std::string& text) {
    write_file(path, text);
    OptContext ctx;
    CacheJournal journal(std::make_shared<ResultCache>(), path);
    journal.open(ctx);
  };
  EXPECT_THROW(opens("{}\n"), std::invalid_argument);
  EXPECT_THROW(opens("{\"format\":\"other\"}\n"), std::invalid_argument);
  for (const char* version : {"\"version\":1", "\"version\":999"}) {
    std::string text = header;
    text.replace(text.find(current), current.size(), version);
    EXPECT_THROW(opens(text), std::invalid_argument) << version;
  }
  EXPECT_NO_THROW(opens(header));
  std::remove(path.c_str());
}

TEST(CacheIo, CorruptEntriesAreSkippedWithDiagnostics) {
  const std::string path = temp_path("pops_cache_io_corrupt.jnl");
  {
    Journaled a(path);
    run_grid(a);
  }

  // Corrupt the first entry's integrity hash: its netlist no longer
  // matches, so replay must skip exactly that record.
  std::string text = slurp(path);
  const std::string field = "\"netlist_hash\":\"";
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  text.replace(at + field.size(), 16, "00000000deadbeef");
  write_file(path, text);

  Journaled b(path);
  EXPECT_EQ(b.loaded.entries_loaded, 3u);
  ASSERT_EQ(b.loaded.problems.size(), 1u);
  EXPECT_NE(b.loaded.problems[0].find("integrity"), std::string::npos)
      << b.loaded.problems[0];
  EXPECT_EQ(b.cache->size(), 3u);
  b.journal.close();
  std::remove(path.c_str());
}

TEST(CacheIo, NonFiniteReportFieldsSurviveTheRoundTrip) {
  // JSON numbers cannot carry non-finite values — a naive archive writes
  // null and the record would be skipped on every replay, silently
  // defeating persistence for those points. Plant inf, -inf and NaN in a
  // per-path decision and in the power section.
  OptContext ctx;
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
  PipelineReport fresh = Optimizer(ctx).run_relative(nl, 0.7);
  core::CircuitResult* protocol = nullptr;
  for (api::PassReport& p : fresh.passes)
    if (p.circuit) protocol = &*p.circuit;
  ASSERT_NE(protocol, nullptr);
  ASSERT_GE(protocol->per_path.size(), 2u);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  protocol->per_path[0].tmax_ps = kInf;
  protocol->per_path[0].delay_ps = -kInf;
  protocol->per_path[1].delay_ps = kNaN;
  fresh.power.leakage_uw = -kInf;
  fresh.power.total_uw = kNaN;

  // Through the text form, exactly as a journal record carries it.
  const std::string text = service::archive_report(fresh).dump(0);
  for (const char* spelling : {"\"inf\"", "\"-inf\"", "\"nan\""})
    EXPECT_NE(text.find(spelling), std::string::npos) << spelling;
  const PipelineReport back = service::restore_report(Json::parse(text));
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const core::CircuitResult* restored = back.protocol();
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(protocol->per_path.size(), restored->per_path.size());
  for (std::size_t i = 0; i < protocol->per_path.size(); ++i) {
    EXPECT_EQ(bits(protocol->per_path[i].tmax_ps),
              bits(restored->per_path[i].tmax_ps))
        << i;
    EXPECT_EQ(bits(protocol->per_path[i].delay_ps),
              bits(restored->per_path[i].delay_ps))
        << i;
  }
  EXPECT_EQ(bits(fresh.power.leakage_uw), bits(back.power.leakage_uw));
  EXPECT_EQ(bits(fresh.power.total_uw), bits(back.power.total_uw));
  EXPECT_EQ(text, service::archive_report(back).dump(0));
}

TEST(CacheIo, FileRoundTrip) {
  const std::string path = temp_path("pops_cache_io_file.jnl");
  // Every context over one technology builds on the same interned library.
  Netlist nl = netlist::make_benchmark(OptContext().lib(), "c17");
  PipelineReport fresh;
  {
    Journaled a(path);
    fresh = a.optimizer().run_relative(nl, 0.85);
  }

  Journaled b(path);
  EXPECT_EQ(b.loaded.entries_loaded, 1u);
  Netlist nl2 = netlist::make_benchmark(b.ctx.lib(), "c17");
  const PipelineReport replay = b.optimizer().run_relative(nl2, 0.85);
  EXPECT_TRUE(replay.from_cache);
  EXPECT_EQ(fresh.final_delay_ps, replay.final_delay_ps);
  expect_same_netlist(nl, nl2);
  b.journal.close();
  std::remove(path.c_str());
}

TEST(CacheIo, MissingFileThrowsRuntimeError) {
  // A missing journal is a cold start; an unwritable location is an error.
  OptContext ctx;
  CacheJournal journal(std::make_shared<ResultCache>(),
                       "/nonexistent/pops-cache.jnl");
  EXPECT_THROW(journal.open(ctx), std::runtime_error);
}

// ----- foreign-backend entries ------------------------------------------------

TEST(CacheIo, ForeignBackendEntriesNeverAliasAfterLoad) {
  // Persist a cache whose single entry was computed under the table
  // backend.
  const std::string path = temp_path("pops_cache_io_backend.jnl");
  OptimizerConfig table_cfg;
  table_cfg.delay_model = "table";
  PipelineReport table_fresh;
  {
    Journaled a(path);
    Netlist nl = netlist::make_benchmark(a.ctx.lib(), "c17");
    table_fresh = a.optimizer(table_cfg).run_relative(nl, 0.9);
    EXPECT_EQ(table_fresh.delay_model, "table");
  }
  // The archived report records which backend produced it.
  EXPECT_NE(slurp(path).find("\"delay_model\":\"table\""), std::string::npos);

  Journaled b(path);
  EXPECT_EQ(b.loaded.entries_loaded, 1u);

  // A closed-form run of the same point must MISS (recompute under its own
  // backend), not replay the table entry.
  Netlist cf_nl = netlist::make_benchmark(b.ctx.lib(), "c17");
  const PipelineReport cf = b.optimizer().run_relative(cf_nl, 0.9);
  EXPECT_FALSE(cf.from_cache);
  EXPECT_EQ(cf.delay_model, "closed-form");

  // The table run under the replayed cache hits the persisted entry.
  Netlist table_nl = netlist::make_benchmark(b.ctx.lib(), "c17");
  const PipelineReport table_replay =
      b.optimizer(table_cfg).run_relative(table_nl, 0.9);
  EXPECT_TRUE(table_replay.from_cache);
  EXPECT_EQ(table_replay.delay_model, "table");
  EXPECT_EQ(table_fresh.final_delay_ps, table_replay.final_delay_ps);
  b.journal.close();
  std::remove(path.c_str());
}

// ----- LRU bound --------------------------------------------------------------

TEST(ResultCacheLru, EvictsLeastRecentlyUsed) {
  OptContext ctx;
  ResultCache cache(/*capacity=*/2);
  Optimizer opt(ctx, {}, &cache);

  auto run_point = [&](double ratio) {
    Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
    return opt.run_relative(nl, ratio);
  };

  run_point(0.80);  // A
  run_point(0.90);  // B
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  run_point(0.80);  // touch A: B becomes least-recent
  run_point(0.95);  // C -> evicts B
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  EXPECT_TRUE(run_point(0.80).from_cache);   // A survived
  EXPECT_TRUE(run_point(0.95).from_cache);   // C resident
  EXPECT_FALSE(run_point(0.90).from_cache);  // B was evicted, recomputed
}

TEST(ResultCacheLru, UnboundedByDefaultAndShrinkEvicts) {
  ResultCache cache;
  EXPECT_EQ(cache.capacity(), 0u);
  EXPECT_EQ(cache.stats().capacity, 0u);

  OptContext ctx;
  Optimizer opt(ctx, {}, &cache);
  for (const double ratio : {0.8, 0.85, 0.9, 0.95}) {
    Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
    opt.run_relative(nl, ratio);
  }
  EXPECT_EQ(cache.size(), 4u);

  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 3u);
  // The survivor is the most recently used point.
  Netlist nl = netlist::make_benchmark(ctx.lib(), "c17");
  EXPECT_TRUE(opt.run_relative(nl, 0.95).from_cache);
}

TEST(ResultCacheLru, EvictedEntriesPersistNothing) {
  // A checkpoint only keeps *resident* entries: what was evicted is gone.
  const std::string path = temp_path("pops_cache_io_lru.jnl");
  Journaled a(path, /*capacity=*/1);
  const Optimizer opt = a.optimizer();
  for (const double ratio : {0.8, 0.9}) {
    Netlist nl = netlist::make_benchmark(a.ctx.lib(), "c17");
    opt.run_relative(nl, ratio);
  }
  a.journal.compact();
  const std::string text = slurp(path);
  std::size_t entries = 0;
  for (std::size_t at = text.find("\"kind\":\"entry\"");
       at != std::string::npos;
       at = text.find("\"kind\":\"entry\"", at + 1))
    ++entries;
  EXPECT_EQ(entries, 1u);
  a.journal.close();
  std::remove(path.c_str());
}

// ----- hex helpers ------------------------------------------------------------

TEST(HexU64, RoundTripAndRejection) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xffffffffffffffffull},
        std::uint64_t{0x0123456789abcdefull}}) {
    std::uint64_t back = 1;
    EXPECT_TRUE(util::parse_hex_u64(util::hex_u64(v), back));
    EXPECT_EQ(v, back);
  }
  EXPECT_EQ(util::hex_u64(0xff), "00000000000000ff");
  std::uint64_t out = 0;
  EXPECT_FALSE(util::parse_hex_u64("", out));
  EXPECT_FALSE(util::parse_hex_u64("xyz", out));
  EXPECT_FALSE(util::parse_hex_u64("00000000000000000", out));  // 17 digits
  EXPECT_TRUE(util::parse_hex_u64("FF", out));
  EXPECT_EQ(out, 0xffu);
}

}  // namespace
