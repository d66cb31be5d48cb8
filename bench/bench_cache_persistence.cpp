// Extension — cost of the persistent result cache and the serving path.
//
// The pops::net daemon keeps its ResultCache warm across restarts through
// an append-only CacheJournal: every entry (optimized netlist + full
// report) is appended as it is stored. Three numbers decide whether that
// is viable operationally:
//
//  1. Checkpoint cost — how long does a journal compaction (the
//     snapshot: rewrite from the live cache) take per entry / per byte?
//  2. Restart cost — how long does opening the journal (parse + rebuild +
//     integrity check) take relative to recomputing the entries?
//  3. Replay speedup — warm-cache lookup vs fresh optimization, the
//     number the whole subsystem exists for.
//
// Emits BENCH_cache_persistence.json for cross-PR perf tracking.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "common.hpp"
#include "pops/service/cache_journal.hpp"
#include "pops/service/result_cache.hpp"
#include "pops/util/json.hpp"

namespace {

using namespace pops;
using namespace bench_common;
using api::Optimizer;
using service::CacheJournal;
using service::ResultCache;

/// Fill `cache` by sweeping `circuits` over `ratios`; returns ms spent.
double fill_cache(const api::OptContext& ctx, ResultCache& cache,
                  const std::vector<std::string>& circuits,
                  const std::vector<double>& ratios) {
  return time_ms([&] {
    Optimizer opt(ctx, {}, &cache);
    for (const std::string& name : circuits) {
      for (const double ratio : ratios) {
        Netlist nl = netlist::make_benchmark(ctx.lib(), name);
        opt.run_relative(nl, ratio);
      }
    }
  });
}

void run(util::Json& doc) {
  print_header(
      "Extension — persistent ResultCache: checkpoint, restart, replay",
      "warm restarts replay sweeps at lookup cost; checkpointing stays "
      "cheap relative to the optimization it memoizes");

  const std::vector<std::string> circuits = {"c17", "c432", "c880", "c1355"};
  const std::vector<double> ratios = {0.75, 0.85, 0.95};

  const std::string path =
      (std::filesystem::temp_directory_path() / "pops_bench_cache.jnl")
          .string();
  std::filesystem::remove(path);

  api::OptContext ctx;
  auto cache = std::make_shared<ResultCache>();
  CacheJournal journal(cache, path);
  journal.open(ctx);
  const double fresh_ms = fill_cache(ctx, *cache, circuits, ratios);
  const std::size_t entries = cache->size();

  const double save_ms = time_ms([&] { journal.compact(); });
  journal.close();
  const std::size_t bytes = std::filesystem::file_size(path);

  api::OptContext ctx2;
  auto warmed = std::make_shared<ResultCache>();
  CacheJournal restarted(warmed, path);
  service::CacheLoadReport loaded;
  const double load_ms = time_ms([&] { loaded = restarted.open(ctx2); });

  const double replay_ms = fill_cache(ctx2, *warmed, circuits, ratios);
  const ResultCache::Stats stats = warmed->stats();

  util::Table t({"stage", "ms", "notes"});
  t.set_align(1, util::Align::Right);
  t.add_row({"fresh sweep", util::Json::number_to_string(fresh_ms),
             std::to_string(entries) + " points computed"});
  t.add_row({"checkpoint (compact)", util::Json::number_to_string(save_ms),
             std::to_string(bytes) + " bytes"});
  t.add_row({"restart (open+replay)", util::Json::number_to_string(load_ms),
             std::to_string(loaded.entries_loaded) + " entries restored"});
  t.add_row({"warm replay", util::Json::number_to_string(replay_ms),
             std::to_string(stats.hits) + " hits / " +
                 std::to_string(stats.misses) + " misses"});
  std::printf("%s", t.str().c_str());
  std::printf("\nspeedup fresh/replay: %.1fx; checkpoint cost %.1f%% of a "
              "fresh sweep\n",
              replay_ms > 0 ? fresh_ms / replay_ms : 0.0,
              fresh_ms > 0 ? 100.0 * save_ms / fresh_ms : 0.0);

  doc["entries"] = entries;
  doc["bytes"] = bytes;
  doc["fresh_ms"] = fresh_ms;
  doc["save_ms"] = save_ms;
  doc["load_ms"] = load_ms;
  doc["replay_ms"] = replay_ms;
  doc["replay_hits"] = stats.hits;
  doc["replay_misses"] = stats.misses;
  restarted.close();
  std::filesystem::remove(path);
}

}  // namespace

int main(int argc, char** argv) {
  util::Json doc = util::Json::object();
  doc["bench"] = "cache_persistence";
  run(doc);
  return bench_common::write_bench_json(argc, argv, "cache_persistence", doc);
}
