// CacheJournal: append-only ResultCache persistence. The contract under
// test is crash recovery — a journal torn at ANY byte offset loses at
// most the final partial record: a truncated tail and a stale
// mid-compaction temp file must both replay every durable entry, with a
// per-record diagnostic for the skipped garbage, and the replayed cache
// must serve the original sweep bit-identically (all hits, exact record
// bytes). Plus the compaction bound: after compact(), the file holds the
// live entries and one header line, nothing else.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/netlist/bench_io.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/service/cache_journal.hpp"
#include "pops/service/result_cache.hpp"
#include "pops/service/serialize.hpp"
#include "pops/service/sweep.hpp"

namespace {

using namespace pops;
using service::CacheJournal;
using service::CacheLoadReport;
using service::ResultCache;
using service::SweepSpec;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.8, 0.9};
  spec.n_threads = 1;
  return spec;
}

/// One single-context "worker": a fresh OptContext and a journaled
/// cache. Runs the spec and returns the deterministic record bytes.
struct Worker {
  explicit Worker(const std::string& path,
                  CacheJournal::Options opt = CacheJournal::Options(),
                  std::size_t capacity = 0)
      : cache(std::make_shared<ResultCache>(capacity)),
        journal(cache, path, opt) {
    loaded = journal.open(ctx);
  }

  std::vector<std::string> run(const SweepSpec& spec) {
    service::SweepService sweeps(ctx, cache);
    std::vector<std::string> records;
    sweeps.run(
        spec,
        [this](const std::string& name) {
          return netlist::make_benchmark(ctx.lib(), name);
        },
        [&records](const service::SweepPoint& point) {
          records.push_back(
              service::to_json(point, {.measured = false}).dump(0));
        });
    return records;
  }

  api::OptContext ctx;
  std::shared_ptr<ResultCache> cache;
  CacheJournal journal;
  CacheLoadReport loaded;
};

std::string temp_journal(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".compact.tmp").c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text)
    if (c == '\n') ++n;
  return n;
}

TEST(CacheJournal, ReplayRoundTripIsBitIdenticalAndAllHits) {
  const std::string path = temp_journal("journal_roundtrip.jnl");
  const SweepSpec spec = small_spec();

  std::vector<std::string> cold;
  {
    Worker w(path);
    EXPECT_EQ(w.loaded.entries_loaded, 0u);
    cold = w.run(spec);
    EXPECT_EQ(w.cache->misses(), 2u);
    EXPECT_GE(w.journal.stats().appends, 2u);
    w.journal.close();
  }

  Worker warm(path);
  EXPECT_EQ(warm.loaded.entries_loaded, 2u);
  EXPECT_TRUE(warm.loaded.problems.empty());
  const std::vector<std::string> replayed = warm.run(spec);
  // Every point replays from the journaled cache, and the record bytes —
  // a pure function of the spec — are exactly the cold run's.
  EXPECT_EQ(warm.cache->hits(), 2u);
  EXPECT_EQ(warm.cache->misses(), 0u);
  ASSERT_EQ(replayed.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(replayed[i], cold[i]) << i;
  std::remove(path.c_str());
}

TEST(CacheJournal, TruncatedTailLosesOnlyTheTornRecord) {
  const std::string path = temp_journal("journal_truncated.jnl");
  const SweepSpec spec = small_spec();
  std::vector<std::string> cold;
  {
    Worker w(path);
    cold = w.run(spec);
    w.journal.close();
  }

  // Tear the file mid-way through its final record — a crash between
  // write() and the flush boundary.
  const std::string full = slurp(path);
  const std::size_t durable_lines = count_lines(full);
  ASSERT_GE(durable_lines, 3u);  // header + >= 2 records
  const std::size_t last_start = full.rfind('\n', full.size() - 2) + 1;
  const std::size_t cut = last_start + (full.size() - last_start) / 2;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(cut));
  }

  Worker recovered(path);
  // Every record before the tear is recovered; the torn one is skipped
  // with a line-numbered diagnostic, not a fatal error.
  EXPECT_EQ(recovered.loaded.entries_loaded +
                recovered.loaded.initial_delays_loaded,
            durable_lines - 2);  // minus header, minus the torn record
  ASSERT_EQ(recovered.loaded.problems.size(), 1u);
  EXPECT_NE(recovered.loaded.problems[0].find(
                "line " + std::to_string(durable_lines)),
            std::string::npos);
  EXPECT_NE(recovered.loaded.problems[0].find("skipped"), std::string::npos);

  // The sweep completes bit-identically (the lost point recomputes) and
  // re-journals; a THIRD generation then replays everything — proving the
  // append stream did not glue new records onto the torn bytes.
  const std::vector<std::string> rerun = recovered.run(spec);
  ASSERT_EQ(rerun.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(rerun[i], cold[i]) << i;
  recovered.journal.close();

  Worker third(path);
  EXPECT_EQ(third.loaded.entries_loaded, 2u);
  EXPECT_TRUE(third.loaded.problems.empty());
  const std::vector<std::string> warm = third.run(spec);
  EXPECT_EQ(third.cache->hits(), 2u);
  EXPECT_EQ(third.cache->misses(), 0u);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(warm[i], cold[i]) << i;
  std::remove(path.c_str());
}

TEST(CacheJournal, StaleMidCompactionTempIsDiscarded) {
  const std::string path = temp_journal("journal_midcompact.jnl");
  const SweepSpec spec = small_spec();
  {
    Worker w(path);
    w.run(spec);
    w.journal.close();
  }

  // An interruption mid-compaction leaves the original journal intact
  // plus a half-written temp that never got renamed over it.
  const std::string tmp = path + ".compact.tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "{\"format\":\"pops-cache-journal\",\"version\":1,\"context\"";
  }

  Worker recovered(path);
  // The temp is garbage: removed at open, the real journal replays whole.
  EXPECT_EQ(recovered.loaded.entries_loaded, 2u);
  EXPECT_TRUE(recovered.loaded.problems.empty());
  EXPECT_FALSE(std::ifstream(tmp).good());
  const std::vector<std::string> warm = recovered.run(spec);
  EXPECT_EQ(recovered.cache->hits(), 2u);
  EXPECT_EQ(recovered.cache->misses(), 0u);
  (void)warm;
  std::remove(path.c_str());
}

TEST(CacheJournal, GarbageLineIsSkippedWithDiagnosticOthersSurvive) {
  const std::string path = temp_journal("journal_bitrot.jnl");
  {
    Worker w(path);
    w.run(small_spec());
    w.journal.close();
  }

  // Corrupt one interior record (bit rot), keep the rest.
  const std::string full = slurp(path);
  const std::size_t first_nl = full.find('\n');
  const std::size_t second_nl = full.find('\n', first_nl + 1);
  std::string mangled = full.substr(0, first_nl + 1) + "!corrupt!\n" +
                        full.substr(second_nl + 1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << mangled;
  }

  Worker recovered(path);
  ASSERT_EQ(recovered.loaded.problems.size(), 1u);
  EXPECT_NE(recovered.loaded.problems[0].find("line 2"), std::string::npos);
  // Every other record replays.
  EXPECT_EQ(recovered.loaded.entries_loaded +
                recovered.loaded.initial_delays_loaded,
            count_lines(full) - 2);
  std::remove(path.c_str());
}

TEST(CacheJournal, ForeignContextHeaderRejectsTheFile) {
  const std::string path = temp_journal("journal_foreign.jnl");
  {
    Worker w(path);
    w.run(small_spec());
    w.journal.close();
  }

  // Flip the context signature in the header: the file is from some other
  // characterization and must be rejected wholesale, not merged.
  std::string full = slurp(path);
  const std::size_t sig = full.find("\"signature\":\"");
  ASSERT_NE(sig, std::string::npos);
  const std::size_t digit = sig + std::string("\"signature\":\"").size();
  full[digit] = full[digit] == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full;
  }

  auto cache = std::make_shared<ResultCache>();
  api::OptContext ctx;
  CacheJournal journal(cache, path);
  EXPECT_THROW(journal.open(ctx), std::invalid_argument);
  std::remove(path.c_str());
}

/// A journal exactly as format version 2 wrote it (header, initial-delay
/// memo, entry; each record still carrying the "delay_model" selector
/// version 3 dropped): one point of kTinyBench under the default config at
/// Tc = 1.0 x initial delay, keyed under the config hash of its day
/// (kVersion2Config) — before the protocol pass salted its solver
/// revision into the key.
constexpr const char* kVersion2Journal =
    "{\"format\":\"pops-cache-journal\",\"version\":2,\"context\":{\"signat"
    "ure\":\"d2eff23d22719ee7\",\"technology\":\"generic-cmos025\",\"rng_se"
    "ed\":\"9e3779b97f4a7c15\"}}\n"
    "{\"kind\":\"initial_delay\",\"key\":{\"circuit\":\"c8c47a5737793ad7\","
    "\"config\":\"a5180c7c75b097f8\"},\"delay_model\":\"closed-form\",\"del"
    "ay_ps\":132.04107919161814}\n"
    "{\"kind\":\"entry\",\"key\":{\"circuit\":\"c8c47a5737793ad7\",\"config"
    "\":\"a5180c7c75b097f8\",\"tc\":\"40608150854f1179\"},\"netlist_hash\":"
    "\"c8c47a5737793ad7\",\"delay_model\":\"closed-form\",\"netlist\":{\"na"
    "me\":\"tiny\",\"fresh_counter\":0,\"nodes\":[{\"name\":\"a\",\"input\""
    ":true,\"wire_cap_ff\":0},{\"name\":\"b\",\"input\":true,\"wire_cap_ff"
    "\":0},{\"name\":\"n\",\"kind\":\"nand2\",\"fanins\":[0,1],\"wn_um\":0."
    "6,\"wire_cap_ff\":0},{\"name\":\"z\",\"kind\":\"inv\",\"fanins\":[2],"
    "\"wn_um\":0.6,\"wire_cap_ff\":0,\"po_load_ff\":12}]},\"report\":{\"tc_"
    "ps\":132.04107919161814,\"initial_delay_ps\":132.04107919161814,\"fina"
    "l_delay_ps\":132.04107919161814,\"initial_area_um\":4.8,\"final_area_u"
    "m\":4.8,\"met\":true,\"from_cache\":false,\"delay_model\":\"closed-for"
    "m\",\"power\":{\"model\":\"proxy\",\"temperature_c\":25,\"frequency_mh"
    "z\":100,\"area_um\":4.8,\"switched_cap_ff\":10.35334637964775,\"dynami"
    "c_uw\":3.558962818003914,\"subthreshold_uw\":0.00035999999999999997,\""
    "gate_leak_uw\":0,\"leakage_uw\":0.00035999999999999997,\"total_uw\":3."
    "5593228180039143},\"vt_mix\":[2,0,0],\"passes\":[{\"pass\":\"shield\","
    "\"delay_before_ps\":132.04107919161814,\"delay_after_ps\":132.04107919"
    "161814,\"area_before_um\":4.8,\"area_after_um\":4.8,\"runtime_ms\":0.0"
    "031179999999999997,\"changed\":false,\"buffers_inserted\":0,\"sinks_re"
    "wired\":0,\"gates_removed\":0,\"paths_optimized\":0,\"cells_high_vt\":"
    "0,\"leakage_saved_uw\":0},{\"pass\":\"cancel-inverters\",\"delay_befor"
    "e_ps\":132.04107919161814,\"delay_after_ps\":132.04107919161814,\"area"
    "_before_um\":4.8,\"area_after_um\":4.8,\"runtime_ms\":0.00054099999999"
    "99999,\"changed\":false,\"buffers_inserted\":0,\"sinks_rewired\":0,\"g"
    "ates_removed\":0,\"paths_optimized\":0,\"cells_high_vt\":0,\"leakage_s"
    "aved_uw\":0},{\"pass\":\"sweep-dead\",\"delay_before_ps\":132.04107919"
    "161814,\"delay_after_ps\":132.04107919161814,\"area_before_um\":4.8,\""
    "area_after_um\":4.8,\"runtime_ms\":0.013696999999999999,\"changed\":fa"
    "lse,\"buffers_inserted\":0,\"sinks_rewired\":0,\"gates_removed\":0,\"p"
    "aths_optimized\":0,\"cells_high_vt\":0,\"leakage_saved_uw\":0},{\"pass"
    "\":\"protocol\",\"delay_before_ps\":132.04107919161814,\"delay_after_p"
    "s\":132.04107919161814,\"area_before_um\":4.8,\"area_after_um\":4.8,\""
    "runtime_ms\":0.003895,\"changed\":false,\"buffers_inserted\":0,\"sinks"
    "_rewired\":0,\"gates_removed\":0,\"paths_optimized\":0,\"cells_high_vt"
    "\":0,\"leakage_saved_uw\":0,\"protocol\":{\"tc_ps\":132.04107919161814"
    ",\"achieved_delay_ps\":132.04107919161814,\"area_um\":4.8,\"met\":true"
    ",\"paths_optimized\":0,\"rounds\":0,\"per_path\":[]}}]}}\n";

constexpr const char* kVersion2Config = "a5180c7c75b097f8";

/// `journal` with every occurrence of `from` replaced by `to`.
std::string replace_all(std::string journal, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = journal.find(from); at != std::string::npos;
       at = journal.find(from, at + to.size()))
    journal.replace(at, from.size(), to);
  return journal;
}

constexpr const char* kTinyBench =
    "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nn = NAND(a, b)\nz = NOT(n)\n";

/// The kTinyBench point at `tc_ratio` (kVersion2Journal's by default), as
/// a --no-runtimes record, run through a SweepService over `cache`
/// (nullptr = uncached).
std::string tiny_record(const api::OptContext& ctx,
                        std::shared_ptr<ResultCache> cache,
                        service::SweepReport* report, double tc_ratio = 1.0) {
  SweepSpec spec;
  spec.circuits = {"tiny"};
  spec.tc_ratios = {tc_ratio};
  spec.n_threads = 1;
  service::SweepService sweeps(ctx, std::move(cache));
  const auto load = [&ctx](const std::string& name) {
    netlist::BenchReadOptions opt;
    opt.name = name;
    return netlist::read_bench_string(kTinyBench, ctx.lib(), opt);
  };
  *report = sweeps.run(spec, load);
  return service::to_json(report->points.at(0), {.measured = false}).dump(0);
}

/// Today's config-hash spelling of the default standard pipeline.
std::string current_config_hex() {
  const api::OptContext ctx;
  const api::OptimizerConfig cfg;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(ResultCache::hash_config(
                    ctx, cfg, api::PassPipeline::standard(cfg))));
  return hex;
}

TEST(CacheJournal, VersionTwoJournalReplaysAllHits) {
  // The format-2 bytes, re-keyed to today's config hash (the key moved
  // with the protocol's solver revision, not with the file format).
  const std::string path = temp_journal("journal_v2.jnl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << replace_all(kVersion2Journal, kVersion2Config,
                       current_config_hex());
  }

  Worker w(path);
  EXPECT_EQ(w.loaded.entries_loaded, 1u);
  EXPECT_EQ(w.loaded.initial_delays_loaded, 1u);
  EXPECT_TRUE(w.loaded.problems.empty()) << w.loaded.problems.front();
  // Format-2 records restore under today's keys, and the replayed record
  // is byte-identical to a fresh, uncached run.
  service::SweepReport replay;
  const std::string replayed = tiny_record(w.ctx, w.cache, &replay);
  EXPECT_EQ(replay.cache_hits, 1u);
  EXPECT_EQ(replay.cache_misses, 0u);
  api::OptContext fresh_ctx;
  service::SweepReport fresh;
  EXPECT_EQ(replayed, tiny_record(fresh_ctx, nullptr, &fresh));

  // A compaction rewrites the file as the current version, which replays
  // the same entry.
  w.journal.compact();
  w.journal.close();
  EXPECT_NE(slurp(path).find("\"version\":4"), std::string::npos);
  Worker upgraded(path);
  EXPECT_EQ(upgraded.loaded.entries_loaded, 1u);
  EXPECT_TRUE(upgraded.loaded.problems.empty());
  std::remove(path.c_str());
}

TEST(CacheJournal, EarlierSolverRevisionNeverReplays) {
  // The literal format-2 journal was written by the grow-then-bisect
  // solver: it still loads cleanly, but the protocol's solver salt keeps
  // its entries (and its initial-delay memo) from answering today's key.
  ASSERT_NE(current_config_hex(), kVersion2Config);
  const std::string path = temp_journal("journal_v2_old_solver.jnl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << kVersion2Journal;
  }
  Worker w(path);
  EXPECT_EQ(w.loaded.entries_loaded, 1u);
  EXPECT_TRUE(w.loaded.problems.empty()) << w.loaded.problems.front();
  service::SweepReport replay;
  const std::string replayed = tiny_record(w.ctx, w.cache, &replay);
  EXPECT_EQ(replay.cache_hits, 0u);
  EXPECT_EQ(replay.cache_misses, 1u);
  api::OptContext fresh_ctx;
  service::SweepReport fresh;
  EXPECT_EQ(replayed, tiny_record(fresh_ctx, nullptr, &fresh));
  std::remove(path.c_str());
}

/// A journal exactly as format version 3 wrote it: one point of
/// kTinyBench under the default config at Tc = 0.97 x initial delay. The
/// protocol pass optimized two paths, and each per-path record archives
/// the whole sized path under "sizing".
constexpr const char* kVersion3Journal =
    R"({"format":"pops-cache-journal","version":3,"context":{"signature":"d2eff)"
    R"(23d22719ee7","technology":"generic-cmos025","rng_seed":"9e3779b97f4a7c15)"
    R"("}})" "\n"
    R"({"kind":"entry","key":{"circuit":"c8c47a5737793ad7","config":"ff9e94f29b)"
    R"(80e325","tc":"4060028e1ae8db30"},"netlist_hash":"493027531e905695","netl)"
    R"(ist":{"name":"tiny","fresh_counter":0,"nodes":[{"name":"a","input":true,)"
    R"("wire_cap_ff":0},{"name":"b","input":true,"wire_cap_ff":0},{"name":"n",")"
    R"(kind":"nand2","fanins":[0,1],"wn_um":0.6000000000000001,"wire_cap_ff":0})"
    R"(,{"name":"z","kind":"inv","fanins":[2],"wn_um":0.8394756147742017,"wire_)"
    R"(cap_ff":0,"po_load_ff":12}]},"report":{"tc_ps":128.0798468158696,"initia)"
    R"(l_delay_ps":132.04107919161814,"final_delay_ps":127.191410731756,"initia)"
    R"(l_area_um":4.8,"final_area_um":5.518426844322606,"met":true,"from_cache")"
    R"(:false,"delay_model":"closed-form","power":{"model":"proxy","temperature)"
    R"(_c":25,"frequency_mhz":100,"area_um":5.518426844322606,"switched_cap_ff")"
    R"(:11.228111903204551,"dynamic_uw":3.859663466726565,"subthreshold_uw":0.0)"
    R"(0041388201332419544,"gate_leak_uw":0,"leakage_uw":0.00041388201332419544)"
    R"(,"total_uw":3.860077348739889},"vt_mix":[2,0,0],"passes":[{"pass":"shiel)"
    R"(d","delay_before_ps":132.04107919161814,"delay_after_ps":132.04107919161)"
    R"(814,"area_before_um":4.8,"area_after_um":4.8,"runtime_ms":0.004165999999)"
    R"(9999996,"changed":false,"buffers_inserted":0,"sinks_rewired":0,"gates_re)"
    R"(moved":0,"paths_optimized":0,"cells_high_vt":0,"leakage_saved_uw":0},{"p)"
    R"(ass":"cancel-inverters","delay_before_ps":132.04107919161814,"delay_afte)"
    R"(r_ps":132.04107919161814,"area_before_um":4.8,"area_after_um":4.8,"runti)"
    R"(me_ms":0.000797,"changed":false,"buffers_inserted":0,"sinks_rewired":0,")"
    R"(gates_removed":0,"paths_optimized":0,"cells_high_vt":0,"leakage_saved_uw)"
    R"(":0},{"pass":"sweep-dead","delay_before_ps":132.04107919161814,"delay_af)"
    R"(ter_ps":132.04107919161814,"area_before_um":4.8,"area_after_um":4.8,"run)"
    R"(time_ms":0.009372,"changed":false,"buffers_inserted":0,"sinks_rewired":0)"
    R"(,"gates_removed":0,"paths_optimized":0,"cells_high_vt":0,"leakage_saved_)"
    R"(uw":0},{"pass":"protocol","delay_before_ps":132.04107919161814,"delay_af)"
    R"(ter_ps":127.191410731756,"area_before_um":4.8,"area_after_um":5.51842684)"
    R"(4322606,"runtime_ms":0.222459,"changed":true,"buffers_inserted":0,"sinks)"
    R"(_rewired":0,"gates_removed":0,"paths_optimized":2,"cells_high_vt":0,"lea)"
    R"(kage_saved_uw":0,"protocol":{"tc_ps":128.0798468158696,"achieved_delay_p)"
    R"(s":127.191410731756,"area_um":5.518426844322606,"met":true,"paths_optimi)"
    R"(zed":2,"rounds":1,"per_path":[{"domain":"infeasible","method":"global-bu)"
    R"(ffer+sizing","tmin_ps":127.19141073170287,"tmax_ps":132.04107919161814,")"
    R"(buffers_inserted":0,"gates_restructured":0,"extra_area_um":0,"sizing":{")"
    R"(delay_ps":127.19141073199629,"area_um":5.5184268439996575,"a":0,"feasibl)"
    R"(e":false,"sweeps":4,"path":{"input_edge":"rise","input_slew_ps":26.4,"te)"
    R"(rminal_ff":12,"stages":[{"kind":"nand2","node":2,"off_path_ff":0,"sizabl)"
    R"(e":true,"shielded":false},{"kind":"inv","node":3,"off_path_ff":0,"sizabl)"
    R"(e":true,"shielded":false}],"cins":[2.7,4.533168319199383]}}},{"domain":")"
    R"(infeasible","method":"global-buffer+sizing","tmin_ps":127.1914107316865,)"
    R"("tmax_ps":132.0410791916181,"buffers_inserted":0,"gates_restructured":0,)"
    R"("extra_area_um":0,"sizing":{"delay_ps":127.191410731756,"area_um":5.5184)"
    R"(26844322606,"a":0,"feasible":false,"sweeps":1,"path":{"input_edge":"rise)"
    R"(","input_slew_ps":26.4,"terminal_ff":12,"stages":[{"kind":"nand2","node")"
    R"(:2,"off_path_ff":0,"sizable":true,"shielded":false},{"kind":"inv","node")"
    R"(:3,"off_path_ff":0,"sizable":true,"shielded":false}],"cins":[2.700000000)"
    R"(0000006,4.53316831978069]}}}]}}]}})" "\n"
    R"({"kind":"initial_delay","key":{"circuit":"c8c47a5737793ad7","config":"ff)"
    R"(9e94f29b80e325"},"delay_ps":132.04107919161814})" "\n";

constexpr const char* kVersion3Config = "ff9e94f29b80e325";

TEST(CacheJournal, VersionThreeJournalReplaysAllHits) {
  // Re-keyed to today's config hash, as the format-2 test does, so a
  // later solver salt cannot turn this replay test into a miss test.
  const std::string path = temp_journal("journal_v3.jnl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << replace_all(kVersion3Journal, kVersion3Config,
                       current_config_hex());
  }

  Worker w(path);
  EXPECT_EQ(w.loaded.entries_loaded, 1u);
  EXPECT_EQ(w.loaded.initial_delays_loaded, 1u);
  EXPECT_TRUE(w.loaded.problems.empty()) << w.loaded.problems.front();
  // The per-path decisions read from the sized-path records are the ones
  // a fresh run makes, bit for bit.
  service::SweepReport replay;
  const std::string replayed = tiny_record(w.ctx, w.cache, &replay, 0.97);
  EXPECT_EQ(replay.cache_hits, 1u);
  EXPECT_EQ(replay.cache_misses, 0u);
  EXPECT_NE(replayed.find("\"per_path\":[{"), std::string::npos) << replayed;
  api::OptContext fresh_ctx;
  service::SweepReport fresh;
  EXPECT_EQ(replayed, tiny_record(fresh_ctx, nullptr, &fresh, 0.97));

  // A compaction rewrites the file as version 4, without the sized path.
  w.journal.compact();
  w.journal.close();
  const std::string upgraded_text = slurp(path);
  EXPECT_NE(upgraded_text.find("\"version\":4"), std::string::npos);
  EXPECT_EQ(upgraded_text.find("\"sizing\""), std::string::npos);
  Worker upgraded(path);
  EXPECT_EQ(upgraded.loaded.entries_loaded, 1u);
  EXPECT_TRUE(upgraded.loaded.problems.empty());
  std::remove(path.c_str());
}

TEST(CacheJournal, CompactionBoundsFileToLiveEntries) {
  const std::string path = temp_journal("journal_compact.jnl");
  // Suppress auto-compaction so the garbage accumulation is observable.
  CacheJournal::Options opt;
  opt.max_garbage_ratio = 1.0;
  opt.min_compact_bytes = ~std::size_t{0};

  // Capacity 1: the second point evicts the first — its journal record
  // becomes garbage that only compaction can reclaim.
  Worker w(path, opt, /*capacity=*/1);
  w.run(small_spec());
  const CacheJournal::Stats before = w.journal.stats();
  EXPECT_GT(before.garbage_bytes, 0u);
  EXPECT_EQ(before.total_bytes, slurp(path).size());

  w.journal.compact();
  const CacheJournal::Stats after = w.journal.stats();
  EXPECT_EQ(after.compactions, before.compactions + 1);
  EXPECT_EQ(after.garbage_bytes, 0u);
  // The bound: file size == live record bytes + one header line. Checked
  // against the actual file, not just the journal's own accounting.
  const std::string compacted = slurp(path);
  EXPECT_EQ(after.total_bytes, compacted.size());
  const std::size_t header_bytes = compacted.find('\n') + 1;
  EXPECT_EQ(after.total_bytes, after.live_bytes + header_bytes);
  EXPECT_LT(after.total_bytes, before.total_bytes);

  // And the compacted journal still replays: the surviving entry hits.
  w.journal.close();
  Worker warm(path, opt, /*capacity=*/1);
  EXPECT_EQ(warm.loaded.entries_loaded, 1u);
  EXPECT_TRUE(warm.loaded.problems.empty());
  std::remove(path.c_str());
}

}  // namespace
