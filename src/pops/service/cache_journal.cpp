#include "pops/service/cache_journal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"
#include "pops/util/hash.hpp"

namespace pops::service {

using util::Json;

namespace {

constexpr const char* kJournalFormat = "pops-cache-journal";
// v2: records carry the power section + Vt mix in reports and per-node
// "vt" on netlists — older journals lack fields fresh replays carry.
// v3: records drop the per-record "delay_model" selector (keys are pure
// content). The reader ignores that field.
// v4: per-path records keep the protocol's decision, not the sized path.
// restore_report reads both shapes, so v2 and v3 files replay unchanged.
constexpr int kJournalVersion = 4;
constexpr int kOldestVersion = 2;

// Strict readers (journal-local twins of cache_io's file-local set):
// records are machine-written, any deviation is corruption, and the
// replay loop catches per record and skips.

const Json& member(const Json& j, const char* key) {
  const Json* v = j.find(key);
  if (!v) throw std::invalid_argument(std::string("missing key '") + key + "'");
  return *v;
}

const std::string& str(const Json& j, const char* key) {
  const Json& v = member(j, key);
  if (!v.is_string())
    throw std::invalid_argument(std::string("'") + key + "' must be a string");
  return v.as_string();
}

double num(const Json& j, const char* key) {
  const Json& v = member(j, key);
  if (!v.is_number())
    throw std::invalid_argument(std::string("'") + key + "' must be a number");
  return v.as_number();
}

std::uint64_t hex(const Json& j, const char* key) {
  std::uint64_t out = 0;
  if (!util::parse_hex_u64(str(j, key), out))
    throw std::invalid_argument(std::string("'") + key +
                                "' must be a hex u64 string");
  return out;
}

// Content identity of a record — the key's words, hex-concatenated.
std::string entry_content_key(const api::ResultCacheKey& key) {
  return util::hex_u64(key.circuit_hash) + util::hex_u64(key.config_hash) +
         util::hex_u64(key.tc_bits);
}

std::string delay_content_key(const api::ResultCacheKey& key) {
  return util::hex_u64(key.circuit_hash) + util::hex_u64(key.config_hash);
}

std::string entry_record_line(const api::ResultCacheKey& key,
                              const netlist::Netlist& nl,
                              const api::PipelineReport& report) {
  Json rec = Json::object();
  rec["kind"] = "entry";
  Json k = Json::object();
  k["circuit"] = util::hex_u64(key.circuit_hash);
  k["config"] = util::hex_u64(key.config_hash);
  k["tc"] = util::hex_u64(key.tc_bits);
  rec["key"] = std::move(k);
  // Integrity hash of the archived (optimized) netlist — replay detects
  // bit-rot before installing the entry (same contract as cache_io).
  rec["netlist_hash"] = util::hex_u64(ResultCache::hash_netlist(nl));
  rec["netlist"] = archive_netlist(nl);
  rec["report"] = archive_report(report);
  return rec.dump(0);
}

std::string delay_record_line(const api::ResultCacheKey& key,
                              double delay_ps) {
  Json rec = Json::object();
  rec["kind"] = "initial_delay";
  Json k = Json::object();
  k["circuit"] = util::hex_u64(key.circuit_hash);
  k["config"] = util::hex_u64(key.config_hash);
  rec["key"] = std::move(k);
  rec["delay_ps"] = delay_ps;
  return rec.dump(0);
}

std::string header_line_for(const api::OptContext& ctx) {
  Json header = Json::object();
  header["format"] = kJournalFormat;
  header["version"] = kJournalVersion;
  Json context = Json::object();
  context["signature"] = util::hex_u64(ResultCache::hash_context(ctx));
  context["technology"] = ctx.tech().name;
  context["rng_seed"] = util::hex_u64(ctx.rng_seed());
  header["context"] = std::move(context);
  return header.dump(0);
}

void validate_header(const Json& doc, const api::OptContext& ctx) {
  if (!doc.is_object() || !doc.find("format") ||
      !member(doc, "format").is_string() ||
      member(doc, "format").as_string() != kJournalFormat)
    throw std::invalid_argument(
        "not a pops-cache-journal file (missing/wrong 'format' in the "
        "header line)");
  const double version = num(doc, "version");
  if (!(version >= kOldestVersion && version <= kJournalVersion) ||
      version != std::floor(version))
    throw std::invalid_argument(
        "unsupported pops-cache-journal version " +
        Json::number_to_string(version) + " (expected " +
        std::to_string(kOldestVersion) + " to " +
        std::to_string(kJournalVersion) +
        "); move the file aside (or delete it) to cold-start and let the "
        "server rebuild its cache");
  const Json& context = member(doc, "context");
  const std::uint64_t stored_sig = hex(context, "signature");
  const std::uint64_t live_sig = ResultCache::hash_context(ctx);
  if (stored_sig != live_sig)
    throw std::invalid_argument(
        "cache journal was written under a different context "
        "characterization (stored signature " +
        util::hex_u64(stored_sig) + ", live " + util::hex_u64(live_sig) +
        "); stored technology '" + str(context, "technology") + "' vs live '" +
        ctx.tech().name + "', stored rng_seed " + str(context, "rng_seed") +
        " vs live " + util::hex_u64(ctx.rng_seed()) +
        " — refusing to replay (results would not be bit-identical)");
}

void publish_gauges(std::size_t live, std::size_t garbage) {
  static const obs::Registry::Gauge live_gauge =
      obs::Registry::global().gauge("cache.journal.live_bytes");
  static const obs::Registry::Gauge garbage_gauge =
      obs::Registry::global().gauge("cache.journal.garbage_bytes");
  live_gauge.set(static_cast<double>(live));
  garbage_gauge.set(static_cast<double>(garbage));
}

}  // namespace

CacheJournal::CacheJournal(std::shared_ptr<ResultCache> cache,
                           std::string path)
    : CacheJournal(std::move(cache), std::move(path), Options()) {}

CacheJournal::CacheJournal(std::shared_ptr<ResultCache> cache,
                           std::string path, Options opt)
    : cache_(std::move(cache)), path_(std::move(path)), opt_(opt) {}

CacheJournal::~CacheJournal() { close(); }

CacheLoadReport CacheJournal::open(const api::OptContext& ctx) {
  obs::Span span("cache/journal_replay");
  // A stale mid-compaction temp means the atomic rename never happened:
  // the original journal is intact and the temp is garbage.
  std::remove((path_ + ".compact.tmp").c_str());

  // A crash mid-append leaves a torn final record with no terminating
  // newline. Replay skips it below (with a diagnostic); the torn bytes
  // are then truncated away, so the append stream starts on a clean line
  // boundary — otherwise the next record would glue onto the torn bytes
  // and corrupt itself too — and the next open replays a clean file.
  bool torn_tail = false;
  std::size_t durable_end = 0;     ///< offset just past the last '\n'
  std::size_t torn_counted = 0;    ///< bytes replay will charge the tear
  {
    std::ifstream tail(path_, std::ios::binary | std::ios::ate);
    const auto size = tail ? tail.tellg() : std::ifstream::pos_type(0);
    if (tail && size > 0) {
      tail.seekg(-1, std::ios::end);
      char last = '\n';
      tail.get(last);
      if (last != '\n') {
        torn_tail = true;
        // Scan back to the last newline; everything after it is the tear.
        std::string buf(static_cast<std::size_t>(size), '\0');
        tail.seekg(0);
        tail.read(buf.data(), size);
        const std::size_t nl = buf.rfind('\n');
        durable_end = nl == std::string::npos ? 0 : nl + 1;
        // getline() charges the torn line as if newline-terminated.
        torn_counted = buf.size() - durable_end + 1;
      }
    }
  }

  const std::string header = header_line_for(ctx);

  // Replay runs unlocked (startup is single-producer), into local
  // accounting that one short locked section installs at the end.
  CacheLoadReport out;
  std::map<std::string, std::size_t> entry_bytes;
  std::map<std::string, std::size_t> delay_bytes;
  std::size_t live = 0;
  std::size_t garbage = 0;
  std::size_t total = 0;
  bool have_header = false;

  std::ifstream in(path_, std::ios::binary);
  if (in) {
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t bytes = line.size() + 1;
      total += bytes;
      if (!have_header) {
        // A malformed header rejects the file wholesale — replaying
        // records of unknown provenance could poison the cache.
        validate_header(Json::parse(line), ctx);
        have_header = true;
        continue;
      }
      try {
        const Json rec = Json::parse(line);
        const std::string& kind = str(rec, "kind");
        const Json& k = member(rec, "key");
        api::ResultCacheKey key;
        key.circuit_hash = hex(k, "circuit");
        key.config_hash = hex(k, "config");
        if (kind == "entry") {
          key.tc_bits = hex(k, "tc");
          netlist::Netlist nl =
              restore_netlist(member(rec, "netlist"), ctx.lib());
          const std::uint64_t want = hex(rec, "netlist_hash");
          const std::uint64_t got = ResultCache::hash_netlist(nl);
          if (want != got)
            throw std::invalid_argument(
                "netlist integrity hash mismatch (stored " +
                util::hex_u64(want) + ", restored " + util::hex_u64(got) + ")");
          api::PipelineReport report =
              restore_report(member(rec, "report"));
          cache_->store(key, nl, report);
          const std::string ck = entry_content_key(key);
          const auto it = entry_bytes.find(ck);
          if (it != entry_bytes.end()) {
            garbage += it->second;
            live -= it->second;
            it->second = bytes;
          } else {
            entry_bytes.emplace(ck, bytes);
          }
          live += bytes;
          ++out.entries_loaded;
        } else if (kind == "initial_delay") {
          cache_->store_initial_delay(key, num(rec, "delay_ps"));
          const std::string ck = delay_content_key(key);
          const auto it = delay_bytes.find(ck);
          if (it != delay_bytes.end()) {
            garbage += it->second;
            live -= it->second;
            it->second = bytes;
          } else {
            delay_bytes.emplace(ck, bytes);
          }
          live += bytes;
          ++out.initial_delays_loaded;
        } else {
          throw std::invalid_argument("unknown record kind '" + kind + "'");
        }
      } catch (const std::exception& err) {
        // Per-record recovery: a torn tail record (crash mid-append) or
        // bit-rotted line is skipped with a diagnostic; every durable
        // record before and after it is replayed.
        garbage += bytes;
        out.problems.push_back("record at line " + std::to_string(line_no) +
                               " skipped: " + err.what());
      }
    }
  }

  if (torn_tail) {
    std::error_code ec;
    std::filesystem::resize_file(path_, durable_end, ec);
    if (!ec && total >= torn_counted) {
      total -= torn_counted;
      garbage -= torn_counted <= garbage ? torn_counted : garbage;
    }
  }

  util::MutexLock lock(mu_);
  header_line_ = header;
  entry_bytes_ = std::move(entry_bytes);
  delay_bytes_ = std::move(delay_bytes);
  live_bytes_ = live;
  garbage_bytes_ = garbage;
  total_bytes_ = total;
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_)
    throw std::runtime_error("cannot open journal '" + path_ +
                             "' for append");
  if (!have_header) {
    out_ << header_line_ << '\n';
    out_.flush();
    if (!out_)
      throw std::runtime_error("cannot write journal header to '" + path_ +
                               "'");
    total_bytes_ += header_line_.size() + 1;
  }
  publish_gauges(live_bytes_, garbage_bytes_);
  attached_ = true;
  cache_->set_store_listener(this);
  return out;
}

void CacheJournal::on_store(const api::ResultCacheKey& key,
                            const netlist::Netlist& nl,
                            const api::PipelineReport& report) {
  obs::Span span("cache/journal_append");
  // Serialization (whole netlist + report) happens outside the lock so a
  // big record doesn't stall concurrent appends behind CPU work.
  const std::string line = entry_record_line(key, nl, report);
  util::MutexLock lock(mu_);
  if (!attached_) return;
  append_locked(entry_content_key(key), line, entry_bytes_);
  if (garbage_policy_met_locked()) compact_locked();
}

void CacheJournal::on_store_initial_delay(const api::ResultCacheKey& key,
                                          double delay_ps) {
  const std::string line = delay_record_line(key, delay_ps);
  util::MutexLock lock(mu_);
  if (!attached_) return;
  append_locked(delay_content_key(key), line, delay_bytes_);
  if (garbage_policy_met_locked()) compact_locked();
}

void CacheJournal::on_evict(const api::ResultCacheKey& key) {
  util::MutexLock lock(mu_);
  if (!attached_) return;
  retire_locked(entry_content_key(key), entry_bytes_);
  if (garbage_policy_met_locked()) compact_locked();
}

void CacheJournal::on_evict_initial_delay(const api::ResultCacheKey& key) {
  util::MutexLock lock(mu_);
  if (!attached_) return;
  retire_locked(delay_content_key(key), delay_bytes_);
  if (garbage_policy_met_locked()) compact_locked();
}

void CacheJournal::append_locked(const std::string& content_key,
                                 const std::string& line,
                                 std::map<std::string, std::size_t>& bytes_map) {
  static const obs::Registry::Counter append_count =
      obs::Registry::global().counter("cache.journal.appends");
  const std::size_t bytes = line.size() + 1;
  out_ << line << '\n';
  out_.flush();  // durability boundary: one record, whole or absent
  if (!out_) {
    ++io_errors_;
    out_.clear();
    return;
  }
  ++appends_;
  append_count.add();
  const auto it = bytes_map.find(content_key);
  if (it != bytes_map.end()) {
    // Superseded duplicate (e.g. the same content stored again after an
    // eviction): the older record is garbage now.
    garbage_bytes_ += it->second;
    live_bytes_ -= it->second;
    it->second = bytes;
  } else {
    bytes_map.emplace(content_key, bytes);
  }
  live_bytes_ += bytes;
  total_bytes_ += bytes;
  publish_gauges(live_bytes_, garbage_bytes_);
}

void CacheJournal::retire_locked(const std::string& content_key,
                                 std::map<std::string, std::size_t>& bytes_map) {
  const auto it = bytes_map.find(content_key);
  if (it == bytes_map.end()) return;
  garbage_bytes_ += it->second;
  live_bytes_ -= it->second;
  bytes_map.erase(it);
  publish_gauges(live_bytes_, garbage_bytes_);
}

bool CacheJournal::garbage_policy_met_locked() const {
  return total_bytes_ >= opt_.min_compact_bytes &&
         static_cast<double>(garbage_bytes_) >
             opt_.max_garbage_ratio * static_cast<double>(total_bytes_);
}

void CacheJournal::compact() {
  util::MutexLock lock(mu_);
  if (!attached_) return;
  compact_locked();
}

bool CacheJournal::compact_if_needed() {
  util::MutexLock lock(mu_);
  if (!attached_ || !garbage_policy_met_locked()) return false;
  compact_locked();
  return true;
}

void CacheJournal::compact_locked() {
  obs::Span span("cache/journal_compact");
  static const obs::Registry::Counter compact_count =
      obs::Registry::global().counter("cache.journal.compactions");

  // Snapshot the live cache into sorted record lines — sorted by content
  // key, so the same resident state compacts to the same bytes
  // regardless of store order.
  struct Rec {
    std::string ck;
    std::string line;
  };
  std::vector<Rec> entries;
  cache_->for_each_entry([&](const api::ResultCacheKey& key,
                             const netlist::Netlist& nl,
                             const api::PipelineReport& report) {
    entries.push_back(
        {entry_content_key(key), entry_record_line(key, nl, report)});
  });
  std::sort(entries.begin(), entries.end(),
            [](const Rec& a, const Rec& b) { return a.ck < b.ck; });
  std::vector<Rec> delays;
  cache_->for_each_initial_delay(
      [&](const api::ResultCacheKey& key, double delay_ps) {
        delays.push_back(
            {delay_content_key(key), delay_record_line(key, delay_ps)});
      });
  std::sort(delays.begin(), delays.end(),
            [](const Rec& a, const Rec& b) { return a.ck < b.ck; });

  // Write the replacement journal beside the live one, then atomically
  // swap: a crash at any point leaves either the old complete journal
  // (rename not reached; the temp is discarded at the next open) or the
  // new complete one.
  const std::string tmp = path_ + ".compact.tmp";
  {
    std::ofstream tout(tmp, std::ios::binary | std::ios::trunc);
    if (!tout) {
      ++io_errors_;
      return;
    }
    tout << header_line_ << '\n';
    for (const Rec& r : entries) tout << r.line << '\n';
    for (const Rec& r : delays) tout << r.line << '\n';
    tout.flush();
    if (!tout) {
      ++io_errors_;
      std::remove(tmp.c_str());
      return;
    }
  }
  out_.close();
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    ++io_errors_;
    std::remove(tmp.c_str());
    out_.open(path_, std::ios::binary | std::ios::app);
    return;
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) ++io_errors_;

  // Rebuild the accounting from what was actually written: garbage is
  // zero by construction, total is live + the header.
  entry_bytes_.clear();
  delay_bytes_.clear();
  live_bytes_ = 0;
  for (const Rec& r : entries) {
    entry_bytes_[r.ck] = r.line.size() + 1;
    live_bytes_ += r.line.size() + 1;
  }
  for (const Rec& r : delays) {
    delay_bytes_[r.ck] = r.line.size() + 1;
    live_bytes_ += r.line.size() + 1;
  }
  garbage_bytes_ = 0;
  total_bytes_ = live_bytes_ + header_line_.size() + 1;
  ++compactions_;
  compact_count.add();
  publish_gauges(live_bytes_, garbage_bytes_);
}

void CacheJournal::close() {
  util::MutexLock lock(mu_);
  if (!attached_) return;
  cache_->set_store_listener(nullptr);
  attached_ = false;
  out_.flush();
  out_.close();
}

CacheJournal::Stats CacheJournal::stats() const {
  util::MutexLock lock(mu_);
  Stats s;
  s.appends = appends_;
  s.compactions = compactions_;
  s.live_bytes = live_bytes_;
  s.garbage_bytes = garbage_bytes_;
  s.total_bytes = total_bytes_;
  s.io_errors = io_errors_;
  return s;
}

}  // namespace pops::service
