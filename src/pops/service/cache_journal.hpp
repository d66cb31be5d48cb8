#pragma once
// Append-only ResultCache persistence with compaction.
//
// A long-lived worker daemon's cache grows for days; rewriting a whole
// archive per checkpoint would re-serialize thousands of unchanged
// entries. CacheJournal instead attaches to the cache as a
// ResultCache::StoreListener and appends one record per *mutation*
// (entry stored, initial delay memoized) as it lands, flushed on the
// record boundary. A restart replays the journal line by line; a process
// crash at any byte offset loses at most the final partial record (the
// truncated tail is skipped with a diagnostic, every record before it is
// recovered). "Flushed" means handed to the OS (ofstream::flush), not
// synced to the device: a power loss or OS crash can lose flushed
// records too, and can lose a compaction's rename.
//
// Garbage — records whose entry was since LRU-evicted, or superseded
// duplicates — accumulates in the file but not in the cache. The journal
// tracks live vs garbage bytes exactly and compacts (rewrites the file
// from the live cache contents, sorted by key for deterministic bytes)
// when the garbage ratio crosses Options::max_garbage_ratio, via an
// atomic tmp+rename: a process crash mid-compaction leaves the original
// journal intact (a stale ".compact.tmp" is removed at the next open).
// Post-compaction file size is bounded by the live entries' bytes plus
// one header line. A compaction is therefore also the snapshot: there is
// no second persistence format.
//
// On-disk format (version 4): newline-delimited compact JSON. Line 1 is
// the header; every subsequent line is one record:
//
//   {"format": "pops-cache-journal", "version": 4,
//    "context": {"signature": hex, "technology": name, "rng_seed": hex}}
//   {"kind": "entry", "key": {"circuit": hex, "config": hex, "tc": hex},
//    "netlist_hash": hex, "netlist": {...}, "report": {...}}
//   {"kind": "initial_delay", "key": {"circuit": hex, "config": hex},
//    "delay_ps": n}
//
// Netlist/report payloads are cache_io's archive_netlist/archive_report
// documents; hex fields are util::hex_u64 strings. Keys are pure content
// (the delay-model backend is folded into config_hash), so one journal
// holds entries of every backend and replays into any context with the
// header's characterization (ResultCache::hash_context).
//
// Versioning: versions 2 and 3 still replay. Version 3 records archive
// each protocol path as a whole sized path ("sizing" sub-tree), from
// which the reader keeps only the decision's delay and total area;
// version 2 records additionally carry a per-record "delay_model"
// selector, which the reader ignores. Appends after an older header are
// written in the current shape, and a compaction rewrites the whole file
// as version 4. Any other version or a foreign context signature rejects
// the whole file with a recovery hint; per-record corruption skips the
// record and is reported in CacheLoadReport.

#include <cstddef>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "pops/service/cache_io.hpp"
#include "pops/service/result_cache.hpp"
#include "pops/util/thread_annotations.hpp"

namespace pops::service {

class CacheJournal final : public ResultCache::StoreListener {
 public:
  struct Options {
    /// Compact when garbage bytes exceed this fraction of the file (and
    /// the file is at least min_compact_bytes — tiny files aren't worth
    /// rewriting). 0.5 = at most half the journal is dead weight.
    double max_garbage_ratio = 0.5;
    std::size_t min_compact_bytes = 16u << 10;
  };

  struct Stats {
    std::size_t appends = 0;      ///< records appended since open
    std::size_t compactions = 0;  ///< rewrites since open
    std::size_t live_bytes = 0;   ///< bytes of records still backing the cache
    std::size_t garbage_bytes = 0;  ///< bytes of evicted/superseded records
    std::size_t total_bytes = 0;    ///< file size (header + all records)
    std::size_t io_errors = 0;      ///< appends dropped by write failures
  };

  /// The journal observes (and persists into `path`) every mutation of
  /// `cache` once open() has attached it. Construction does no IO.
  CacheJournal(std::shared_ptr<ResultCache> cache, std::string path);
  CacheJournal(std::shared_ptr<ResultCache> cache, std::string path,
               Options opt);

  /// Detaches from the cache and flushes.
  ~CacheJournal() override;

  CacheJournal(const CacheJournal&) = delete;
  CacheJournal& operator=(const CacheJournal&) = delete;

  /// Open the journal: discard a stale mid-compaction temp file, replay
  /// every durable record of an existing journal into the cache (payloads
  /// rebuilt against ctx.lib()), then attach to the cache as its store
  /// listener and start appending. `ctx` provides the characterization
  /// the header must match. Throws std::invalid_argument on a
  /// wrong-format / wrong-version / foreign-signature header,
  /// std::runtime_error when the file cannot be opened for append.
  /// Per-record problems (garbage lines, integrity mismatches) are
  /// skipped and reported, never fatal.
  CacheLoadReport open(const api::OptContext& ctx) POPS_EXCLUDES(mu_);

  /// Rewrite the journal from the live cache contents (sorted by key —
  /// deterministic bytes), atomically. Resets garbage to zero. Safe
  /// concurrent with sweeps: appends block for the duration, cache
  /// lookups do not.
  void compact() POPS_EXCLUDES(mu_);

  /// compact() iff the garbage policy (Options) says so. Returns whether
  /// a compaction ran. (Appends also auto-compact under the same policy;
  /// this is the explicit checkpoint/shutdown hook.)
  bool compact_if_needed() POPS_EXCLUDES(mu_);

  /// Flush and detach from the cache; further mutations are not
  /// journaled. Idempotent (the destructor calls it).
  void close() POPS_EXCLUDES(mu_);

  Stats stats() const POPS_EXCLUDES(mu_);
  const std::string& path() const noexcept { return path_; }

  // ----- ResultCache::StoreListener (called by the cache, off-lock) -----------

  void on_store(const api::ResultCacheKey& key, const netlist::Netlist& nl,
                const api::PipelineReport& report) override POPS_EXCLUDES(mu_);
  void on_store_initial_delay(const api::ResultCacheKey& key,
                              double delay_ps) override POPS_EXCLUDES(mu_);
  void on_evict(const api::ResultCacheKey& key) override POPS_EXCLUDES(mu_);
  void on_evict_initial_delay(const api::ResultCacheKey& key) override
      POPS_EXCLUDES(mu_);

 private:
  void append_locked(const std::string& content_key, const std::string& line,
                     std::map<std::string, std::size_t>& bytes_map)
      POPS_REQUIRES(mu_);
  void retire_locked(const std::string& content_key,
                     std::map<std::string, std::size_t>& bytes_map)
      POPS_REQUIRES(mu_);
  bool garbage_policy_met_locked() const POPS_REQUIRES(mu_);
  void compact_locked() POPS_REQUIRES(mu_);

  const std::shared_ptr<ResultCache> cache_;
  const std::string path_;
  const Options opt_;

  // mu_ guards the stream and the byte accounting. Lock order: mu_
  // before the cache's internal lock (compact snapshots the cache while
  // holding mu_); the cache never calls the listener while holding its
  // own lock, so the order is acyclic.
  mutable util::Mutex mu_;
  std::ofstream out_ POPS_GUARDED_BY(mu_);
  bool attached_ POPS_GUARDED_BY(mu_) = false;
  std::string header_line_ POPS_GUARDED_BY(mu_);
  /// content key (hex concat) -> bytes of its most recent record.
  std::map<std::string, std::size_t> entry_bytes_ POPS_GUARDED_BY(mu_);
  std::map<std::string, std::size_t> delay_bytes_ POPS_GUARDED_BY(mu_);
  std::size_t live_bytes_ POPS_GUARDED_BY(mu_) = 0;
  std::size_t garbage_bytes_ POPS_GUARDED_BY(mu_) = 0;
  std::size_t total_bytes_ POPS_GUARDED_BY(mu_) = 0;
  std::size_t appends_ POPS_GUARDED_BY(mu_) = 0;
  std::size_t compactions_ POPS_GUARDED_BY(mu_) = 0;
  std::size_t io_errors_ POPS_GUARDED_BY(mu_) = 0;
};

}  // namespace pops::service
