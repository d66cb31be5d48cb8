#pragma once
// Keyed memoization of converged optimization runs.
//
// A constraint sweep (Tables 2-4, Figs. 6/8) re-optimizes the same
// circuits at overlapping constraint points; every repeated (circuit,
// config, Tc) point re-runs the whole pipeline from scratch. ResultCache
// memoizes the converged outcome — the optimized netlist plus its
// PipelineReport — keyed by (circuit content hash, normalized constraint
// tuple), so a repeated point is an O(lookup) replay that is bit-identical
// to the fresh run (entries store full copies, nothing is re-derived).
//
// The cache implements api::ResultCacheHook. Its owner (a SweepService,
// a server) hands it to each Optimizer it builds (the constructor's
// `cache` argument), and that Optimizer memoizes through it, including
// its run_many workers (all methods are mutex-guarded). Keys are pure
// content, so one cache may serve several contexts. Hit/miss counters
// are surfaced in sweep reports (service/sweep.hpp) and in the
// pops_sweep JSON output.
//
// Long-lived servers (pops::net::SweepServer) bound the cache with an LRU
// capacity (least-recently-used entries evicted on insert, counted in
// stats().evictions) and persist it across processes through
// service/cache_journal.hpp — keys and entries are pure content.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "pops/api/context.hpp"
#include "pops/api/pipeline.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/util/thread_annotations.hpp"

namespace pops::service {

class ResultCache final : public api::ResultCacheHook {
 public:
  /// Counter snapshot (taken atomically with respect to cache updates).
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
    std::size_t evictions = 0;  ///< entries dropped by the LRU bound
    std::size_t capacity = 0;   ///< 0 = unbounded
  };

  /// `capacity` bounds the number of resident entries (LRU eviction on
  /// insert); 0 keeps the cache unbounded — the default, so short-lived
  /// batch runs stay bit-identical to the uncapped behaviour. The
  /// initial-delay memo is bounded by the same capacity (FIFO).
  explicit ResultCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Observer of cache mutations — the append-only journal's hook
  /// (service/cache_journal.hpp). Callbacks fire on the mutating thread
  /// *after* the cache released its lock (a listener may take its own
  /// locks, do IO, or call back into cache accessors without deadlock),
  /// and only for mutations that actually happened: on_store only for a
  /// first insertion (first-writer-wins duplicates are silent), on_evict
  /// only for entries the LRU bound dropped.
  class StoreListener {
   public:
    virtual ~StoreListener() = default;
    virtual void on_store(const api::ResultCacheKey& key,
                          const netlist::Netlist& nl,
                          const api::PipelineReport& report) = 0;
    virtual void on_store_initial_delay(const api::ResultCacheKey& key,
                                        double delay_ps) = 0;
    virtual void on_evict(const api::ResultCacheKey& key) { (void)key; }
    virtual void on_evict_initial_delay(const api::ResultCacheKey& key) {
      (void)key;
    }
  };

  /// Attach (or detach, with nullptr) the single mutation listener. Not
  /// owned. Attach before traffic: stores racing the attachment may or
  /// may not be observed.
  void set_store_listener(StoreListener* listener) POPS_EXCLUDES(mu_);

  // ----- api::ResultCacheHook -------------------------------------------------

  /// Key = (content hash of `nl`, hash of everything else that determines
  /// the result: config knobs, pipeline pass sequence, delay-model
  /// backend, technology, Flimit characterization options, RNG seed, exact
  /// Tc bits).
  api::ResultCacheKey make_key(const api::OptContext& ctx,
                               const netlist::Netlist& nl,
                               const api::OptimizerConfig& cfg,
                               const api::PassPipeline& pipeline,
                               double tc_ps) const override;

  bool lookup(const api::ResultCacheKey& key, netlist::Netlist& nl,
              api::PipelineReport& report) override POPS_EXCLUDES(mu_);

  void store(const api::ResultCacheKey& key, const netlist::Netlist& nl,
             const api::PipelineReport& report) override POPS_EXCLUDES(mu_);

  /// Initial-delay memo keyed by (circuit_hash, config_hash) — tc_bits is
  /// ignored, the initial delay precedes any constraint. Any stored value
  /// (including 0.0) is returned; nullopt means "never stored". Not
  /// counted in hits/misses (those track full result replays).
  std::optional<double> initial_delay_ps(
      const api::ResultCacheKey& key) const override POPS_EXCLUDES(mu_);
  void store_initial_delay(const api::ResultCacheKey& key,
                           double delay_ps) override POPS_EXCLUDES(mu_);

  // ----- introspection --------------------------------------------------------

  Stats stats() const POPS_EXCLUDES(mu_);
  std::size_t hits() const { return stats().hits; }
  std::size_t misses() const { return stats().misses; }
  std::size_t size() const { return stats().entries; }

  /// Change the LRU bound; 0 = unbounded. Shrinking below the resident
  /// count evicts the excess least-recently-used entries immediately.
  void set_capacity(std::size_t capacity) POPS_EXCLUDES(mu_);
  std::size_t capacity() const POPS_EXCLUDES(mu_);

  /// Drop all entries and reset the counters. Safe for concurrent calls
  /// (in-flight lookups hold shared ownership of their entry).
  void clear() POPS_EXCLUDES(mu_);

  // ----- persistence support (service/cache_journal.hpp) --------------------

  /// Visit every resident entry / initial-delay memo, in most-recently-
  /// used-first order. The visit runs over a consistent snapshot taken
  /// under the lock; `fn` itself runs *outside* it (it may be expensive —
  /// checkpoints serialize whole netlists — without stalling concurrent
  /// lookups), so entries evicted mid-visit are still delivered.
  void for_each_entry(
      const std::function<void(const api::ResultCacheKey&,
                               const netlist::Netlist&,
                               const api::PipelineReport&)>& fn) const
      POPS_EXCLUDES(mu_);
  void for_each_initial_delay(
      const std::function<void(const api::ResultCacheKey&, double)>& fn) const
      POPS_EXCLUDES(mu_);

  // ----- hashing building blocks (exposed for tests) --------------------------

  /// FNV-1a content hash over the netlist: technology name, node count,
  /// and per node its name, role, cell kind, fanins, drive, wire cap and
  /// PO load (doubles hashed by bit pattern — "normalized" means exact).
  static std::uint64_t hash_netlist(const netlist::Netlist& nl);

  /// Hash of the non-circuit half of the key: the pipeline's pass
  /// sequence (name + Pass::cache_salt per pass), the context
  /// characterization (hash_context plus the identity of the backend
  /// ctx.backend(cfg) = name + content hash), and the *normalized* config
  /// tuple — only
  /// knobs a pass of this pipeline can read contribute (shield knobs
  /// require the shield pass, protocol/solver knobs the protocol pass; an
  /// unknown custom pass hashes everything), so sweeping a knob no pass
  /// consumes cannot force redundant recomputes. Pure content: stable
  /// across processes and contexts.
  static std::uint64_t hash_config(const api::OptContext& ctx,
                                   const api::OptimizerConfig& cfg,
                                   const api::PassPipeline& pipeline);

  /// The *immutable* characterization of a context: every Technology
  /// parameter, the Fig. 5 Flimit set-up, and the RNG seed. Excludes the
  /// delay-model backend (selected per config; it is keyed per entry
  /// through hash_config). Two contexts with equal hash_context produce
  /// bit-identical results for equal (circuit, config, pipeline, Tc) —
  /// the compatibility check for replaying a persisted cache.
  static std::uint64_t hash_context(const api::OptContext& ctx);

 private:
  struct Entry {
    api::PipelineReport report;
    netlist::Netlist result;  ///< the optimized netlist, full copy
  };
  struct KeyHash {
    std::size_t operator()(const api::ResultCacheKey& k) const noexcept;
  };
  struct Slot {
    // shared_ptr: an in-flight lookup copies from its entry outside the
    // lock while an LRU eviction may drop the map's reference.
    std::shared_ptr<const Entry> entry;
    std::list<api::ResultCacheKey>::iterator lru;  ///< position in lru_
  };

  /// Returns true when the key was actually inserted (first writer).
  /// Keys evicted to make room are appended to the out-vectors so the
  /// caller can report them to the listener outside the lock.
  bool store_locked(const api::ResultCacheKey& key,
                    std::shared_ptr<const Entry> entry,
                    std::vector<api::ResultCacheKey>& evicted,
                    std::vector<api::ResultCacheKey>& evicted_delays)
      POPS_REQUIRES(mu_);
  void evict_over_capacity_locked(
      std::vector<api::ResultCacheKey>& evicted,
      std::vector<api::ResultCacheKey>& evicted_delays) POPS_REQUIRES(mu_);

  // mu_ guards the whole mutable state: the entry map + its LRU order,
  // the initial-delay memo + its FIFO order, the capacity bound, and the
  // hit/miss/eviction counters. Compiler-checked (POPS_GUARDED_BY): an
  // access outside the lock is a -Wthread-safety error under Clang.
  mutable util::Mutex mu_;
  std::unordered_map<api::ResultCacheKey, Slot, KeyHash> map_
      POPS_GUARDED_BY(mu_);
  /// front = most recently used
  std::list<api::ResultCacheKey> lru_ POPS_GUARDED_BY(mu_);
  std::unordered_map<api::ResultCacheKey, double, KeyHash> initial_delays_
      POPS_GUARDED_BY(mu_);
  /// FIFO, front = oldest
  std::list<api::ResultCacheKey> initial_delay_order_ POPS_GUARDED_BY(mu_);
  std::size_t capacity_ POPS_GUARDED_BY(mu_) = 0;
  StoreListener* listener_ POPS_GUARDED_BY(mu_) = nullptr;
  std::size_t hits_ POPS_GUARDED_BY(mu_) = 0;
  std::size_t misses_ POPS_GUARDED_BY(mu_) = 0;
  std::size_t evictions_ POPS_GUARDED_BY(mu_) = 0;
};

}  // namespace pops::service
