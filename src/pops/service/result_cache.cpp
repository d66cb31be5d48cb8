#include "pops/service/result_cache.hpp"

#include <bit>
#include <string_view>
#include <utility>
#include <vector>

#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"
#include "pops/util/hash.hpp"

namespace pops::service {

using util::Fnv1a;

std::uint64_t ResultCache::hash_netlist(const netlist::Netlist& nl) {
  Fnv1a h;
  // The top-level name is content too: a hit overwrites the caller's
  // netlist wholesale, so structurally identical circuits with different
  // names must not share entries (the replay would silently rename).
  h.str(nl.name());
  h.str(nl.lib().tech().name);
  h.u64(nl.size());
  for (netlist::NodeId id = 0; id < static_cast<netlist::NodeId>(nl.size());
       ++id) {
    const netlist::Node& n = nl.node(id);
    h.str(n.name);
    h.b(n.is_input);
    h.i(static_cast<long long>(n.kind));
    h.u64(n.fanins.size());
    for (const netlist::NodeId f : n.fanins) h.i(f);
    h.f64(n.wn_um);
    h.f64(n.wire_cap_ff);
    h.b(n.is_output);
    h.f64(n.po_load_ff);
    h.i(n.vt);
  }
  return h.h;
}

std::uint64_t ResultCache::hash_context(const api::OptContext& ctx) {
  Fnv1a h;
  // Every Technology parameter (two contexts may carry same-named but
  // differently calibrated nodes), the Fig. 5 Flimit set-up, and the RNG
  // seed handed to stochastic consumers. Deliberately NOT the delay-model
  // backend: a context serves every backend, each keyed per entry
  // (hash_config).
  const process::Technology& tech = ctx.tech();
  h.str(tech.name);
  h.f64(tech.feature_um);
  h.f64(tech.vdd);
  h.f64(tech.vtn);
  h.f64(tech.vtp);
  h.f64(tech.tau_ps);
  h.f64(tech.r_ratio);
  h.f64(tech.cgate_ff_per_um);
  h.f64(tech.cdiff_ff_per_um);
  h.f64(tech.wmin_um);
  h.f64(tech.wmax_um);
  h.f64(tech.alpha_n);
  h.f64(tech.alpha_p);
  h.f64(tech.idsat_n_ma_um);
  h.f64(tech.idsat_p_ma_um);
  // Leakage characterization: the Vt-class table and the temperature/gate
  // leakage calibration feed both power reports and Vt-derated timing.
  h.f64(tech.ioff_doubling_c);
  h.f64(tech.igate_na_per_um);
  h.u64(tech.vt_classes.size());
  for (const process::VtClass& cls : tech.vt_classes) {
    h.str(cls.name);
    h.f64(cls.vtn);
    h.f64(cls.vtp);
    h.f64(cls.ioff_na_per_um);
  }
  const core::FlimitOptions& fo = ctx.flimits().options();
  h.f64(fo.driver_drive_x);
  h.f64(fo.gate_drive_x);
  h.f64(fo.f_lo);
  h.f64(fo.f_hi);
  h.f64(fo.tol);
  h.i(static_cast<long long>(fo.aggregate));
  h.u64(ctx.rng_seed());
  return h.h;
}

std::uint64_t ResultCache::hash_config(const api::OptContext& ctx,
                                       const api::OptimizerConfig& cfg,
                                       const api::PassPipeline& pipeline) {
  Fnv1a h;
  // Context characterization — pure content, so config hashes can be
  // persisted and compared across processes.
  h.u64(hash_context(ctx));

  // Delay-model backend identity: family name plus content hash (for a
  // table backend, the grid and every tabulated value), so closed-form and
  // table runs — or two differently characterized tables — never alias.
  const timing::DelayModel& dm = ctx.backend(cfg).dm();
  h.str(dm.name());
  h.u64(dm.content_hash());

  // The pass sequence actually run — names plus each pass's cache salt
  // (custom passes encode constructor parameters there). The enable_*
  // flags are NOT hashed: they only select passes for standard(), and the
  // realized pass list captures that already.
  bool has_shield = false;
  bool has_protocol = false;
  bool has_multi_vt = false;
  bool has_custom = false;
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const api::Pass& pass = pipeline.pass(i);
    const std::string_view name = pass.name();
    h.str(name);
    h.str(pass.cache_salt());
    if (name == "shield") has_shield = true;
    else if (name == "protocol") has_protocol = true;
    else if (name == "multi-vt") has_multi_vt = true;
    else if (name != "cancel-inverters" && name != "sweep-dead")
      has_custom = true;
  }

  // Power-model backend identity + evaluation temperature: every pipeline
  // report carries a power section evaluated under these, so they key
  // every entry (unlike the Vt library below, which only the multi-vt
  // pass reads).
  h.str(cfg.power_model);
  h.f64(cfg.temperature_c);

  // Normalized constraint tuple: only knobs a pass of this pipeline can
  // read contribute, so e.g. a shield-margin sweep under a no-shield
  // policy collapses to one cache entry per (circuit, Tc). An unknown
  // (custom) pass may read any knob — hash everything then.
  h.f64(cfg.pi_slew_ps);  // STA envelope measurement: affects every report
  if (has_shield || has_custom) {
    h.f64(cfg.shield_margin);
    h.u64(cfg.max_shield_buffers);
    h.f64(cfg.shield_fanout);
  }
  if (has_protocol || has_custom) {
    h.f64(cfg.hard_ratio);
    h.f64(cfg.weak_ratio);
    h.b(cfg.allow_restructuring);
    h.u64(cfg.max_paths);
    h.i(cfg.max_rounds);
    h.f64(cfg.tc_margin);
    h.i(cfg.bounds.max_sweeps);
    h.f64(cfg.bounds.tol);
    h.f64(cfg.bounds.init_scale);
    h.i(cfg.sensitivity.max_sweeps);
    h.f64(cfg.sensitivity.tol);
    h.i(cfg.sensitivity.max_bisect);
    h.f64(cfg.sensitivity.tc_rel_tol);
  }
  if (has_multi_vt || has_custom) {
    h.u64(cfg.vt_library.size());
    for (const std::string& cls : cfg.vt_library) h.str(cls);
  }
  return h.h;
}

api::ResultCacheKey ResultCache::make_key(const api::OptContext& ctx,
                                          const netlist::Netlist& nl,
                                          const api::OptimizerConfig& cfg,
                                          const api::PassPipeline& pipeline,
                                          double tc_ps) const {
  api::ResultCacheKey key;
  key.circuit_hash = hash_netlist(nl);
  key.config_hash = hash_config(ctx, cfg, pipeline);
  key.tc_bits = std::bit_cast<std::uint64_t>(tc_ps);
  return key;
}

bool ResultCache::lookup(const api::ResultCacheKey& key, netlist::Netlist& nl,
                         api::PipelineReport& report) {
  static const obs::Registry::Counter hit_count =
      obs::Registry::global().counter("cache.hits");
  static const obs::Registry::Counter miss_count =
      obs::Registry::global().counter("cache.misses");
  obs::Span span("cache/lookup");
  std::shared_ptr<const Entry> entry;
  {
    util::MutexLock lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      miss_count.add();
      span.arg("hit", 0.0);
      return false;
    }
    ++hits_;
    hit_count.add();
    entry = it->second.entry;  // shared: survives a concurrent eviction
    lru_.splice(lru_.begin(), lru_, it->second.lru);  // mark most recent
  }
  span.arg("hit", 1.0);
  // Entries are immutable after insertion, so the copies may proceed
  // outside the lock while holding shared ownership.
  nl = entry->result;
  report = entry->report;
  return true;
}

void ResultCache::set_store_listener(StoreListener* listener) {
  util::MutexLock lock(mu_);
  listener_ = listener;
}

void ResultCache::store(const api::ResultCacheKey& key,
                        const netlist::Netlist& nl,
                        const api::PipelineReport& report) {
  obs::Span span("cache/store");
  auto entry = std::make_shared<const Entry>(Entry{report, nl});
  bool inserted = false;
  StoreListener* listener = nullptr;
  std::vector<api::ResultCacheKey> evicted;
  std::vector<api::ResultCacheKey> evicted_delays;
  {
    util::MutexLock lock(mu_);
    inserted = store_locked(key, std::move(entry), evicted, evicted_delays);
    listener = listener_;
  }
  // Listener callbacks run outside mu_: the journal takes its own lock
  // and writes to disk — neither may stall concurrent lookups, and the
  // journal's compaction walks the cache (for_each_entry takes mu_).
  if (listener == nullptr) return;
  if (inserted) listener->on_store(key, nl, report);
  for (const api::ResultCacheKey& k : evicted) listener->on_evict(k);
  for (const api::ResultCacheKey& k : evicted_delays)
    listener->on_evict_initial_delay(k);
}

bool ResultCache::store_locked(const api::ResultCacheKey& key,
                               std::shared_ptr<const Entry> entry,
                               std::vector<api::ResultCacheKey>& evicted,
                               std::vector<api::ResultCacheKey>& evicted_delays) {
  const auto [it, inserted] = map_.try_emplace(key);
  if (!inserted) return false;  // first writer wins; racing run_many
                                // workers computed bit-identical results
  lru_.push_front(key);
  it->second = Slot{std::move(entry), lru_.begin()};
  evict_over_capacity_locked(evicted, evicted_delays);
  return true;
}

void ResultCache::evict_over_capacity_locked(
    std::vector<api::ResultCacheKey>& evicted,
    std::vector<api::ResultCacheKey>& evicted_delays) {
  if (capacity_ == 0) return;
  static const obs::Registry::Counter evict_count =
      obs::Registry::global().counter("cache.evictions");
  while (map_.size() > capacity_) {
    evicted.push_back(lru_.back());
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    evict_count.add();
  }
  while (initial_delays_.size() > capacity_) {
    evicted_delays.push_back(initial_delay_order_.front());
    initial_delays_.erase(initial_delay_order_.front());
    initial_delay_order_.pop_front();
  }
}

std::optional<double> ResultCache::initial_delay_ps(
    const api::ResultCacheKey& key) const {
  api::ResultCacheKey memo_key = key;
  memo_key.tc_bits = 0;  // the initial delay precedes any constraint
  util::MutexLock lock(mu_);
  const auto it = initial_delays_.find(memo_key);
  if (it == initial_delays_.end()) return std::nullopt;
  return it->second;
}

void ResultCache::store_initial_delay(const api::ResultCacheKey& key,
                                      double delay_ps) {
  api::ResultCacheKey memo_key = key;
  memo_key.tc_bits = 0;
  StoreListener* listener = nullptr;
  bool inserted = false;
  std::vector<api::ResultCacheKey> evicted;
  std::vector<api::ResultCacheKey> evicted_delays;
  {
    util::MutexLock lock(mu_);
    inserted = initial_delays_.try_emplace(memo_key, delay_ps).second;
    if (inserted) {
      initial_delay_order_.push_back(memo_key);
      evict_over_capacity_locked(evicted, evicted_delays);
    }
    listener = listener_;
  }
  if (listener == nullptr) return;
  if (inserted) listener->on_store_initial_delay(memo_key, delay_ps);
  for (const api::ResultCacheKey& k : evicted) listener->on_evict(k);
  for (const api::ResultCacheKey& k : evicted_delays)
    listener->on_evict_initial_delay(k);
}

ResultCache::Stats ResultCache::stats() const {
  util::MutexLock lock(mu_);
  return Stats{hits_, misses_, map_.size(), evictions_, capacity_};
}

void ResultCache::set_capacity(std::size_t capacity) {
  StoreListener* listener = nullptr;
  std::vector<api::ResultCacheKey> evicted;
  std::vector<api::ResultCacheKey> evicted_delays;
  {
    util::MutexLock lock(mu_);
    capacity_ = capacity;
    evict_over_capacity_locked(evicted, evicted_delays);
    listener = listener_;
  }
  if (listener == nullptr) return;
  for (const api::ResultCacheKey& k : evicted) listener->on_evict(k);
  for (const api::ResultCacheKey& k : evicted_delays)
    listener->on_evict_initial_delay(k);
}

std::size_t ResultCache::capacity() const {
  util::MutexLock lock(mu_);
  return capacity_;
}

void ResultCache::clear() {
  util::MutexLock lock(mu_);
  map_.clear();
  lru_.clear();
  initial_delays_.clear();
  initial_delay_order_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

void ResultCache::for_each_entry(
    const std::function<void(const api::ResultCacheKey&,
                             const netlist::Netlist&,
                             const api::PipelineReport&)>& fn) const {
  // Snapshot the (key, entry) pairs under the lock, then invoke fn
  // outside it: a checkpoint serializes every resident netlist/report
  // (O(cache size)), and holding mu_ for that long would stall every
  // concurrent sweep's lookup/store. Entries are immutable shared_ptrs,
  // so the snapshot stays valid even if an eviction races the visit.
  std::vector<std::pair<api::ResultCacheKey, std::shared_ptr<const Entry>>>
      snapshot;
  {
    util::MutexLock lock(mu_);
    snapshot.reserve(lru_.size());
    for (const api::ResultCacheKey& key : lru_)
      snapshot.emplace_back(key, map_.at(key).entry);
  }
  for (const auto& [key, entry] : snapshot)
    fn(key, entry->result, entry->report);
}

void ResultCache::for_each_initial_delay(
    const std::function<void(const api::ResultCacheKey&, double)>& fn) const {
  std::vector<std::pair<api::ResultCacheKey, double>> snapshot;
  {
    util::MutexLock lock(mu_);
    snapshot.reserve(initial_delay_order_.size());
    for (const api::ResultCacheKey& key : initial_delay_order_)
      snapshot.emplace_back(key, initial_delays_.at(key));
  }
  for (const auto& [key, delay_ps] : snapshot) fn(key, delay_ps);
}

std::size_t ResultCache::KeyHash::operator()(
    const api::ResultCacheKey& k) const noexcept {
  // splitmix64-style mix of the three words.
  std::uint64_t x = k.circuit_hash;
  x ^= k.config_hash + 0x9E3779B97F4A7C15ull + (x << 6) + (x >> 2);
  x ^= k.tc_bits + 0x9E3779B97F4A7C15ull + (x << 6) + (x >> 2);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return static_cast<std::size_t>(x);
}

}  // namespace pops::service
