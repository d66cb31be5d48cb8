#pragma once
// Shared optimization context.
//
// Every pass of the pipeline needs the same things: the technology node,
// the calibrated cell library, a delay-model backend over it (closed-form
// eq. 1-3 by default; see timing/delay_model.hpp) with its Flimit
// characterization (the "Library characterization" step at the top of
// the Fig. 7 protocol), and the RNG seed that makes every stochastic
// consumer (power estimation, synthetic benchmarks) reproducible.
// OptContext owns them as one object.
//
// Concurrency model: nothing here is ever swapped. The library is
// interned per technology (liberty::Library::intern) and read-only. Each
// delay-model backend is resolved once per selector into an immutable
// DelayBackend, kept in an append-only, mutex-guarded table for the
// context's lifetime; api::Optimizer resolves its config's backend at
// construction and every pass reads ctx.backend(cfg). Optimizers with
// different backends therefore run concurrently on one context, and the
// only mutation after construction — a Flimit slot filled on first use —
// is idempotent (core::FlimitTable).
// There is no cache slot either: every member function is const, so
// every holder takes the context by const&, and callers hand a result
// cache to each Optimizer (api/optimizer.hpp).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "pops/core/buffer.hpp"
#include "pops/liberty/library.hpp"
#include "pops/process/technology.hpp"
#include "pops/timing/delay_model.hpp"
#include "pops/util/rng.hpp"
#include "pops/util/thread_annotations.hpp"

namespace pops::netlist {
class Netlist;
}

namespace pops::api {

class OptContext;
struct OptimizerConfig;
class PassPipeline;
struct PipelineReport;

/// RNG stream reserved for power-activity simulation (OptContext::
/// make_rng). Every power evaluation in the api layer — the pipeline's
/// final report, the multi-vt pass's recovered-leakage accounting — draws
/// from this stream, so the simulated vectors (hence the power bytes) are
/// identical across processes and across the sweep fleet.
inline constexpr std::uint64_t kPowerRngStream = 0x706f776572ull;  // "power"

/// Key of one memoized optimization point: circuit content, effective
/// configuration (config + pipeline + context characterization, including
/// the delay-model backend), and the exact constraint value. Two points
/// with equal keys produce bit-identical results, so a cached entry may be
/// replayed in place of a fresh run.
///
/// All three words are pure content — deterministic across processes and
/// contexts, so they can be persisted (service/cache_journal.hpp) and
/// replayed after a restart. Cached netlists point only into the interned
/// library of their technology, which every context over that technology
/// shares, so any such context may replay them.
struct ResultCacheKey {
  std::uint64_t circuit_hash = 0;  ///< content hash of the input netlist
  std::uint64_t config_hash = 0;   ///< config + pipeline + context tuple
  std::uint64_t tc_bits = 0;       ///< bit pattern of the absolute Tc (ps)
  friend bool operator==(const ResultCacheKey&,
                         const ResultCacheKey&) = default;
};

/// Hook through which the Optimizer memoizes converged runs. The concrete
/// implementation lives one layer up (service::ResultCache); the api layer
/// only depends on this interface, so a caller hands its cache to an
/// Optimizer without the api -> service dependency inversion.
///
/// Contract: lookup must only report a hit for a key produced by make_key
/// on identical inputs, and must then restore the netlist and report
/// bit-identically to the run store() recorded. Implementations must be
/// safe for concurrent calls (Optimizer::run_many workers share the hook).
class ResultCacheHook {
 public:
  virtual ~ResultCacheHook() = default;

  /// Key for optimizing `nl` under (cfg, pipeline, tc_ps) in this context.
  virtual ResultCacheKey make_key(const OptContext& ctx,
                                  const netlist::Netlist& nl,
                                  const OptimizerConfig& cfg,
                                  const PassPipeline& pipeline,
                                  double tc_ps) const = 0;

  /// On a hit: overwrite `nl` with the cached optimized netlist, fill
  /// `report`, and return true. On a miss: record the miss, return false.
  virtual bool lookup(const ResultCacheKey& key, netlist::Netlist& nl,
                      PipelineReport& report) = 0;

  /// Record a freshly computed result (`nl` is the *optimized* netlist).
  virtual void store(const ResultCacheKey& key, const netlist::Netlist& nl,
                     const PipelineReport& report) = 0;

  /// Memoized initial critical delay for the circuit + configuration of
  /// `key` (tc_bits ignored), or nullopt when unknown. Relative runs need
  /// one STA to turn a Tc ratio into the absolute constraint before they
  /// can even form the full key; memoizing it makes repeated sweep points
  /// O(lookup) end to end. nullopt (not a sentinel value) distinguishes
  /// "unknown" from a legitimately memoized 0.0 — degenerate netlists
  /// with zero critical delay must not re-run full STA on every replay.
  virtual std::optional<double> initial_delay_ps(
      const ResultCacheKey& key) const = 0;
  virtual void store_initial_delay(const ResultCacheKey& key,
                                   double delay_ps) = 0;
};

/// One resolved delay-model backend: the model and its Flimit table.
/// Immutable once built; the table only fills its own slots, each with
/// the single value the model defines.
struct DelayBackend {
  std::unique_ptr<const timing::DelayModel> model;
  core::FlimitTable flimits;

  const timing::DelayModel& dm() const noexcept { return *model; }
};

class OptContext {
 public:
  /// Build the context for one technology node (default: the paper's
  /// 0.25µm process). `flimit_opt` parameterizes the Fig. 5
  /// characterization set-up behind every backend's FlimitTable.
  explicit OptContext(process::Technology tech = process::Technology::cmos025(),
                      core::FlimitOptions flimit_opt = {},
                      std::uint64_t rng_seed = kDefaultSeed);

  // Optimizers and passes hold references to the backends.
  OptContext(const OptContext&) = delete;
  OptContext& operator=(const OptContext&) = delete;

  const process::Technology& tech() const noexcept { return lib_->tech(); }
  const liberty::Library& lib() const noexcept { return *lib_; }

  /// The backend `cfg` selects (OptimizerConfig::delay_model_selector),
  /// built over lib() on the first request for its selector and kept
  /// unchanged for the context's lifetime. Thread-safe. Throws
  /// ConfigError for an invalid selection.
  const DelayBackend& backend(const OptimizerConfig& cfg) const
      POPS_EXCLUDES(backends_mu_);

  /// The default (closed-form) backend's model and Flimit table.
  const timing::DelayModel& dm() const noexcept { return default_->dm(); }
  const core::FlimitTable& flimits() const noexcept {
    return default_->flimits;
  }

  /// Fill the default backend's Flimit table for every (driver, gate)
  /// cell pair, so later lookups never pay for characterization.
  void warm_flimits() const;

  std::uint64_t rng_seed() const noexcept { return rng_seed_; }

  /// A fresh deterministic engine. Distinct `stream` values give
  /// decorrelated engines off the same context seed (splitmix64 expands
  /// the combined seed inside Rng).
  util::Rng make_rng(std::uint64_t stream = 0) const noexcept {
    return util::Rng(rng_seed_ + 0x9E3779B97F4A7C15ull * (stream + 1));
  }

  static constexpr std::uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

 private:
  const liberty::Library* lib_;
  core::FlimitOptions flimit_opt_;
  std::uint64_t rng_seed_;
  /// Append-only: entries are never replaced or erased, so references
  /// handed out by backend() stay valid for the context's lifetime.
  mutable util::Mutex backends_mu_;
  mutable std::map<std::string, std::unique_ptr<const DelayBackend>>
      backends_ POPS_GUARDED_BY(backends_mu_);
  const DelayBackend* default_;
};

}  // namespace pops::api
