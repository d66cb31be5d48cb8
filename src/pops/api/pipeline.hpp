#pragma once
// Ordered pass composition with per-pass structured diagnostics.
//
// A PassPipeline owns a sequence of passes and runs them in order over one
// netlist, measuring every pass the same way (STA delay and total width
// before/after, wall-clock runtime) and aggregating the per-pass counters
// into one PipelineReport. `standard()` builds the canonical POPS order —
// shield -> cancel-inverters -> sweep-dead -> protocol — honouring the
// enable_* flags of the config; custom pipelines are built by add() /
// emplace() with user passes implementing the Pass interface.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pops/api/pass.hpp"

namespace pops::api {

/// Aggregated outcome of one pipeline run on one circuit.
struct PipelineReport {
  double tc_ps = 0.0;
  double initial_delay_ps = 0.0;
  double final_delay_ps = 0.0;
  double initial_area_um = 0.0;
  double final_area_um = 0.0;
  bool met = false;  ///< final_delay <= Tc (within STA tolerance)
  /// True when this report was replayed from a ResultCacheHook instead of
  /// recomputed; all other fields are bit-identical to the original run.
  bool from_cache = false;
  /// Delay-model backend that produced this result ("closed-form",
  /// "table"); cached replays carry the producing run's backend.
  std::string delay_model;

  /// Power of the final implementation under the configured backend
  /// (cfg.power_model at cfg.temperature_c, activities drawn from the
  /// reserved kPowerRngStream so the bytes are fleet-deterministic);
  /// cached replays carry the producing run's numbers.
  power::PowerReport power;
  /// Gate count per Vt class of the final implementation, indexed by
  /// Technology::vt_classes position (single-class technologies report
  /// one bucket).
  std::vector<std::size_t> vt_mix;

  std::vector<PassReport> passes;  ///< one entry per executed pass

  // Aggregates over `passes` (tested to equal the per-pass sums).
  std::size_t total_buffers_inserted() const noexcept;
  std::size_t total_sinks_rewired() const noexcept;
  std::size_t total_gates_removed() const noexcept;
  std::size_t total_paths_optimized() const noexcept;
  std::size_t total_cells_high_vt() const noexcept;
  double total_leakage_saved_uw() const noexcept;
  double total_runtime_ms() const noexcept;

  /// The protocol pass's circuit result (per-path domains/methods), or
  /// nullptr if no protocol pass ran.
  const core::CircuitResult* protocol() const noexcept;
};

class PassPipeline {
 public:
  PassPipeline() = default;
  PassPipeline(PassPipeline&&) = default;
  PassPipeline& operator=(PassPipeline&&) = default;

  /// Append a pass; returns *this for chaining. Throws
  /// std::invalid_argument for a null pass or a name already in the
  /// pipeline (duplicate names would make per-pass reports ambiguous).
  PassPipeline& add(std::unique_ptr<Pass> pass);

  /// Construct-and-append. `pipeline.emplace<ShieldPass>()`.
  template <typename P, typename... Args>
  PassPipeline& emplace(Args&&... args) {
    return add(std::make_unique<P>(std::forward<Args>(args)...));
  }

  /// The canonical pipeline for `cfg` (shield -> cancel-inverters ->
  /// sweep-dead -> protocol -> multi-vt, gated by the enable_* flags).
  static PassPipeline standard(const OptimizerConfig& cfg);

  std::size_t size() const noexcept { return passes_.size(); }
  bool empty() const noexcept { return passes_.empty(); }
  std::vector<std::string> pass_names() const;

  /// The i-th pass, 0-based (introspection: cache keys, tooling).
  const Pass& pass(std::size_t i) const { return *passes_.at(i); }

  /// Run every pass in order over `nl` toward `tc_ps`, under the backend
  /// ctx.backend(cfg). Thread-safe for concurrent calls on distinct
  /// netlists as long as every pass keeps its state in locals (true of
  /// all built-in passes).
  /// `initial_delay_ps` > 0 supplies a precomputed initial critical delay
  /// (callers that already ran STA to derive Tc, e.g. run_relative, skip
  /// a redundant analysis); <= 0 computes it here.
  PipelineReport run(netlist::Netlist& nl, const OptContext& ctx,
                     const OptimizerConfig& cfg, double tc_ps,
                     double initial_delay_ps = -1.0) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace pops::api
