#pragma once
// The unified entry point of the POPS reproduction.
//
//   api::OptContext ctx;                            // library + model + Flimit
//   api::Optimizer opt(ctx);                        // validated config
//   api::PipelineReport r = opt.run_relative(nl, 0.8);
//
// One Optimizer drives the standard pass pipeline (or any custom
// PassPipeline) over single circuits or over batches: run_many fans a
// span of independent netlists out over util::ThreadPool::global() —
// each circuit is optimized by the same deterministic pipeline, so the
// results are bit-identical for any thread count (verified in tests).

#include <cstddef>
#include <span>
#include <vector>

#include "pops/api/config.hpp"
#include "pops/api/context.hpp"
#include "pops/api/pipeline.hpp"

namespace pops::api {

class Optimizer {
 public:
  /// Bind to a context (borrowed; must outlive the optimizer) with a
  /// validated config, and resolve the config's delay-model backend from
  /// the context once. `cache` (borrowed; nullptr = uncached) memoizes
  /// every point this optimizer runs. Throws ConfigError listing every
  /// violated invariant, so a bad config fails at construction instead
  /// of silently misclassifying constraint domains later.
  explicit Optimizer(const OptContext& ctx, OptimizerConfig cfg = {},
                     ResultCacheHook* cache = nullptr);

  const OptimizerConfig& config() const noexcept { return cfg_; }
  const OptContext& context() const noexcept { return *ctx_; }
  const PassPipeline& pipeline() const noexcept { return pipeline_; }

  /// Replace the standard pipeline with a custom one (pass plugins).
  void set_pipeline(PassPipeline pipeline);

  // ----- single circuit -------------------------------------------------------

  /// Optimize `nl` in place toward the absolute constraint `tc_ps`.
  PipelineReport run(netlist::Netlist& nl, double tc_ps) const;

  /// Optimize toward Tc = `tc_ratio` x the circuit's initial critical
  /// delay (the way the paper's circuit experiments state constraints).
  PipelineReport run_relative(netlist::Netlist& nl, double tc_ratio) const;

  // ----- batch ----------------------------------------------------------------

  /// Optimize every netlist of `circuits` in place, fanning the work out
  /// over `n_threads` workers of the shared pool (0 = hardware
  /// concurrency; 1 runs inline on the caller). Circuits are
  /// independent and the pipeline is deterministic, so results are
  /// bit-identical for any thread count.
  /// Reports are returned in input order.
  std::vector<PipelineReport> run_many(std::span<netlist::Netlist> circuits,
                                       double tc_ps,
                                       std::size_t n_threads = 0) const;

  /// Batch version of run_relative: per-circuit Tc = ratio x initial delay.
  std::vector<PipelineReport> run_many_relative(
      std::span<netlist::Netlist> circuits, double tc_ratio,
      std::size_t n_threads = 0) const;

 private:
  std::vector<PipelineReport> run_many_impl(std::span<netlist::Netlist> nls,
                                            double tc, bool relative,
                                            std::size_t n_threads) const;
  /// The single optimization point behind every entry point. `value` is
  /// the absolute Tc (ps), or with `relative` a ratio of the circuit's
  /// initial delay. With a cache, replays a memoized run (flagged
  /// report.from_cache, bit-identical to a fresh one) or records the
  /// fresh result; a relative point's initial STA is memoized too, so a
  /// repeated point is O(lookup) end to end.
  PipelineReport run_point(netlist::Netlist& nl, double value,
                           bool relative) const;
  double initial_delay_ps(const netlist::Netlist& nl) const;

  const OptContext* ctx_;
  OptimizerConfig cfg_;
  ResultCacheHook* cache_;
  const DelayBackend* backend_;
  PassPipeline pipeline_;
};

}  // namespace pops::api
