#pragma once
// Constraint sweeps as a service.
//
// The protocol is a design-time tool only when swept: the paper's own
// evaluation is a grid of (circuit, constraint, policy) points (Tables
// 2-4, Figs. 6/8). SweepService turns a long-lived OptContext/Optimizer
// into exactly that batch server: a declarative SweepSpec describes the
// grid (circuits x Tc ratios x Flimit shield margins x buffer policies),
// the service expands it into jobs, schedules every constraint group onto
// Optimizer::run_many's work-queue workers, memoizes converged points
// through the service's own ResultCache (repeated points are O(lookup)
// and bit-identical), and streams one structured record per completed
// point.
//
// The pops_sweep CLI (tools/pops_sweep.cpp) is a thin front-end: .bench
// files in, one JSON report out (schema in service/serialize.hpp).

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/power/report.hpp"
#include "pops/service/result_cache.hpp"

namespace pops::service {

/// One buffering regime of the sweep grid (the Table 3/4 axis): which
/// structural alternatives the optimizer may use.
struct BufferPolicy {
  std::string name = "standard";
  bool shielding = true;      ///< run the circuit-wide shield pass
  bool restructuring = true;  ///< allow De Morgan restructuring
};

/// Look up a named policy: "standard" (shield + restructure), "no-shield",
/// "no-restructure", "minimal" (neither). Throws std::invalid_argument
/// listing the known names otherwise.
BufferPolicy buffer_policy(const std::string& name);

/// Declarative description of a sweep grid. The expansion is the full
/// cross product policies x vt_policies x temperatures x shield_margins x
/// tc_ratios x circuits, in that nesting order (circuit fastest), so job
/// order — and therefore record order — is deterministic.
struct SweepSpec {
  std::vector<std::string> circuits;  ///< names resolved by the loader
  std::vector<double> tc_ratios;      ///< Tc as a fraction of initial delay
  std::vector<double> shield_margins{1.0};  ///< Flimit bound sweep (Table 2)
  /// Junction temperatures (degC) the power section is evaluated at.
  std::vector<double> temperatures{power::kDefaultTemperatureC};
  /// Vt assignment regimes: "none" (single-Vt) or "multi-vt" (append the
  /// slack-driven high-Vt pass to each job's pipeline).
  std::vector<std::string> vt_policies{"none"};
  std::vector<BufferPolicy> policies{BufferPolicy{}};

  /// Base configuration; each job overrides enable_shielding /
  /// allow_restructuring (policy) and shield_margin (margin axis).
  api::OptimizerConfig base;

  /// Optional declarative pipeline (PassRegistry names). Empty = the
  /// standard pipeline of each job's config. When set, it replaces the
  /// pass sequence for every job, so the policies' `shielding` flag no
  /// longer selects passes (restructuring still applies: it is a config
  /// knob, not a pass).
  std::vector<std::string> pipeline;

  std::size_t n_threads = 0;  ///< workers per batch; 0 = hardware threads

  /// Jobs the spec expands to.
  std::size_t n_jobs() const noexcept {
    return circuits.size() * tc_ratios.size() * shield_margins.size() *
           temperatures.size() * vt_policies.size() * policies.size();
  }

  /// Every violated invariant (empty axes, non-positive ratios/margins,
  /// duplicate policy names, unknown pipeline passes, base config
  /// problems), as human-readable diagnostics.
  std::vector<std::string> validate() const;

  /// Throws std::invalid_argument listing every problem; no-op when valid.
  void ensure_valid() const;
};

/// The configuration one constraint group of a sweep runs under.
struct JobConfig {
  api::OptimizerConfig cfg;
  api::PassPipeline pipeline;
};

/// The (config, pipeline) of the group (policy, vt_policy, temperature_c,
/// shield_margin) of `spec`: spec.base with the group's overrides, and
/// either that config's standard pipeline or the spec's explicit one
/// (with the multi-vt pass appended when the vt policy asks for it and
/// the list lacks it). SweepService::run and fabric::ShardKeyer both
/// derive every group here, so a fleet shards by exactly the cache keys
/// its workers compute.
JobConfig job_config(const SweepSpec& spec, const BufferPolicy& policy,
                     const std::string& vt_policy, double temperature_c,
                     double shield_margin);

/// One completed grid point.
struct SweepPoint {
  std::string circuit;
  double tc_ratio = 0.0;
  double shield_margin = 1.0;
  double temperature_c = power::kDefaultTemperatureC;
  std::string policy;
  std::string vt_policy = "none";
  api::PipelineReport report;
};

/// Outcome of one SweepService::run.
struct SweepReport {
  std::vector<SweepPoint> points;  ///< in deterministic job order
  std::size_t cache_hits = 0;      ///< cache hits during this run
  std::size_t cache_misses = 0;    ///< cache misses during this run
  std::size_t cache_entries = 0;   ///< entries resident after this run
  double wall_ms = 0.0;
};

class SweepService {
 public:
  /// Resolves a spec circuit name to a netlist (called once per name; the
  /// service copies the prototype for every job touching it).
  using CircuitLoader =
      std::function<netlist::Netlist(const std::string& name)>;

  /// Invoked after each completed point, in job order (from the scheduling
  /// thread, so sinks need no locking). Used by the CLI to stream JSONL
  /// records while the sweep is still running.
  using RecordSink = std::function<void(const SweepPoint&)>;

  /// Bind to a context (borrowed; must outlive the service). With
  /// `use_cache`, memoize through a ResultCache of the service's own, so
  /// its repeated sweeps replay; other services never share it.
  explicit SweepService(const api::OptContext& ctx, bool use_cache = true);

  /// Bind to a context and memoize through `cache` (shared, e.g. with a
  /// server's journal); nullptr = uncached.
  SweepService(const api::OptContext& ctx,
               std::shared_ptr<ResultCache> cache);

  /// Expand `spec` and run every job. Throws on an invalid spec or a
  /// loader failure; per-point optimization errors propagate like
  /// Optimizer::run_many's. Safe to call concurrently: the report's cache
  /// counters are this run's own.
  SweepReport run(const SweepSpec& spec, const CircuitLoader& load,
                  const RecordSink& sink = {}) const;

  /// The cache this service memoizes through; nullptr when uncached.
  ResultCache* cache() const noexcept { return cache_.get(); }

  const api::OptContext& context() const noexcept { return *ctx_; }

 private:
  const api::OptContext* ctx_;
  std::shared_ptr<ResultCache> cache_;
};

}  // namespace pops::service
