#pragma once
// Stable JSON projections of the optimization result types.
//
// Sweep records must be machine-readable and diffable across runs: the
// same result serializes to the same bytes (util::Json keeps key insertion
// order and round-trip number formatting). Schema (all delays ps, areas
// um, the paper's units):
//
//   OptimizerConfig  -> {hard_ratio, weak_ratio, allow_restructuring,
//                        max_paths, max_rounds, tc_margin, pi_slew_ps,
//                        shield_margin, max_shield_buffers, shield_fanout,
//                        enable_shielding, enable_cleanup, enable_protocol,
//                        delay_model, table_model: {slew_grid_ps,
//                        load_grid}}
//   PassReport       -> {pass, changed, delay_before_ps, delay_after_ps,
//                        area_before_um, area_after_um, buffers_inserted,
//                        sinks_rewired, gates_removed, paths_optimized,
//                        protocol?}
//   CircuitResult    -> {tc_ps, achieved_delay_ps, area_um, met,
//                        paths_optimized, per_path: [{domain, method,
//                        tmin_ps, tmax_ps, delay_ps, area_um,
//                        buffers_inserted, gates_restructured}]}
//   PipelineReport   -> {tc_ps, met, delay_model,
//                        initial/final delay+area, totals...,
//                        passes: [PassReport],
//                        measured?: {from_cache, runtime_ms,
//                        pass_runtimes_ms: [per pass]}}
//   SweepPoint       -> {circuit, tc_ratio, shield_margin, policy,
//                        report: PipelineReport}
//   SweepReport      -> {points: [SweepPoint], cache: {hits, misses,
//                        entries}, wall_ms?}
//
// Every field OUTSIDE the trailing "measured" section (and the report's
// wall_ms) is a pure function of the inputs: same spec, same bytes, run
// to run. The measured fields — runtimes and cache provenance — are the
// only run-dependent ones, quarantined so consumers can diff record
// streams byte-exactly by serializing with SerializeOptions{.measured =
// false} (pops_sweep/pops_serve --no-runtimes) instead of scrubbing.
//
// The inverse direction exists for the *input* types only (sweep specs
// enter as files through pops_sweep --spec): config_from_json /
// sweep_spec_from_json accept exactly the projections above (policies may
// be names or {name, shielding, restructuring} objects) and reject
// unknown keys with diagnostics listing every problem.

#include "pops/api/api.hpp"
#include "pops/core/protocol.hpp"
#include "pops/service/sweep.hpp"
#include "pops/util/json.hpp"

namespace pops::service {

/// Controls whether run-dependent fields (the "measured" section, the
/// sweep report's wall_ms) are emitted. Everything else is deterministic.
struct SerializeOptions {
  bool measured = true;
};

util::Json to_json(const api::OptimizerConfig& cfg);
util::Json to_json(const api::PassReport& report);
util::Json to_json(const core::PathDecision& decision);
util::Json to_json(const core::CircuitResult& result);
util::Json to_json(const api::PipelineReport& report,
                   const SerializeOptions& opt = {});
util::Json to_json(const BufferPolicy& policy);
util::Json to_json(const SweepSpec& spec);
util::Json to_json(const SweepPoint& point, const SerializeOptions& opt = {});
util::Json to_json(const SweepReport& report, const SerializeOptions& opt = {});

/// Overlay the members of `j` onto a default-constructed OptimizerConfig.
/// Accepts the to_json(OptimizerConfig) schema; unknown keys or
/// wrong-kinded values throw std::invalid_argument listing every problem.
/// The retired STA worker keys "sta_workers" and "sta_parallel_min_nodes"
/// are still accepted, whatever their value, and ignored, so spec files
/// written before sweeps became sequential-only keep loading.
/// The result is NOT validated here — SweepSpec::validate() (or
/// Optimizer construction) owns that, so file input and programmatic
/// input share one validation path.
api::OptimizerConfig config_from_json(const util::Json& j);

/// Parse a SweepSpec from its JSON projection. Same conventions as
/// config_from_json; "policies" entries may be policy names (resolved via
/// buffer_policy) or full {name, shielding, restructuring} objects.
SweepSpec sweep_spec_from_json(const util::Json& j);

}  // namespace pops::service
