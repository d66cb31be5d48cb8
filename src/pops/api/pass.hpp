#pragma once
// The pass interface of the optimization pipeline.
//
// A Pass is one netlist-to-netlist transformation step toward a delay
// constraint: structural (shielding, inverter cancellation, dead sweep) or
// sizing (the Fig. 7 protocol). Passes are composed by PassPipeline and
// report what they did through a structured PassReport, so drivers can
// aggregate diagnostics across passes and circuits without parsing text.
//
// Contract: a Pass must leave the netlist functionally equivalent, must be
// deterministic, and — because Optimizer::run_many shares pass objects
// across worker threads — must keep all its state in locals (the built-in
// passes are stateless).

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "pops/api/config.hpp"
#include "pops/api/context.hpp"
#include "pops/core/protocol.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/netlist/netlist.hpp"

namespace pops::timing {
class IncrementalSta;
}

namespace pops::api {

/// Structured diagnostics of one pass execution. The area/delay/runtime
/// envelope is filled in by the pipeline (so every pass is measured the
/// same way); the counters are filled in by the pass itself.
struct PassReport {
  std::string pass_name;

  // Filled by the pipeline around the pass.
  double delay_before_ps = 0.0;
  double delay_after_ps = 0.0;
  double area_before_um = 0.0;
  double area_after_um = 0.0;
  double runtime_ms = 0.0;

  // Filled by the pass.
  bool changed = false;                ///< did the pass touch the netlist?
  std::size_t buffers_inserted = 0;    ///< shield / in-path buffers added
  std::size_t sinks_rewired = 0;       ///< inverter-pair cancellations
  std::size_t gates_removed = 0;       ///< dead gates swept
  std::size_t paths_optimized = 0;     ///< protocol path optimizations
  std::size_t cells_high_vt = 0;       ///< multi-vt cells moved off class 0
  double leakage_saved_uw = 0.0;       ///< multi-vt leakage recovered
  /// Per-path protocol outcome, present for the protocol pass only.
  std::optional<core::CircuitResult> circuit;
  /// Transient: the 512-vector kPowerRngStream activity of the netlist as
  /// the pass leaves it, when the pass simulated one (the multi-vt pass).
  /// PassPipeline::run moves it out before the report is stored and reuses
  /// it for the final power report unless a later pass changed the
  /// netlist or moved the timing engine. Never serialized or cached.
  std::shared_ptr<const netlist::ActivityReport> activity;
};

class Pass {
 public:
  virtual ~Pass() = default;

  /// Stable identifier ("shield", "cancel-inverters", ...).
  virtual std::string_view name() const noexcept = 0;

  /// Extra bytes folded into result-cache keys alongside name()
  /// (api::ResultCacheHook implementations hash both). Custom passes whose
  /// behaviour depends on constructor parameters MUST override this to
  /// encode those parameters — otherwise two same-named pass instances
  /// with different tuning would share cached results. The built-in
  /// passes are fully described by the OptimizerConfig, so the default
  /// empty salt is correct for them — except where a pass tags the
  /// revision of its algorithm, so that results (and journals) computed
  /// by an earlier revision never replay as this one's.
  virtual std::string cache_salt() const { return {}; }

  /// Transform `nl` toward `tc_ps`, recording counters in `report`
  /// (report arrives with pass_name set and the before-envelope filled).
  /// The delay-model backend is ctx.backend(cfg). `sta` is the pipeline's
  /// per-run incremental analyzer over `nl`, current whenever it has a
  /// result. A pass that edits the netlist should report the edits
  /// through sta.update() or sta.compact() (or sta.invalidate() for edits
  /// outside both contracts) so later passes and the pipeline's envelope
  /// measurements reuse the maintained state instead of re-running STA
  /// cold. A pass that changes the netlist without touching the engine
  /// stays correct: the pipeline detects the unmoved revision and
  /// invalidates.
  virtual void run(netlist::Netlist& nl, const OptContext& ctx,
                   const OptimizerConfig& cfg, double tc_ps,
                   PassReport& report, timing::IncrementalSta& sta) const = 0;
};

}  // namespace pops::api
