#pragma once
// The built-in passes of the standard pipeline, in their canonical order:
//
//   shield            circuit-wide Flimit shielding (netopt.hpp kernel)
//   cancel-inverters  INV(INV(x)) peephole           (netopt.hpp kernel)
//   sweep-dead        dead-logic removal             (netopt.hpp kernel)
//   protocol          the Fig. 7 circuit protocol (the driver loop lives
//                     here, in ProtocolPass::run_protocol)
//
// The structural passes run before the protocol so the sizing engine sees
// the cleaned, shielded implementation — buffering decisions made on nets
// the protocol would otherwise have to size around.

#include "pops/api/pass.hpp"

namespace pops::api {

/// Circuit-wide Flimit-guided shield-buffer insertion
/// (wraps core::shield_high_fanout_nets).
class ShieldPass final : public Pass {
 public:
  std::string_view name() const noexcept override { return "shield"; }
  void run(netlist::Netlist& nl, const OptContext& ctx,
           const OptimizerConfig& cfg, double tc_ps, PassReport& report,
           timing::IncrementalSta& sta) const override;
};

/// INV(INV(x)) cancellation (wraps core::cancel_inverter_pairs).
class CancelInvertersPass final : public Pass {
 public:
  std::string_view name() const noexcept override { return "cancel-inverters"; }
  void run(netlist::Netlist& nl, const OptContext& ctx,
           const OptimizerConfig& cfg, double tc_ps, PassReport& report,
           timing::IncrementalSta& sta) const override;
};

/// Dead-logic sweep (Netlist::compact, in place).
class SweepDeadPass final : public Pass {
 public:
  std::string_view name() const noexcept override { return "sweep-dead"; }
  /// Compaction renumbers the netlist; the shared engine follows through
  /// IncrementalSta::compact instead of restarting cold.
  void run(netlist::Netlist& nl, const OptContext& ctx,
           const OptimizerConfig& cfg, double tc_ps, PassReport& report,
           timing::IncrementalSta& sta) const override;
};

/// The Fig. 7 protocol applied circuit-wide: repeatedly extract the K most
/// critical paths, optimize each as a bounded path, write the sizes back,
/// and re-run STA until the constraint holds or the round budget is spent.
class ProtocolPass final : public Pass {
 public:
  std::string_view name() const noexcept override { return "protocol"; }
  /// Solver revision tag: the constant-sensitivity solve searches
  /// [a_floor, 0] by Illinois regula falsi from the Tmin sizing, whose
  /// fits differ from the earlier grow-then-bisect solve at the 1e-5
  /// level, so entries from that solver must not replay.
  std::string cache_salt() const override { return "sizing=illinois"; }
  void run(netlist::Netlist& nl, const OptContext& ctx,
           const OptimizerConfig& cfg, double tc_ps, PassReport& report,
           timing::IncrementalSta& sta) const override;

  /// The driver loop itself, in terms of the core types, for callers that
  /// drive the protocol without a pipeline. `shared` (optional) is a
  /// caller-owned engine over `nl` reused in place of a private one, same
  /// contract as core::shield_high_fanout_nets: an existing result is
  /// trusted, all sizing rounds are reported through update(), and its
  /// StaOptions are the caller's responsibility (the private engine
  /// derives them from `opt`).
  static core::CircuitResult run_protocol(
      netlist::Netlist& nl, const timing::DelayModel& dm,
      const core::FlimitTable& table, double tc_ps,
      const core::CircuitOptions& opt,
      timing::IncrementalSta* shared = nullptr);
};

/// Slack-driven leakage recovery: greedily move the highest-slack gates
/// into the lowest-leakage non-default Vt class of cfg.vt_library while
/// the constraint stays met. The decisions are those of flipping one gate
/// at a time and reverting a flip that breaks Tc; when the target class
/// slows both edges, runs of flips are timed with one update of the
/// shared incremental engine each (doubling after a met run, reverting
/// the tail half of a missed one), which by monotonicity reaches the same
/// decisions. First consumer of the power::PowerModel backends: the
/// report carries the number of cells moved and the leakage recovered.
class MultiVtPass final : public Pass {
 public:
  std::string_view name() const noexcept override { return "multi-vt"; }
  void run(netlist::Netlist& nl, const OptContext& ctx,
           const OptimizerConfig& cfg, double tc_ps, PassReport& report,
           timing::IncrementalSta& sta) const override;
};

}  // namespace pops::api
