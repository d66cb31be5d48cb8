#include "pops/api/pipeline.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "pops/api/passes.hpp"
#include "pops/core/protocol.hpp"
#include "pops/obs/clock.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"
#include "pops/power/power_model.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/sta.hpp"
#include "pops/util/rng.hpp"

namespace pops::api {

std::size_t PipelineReport::total_buffers_inserted() const noexcept {
  std::size_t n = 0;
  for (const PassReport& p : passes) n += p.buffers_inserted;
  return n;
}

std::size_t PipelineReport::total_sinks_rewired() const noexcept {
  std::size_t n = 0;
  for (const PassReport& p : passes) n += p.sinks_rewired;
  return n;
}

std::size_t PipelineReport::total_gates_removed() const noexcept {
  std::size_t n = 0;
  for (const PassReport& p : passes) n += p.gates_removed;
  return n;
}

std::size_t PipelineReport::total_paths_optimized() const noexcept {
  std::size_t n = 0;
  for (const PassReport& p : passes) n += p.paths_optimized;
  return n;
}

std::size_t PipelineReport::total_cells_high_vt() const noexcept {
  std::size_t n = 0;
  for (const PassReport& p : passes) n += p.cells_high_vt;
  return n;
}

double PipelineReport::total_leakage_saved_uw() const noexcept {
  double uw = 0.0;
  for (const PassReport& p : passes) uw += p.leakage_saved_uw;
  return uw;
}

double PipelineReport::total_runtime_ms() const noexcept {
  double ms = 0.0;
  for (const PassReport& p : passes) ms += p.runtime_ms;
  return ms;
}

const core::CircuitResult* PipelineReport::protocol() const noexcept {
  for (auto it = passes.rbegin(); it != passes.rend(); ++it)
    if (it->circuit) return &*it->circuit;
  return nullptr;
}

PassPipeline& PassPipeline::add(std::unique_ptr<Pass> pass) {
  if (!pass) throw std::invalid_argument("PassPipeline::add: null pass");
  // Pass names key per-pass reports (and registry/spec lookups); a
  // duplicate would make them ambiguous, so reject it with a diagnostic
  // instead of silently aggregating two passes under one name.
  for (const auto& existing : passes_)
    if (existing->name() == pass->name())
      throw std::invalid_argument("PassPipeline::add: duplicate pass name '" +
                                  std::string(pass->name()) +
                                  "'; per-pass reports would be ambiguous");
  passes_.push_back(std::move(pass));
  return *this;
}

PassPipeline PassPipeline::standard(const OptimizerConfig& cfg) {
  PassPipeline p;
  if (cfg.enable_shielding) p.emplace<ShieldPass>();
  if (cfg.enable_cleanup) {
    p.emplace<CancelInvertersPass>();
    p.emplace<SweepDeadPass>();
  }
  if (cfg.enable_protocol) p.emplace<ProtocolPass>();
  // After the sizing passes: multi-vt spends the slack the protocol left
  // behind, and a later structural pass would invalidate its timing proof.
  if (cfg.enable_multi_vt) p.emplace<MultiVtPass>();
  return p;
}

std::vector<std::string> PassPipeline::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.emplace_back(p->name());
  return names;
}

PipelineReport PassPipeline::run(netlist::Netlist& nl, const OptContext& ctx,
                                 const OptimizerConfig& cfg, double tc_ps,
                                 double initial_delay_ps) const {
  if (!(tc_ps > 0.0))
    throw std::invalid_argument("PassPipeline::run: Tc must be > 0");
  cfg.ensure_valid();

  // One timing engine for the whole run, threaded through every pass: the
  // passes report their edits (or invalidate), so the per-pass delay
  // envelope below reads the maintained result instead of re-running a
  // cold O(E) analysis after every pass. Local by design — run() is
  // called concurrently on distinct netlists by Optimizer::run_many.
  timing::StaOptions sta_opt;
  sta_opt.pi_slew_ps = cfg.pi_slew_ps;
  const timing::DelayModel& dm = ctx.backend(cfg).dm();
  timing::IncrementalSta engine(nl, dm, sta_opt);
  const auto measured_delay = [&engine]() {
    return (engine.has_result() ? engine.result() : engine.run_full())
        .critical_delay_ps;
  };
  static const obs::Registry::Counter stale_invalidations =
      obs::Registry::global().counter("pipeline.engine_invalidated");

  PipelineReport out;
  out.tc_ps = tc_ps;
  out.delay_model = std::string(dm.name());
  out.initial_delay_ps =
      initial_delay_ps > 0.0 ? initial_delay_ps : measured_delay();
  out.initial_area_um = nl.total_width_um();

  double delay = out.initial_delay_ps;
  // The final power report's activity, when a pass simulated it on the
  // netlist as it now stands (see PassReport::activity).
  std::shared_ptr<const netlist::ActivityReport> activity;
  for (const std::unique_ptr<Pass>& pass : passes_) {
    PassReport rep;
    rep.pass_name = std::string(pass->name());
    rep.delay_before_ps = delay;
    rep.area_before_um = nl.total_width_um();

    obs::Span span("pass/", pass->name());
    const obs::StopWatch watch;
    const std::uint64_t revision = engine.revision();
    pass->run(nl, ctx, cfg, tc_ps, rep, engine);
    // Loads feed the simulated switched capacitance and ids index it, so
    // any later change or renumbering (which moves the revision) drops it.
    if (rep.activity)
      activity = std::move(rep.activity);
    else if (rep.changed || engine.revision() != revision)
      activity.reset();
    // A pass that changed the netlist without moving the engine (a custom
    // pass that ignores it, or a built-in whose edits never produced an
    // update) left the maintained state stale — restart cold.
    // The revision also moves on timing-neutral reports, so this never
    // misfires on a pass that did its bookkeeping.
    if (rep.changed && engine.revision() == revision) {
      engine.invalidate();
      stale_invalidations.add();
    }
    rep.runtime_ms = watch.elapsed_ms();

    delay = measured_delay();
    rep.delay_after_ps = delay;
    rep.area_after_um = nl.total_width_um();
    span.arg("delay_after_ps", rep.delay_after_ps);
    span.arg("area_after_um", rep.area_after_um);
    out.passes.push_back(std::move(rep));
  }

  out.final_delay_ps = delay;
  out.final_area_um = nl.total_width_um();
  // Power of the final implementation, under the configured backend. The
  // reserved activity stream keeps these bytes identical across processes
  // (pops_sweep, pops_serve, a fabric fleet) for the same point.
  // A reused activity is that stream's simulation of this same logic.
  {
    const std::unique_ptr<power::PowerModel> pm = cfg.make_power_model(nl.lib());
    if (activity) {
      out.power = pm->evaluate(nl, *activity, power::kDefaultFrequencyMhz,
                               cfg.temperature_c);
    } else {
      util::Rng rng = ctx.make_rng(kPowerRngStream);
      out.power = pm->estimate(nl, rng, power::kDefaultFrequencyMhz, 512,
                               cfg.temperature_c);
    }
  }
  out.vt_mix.assign(nl.lib().tech().n_vt_classes(), 0);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const netlist::Node& n = nl.node(static_cast<netlist::NodeId>(i));
    if (!n.is_input) ++out.vt_mix[static_cast<std::size_t>(n.vt)];
  }
  // Same tolerance the ProtocolPass round loop stops on (core::tc_met):
  // the two must agree or a boundary point could iterate as violating yet
  // report met (pops_sweep exits 2 off this flag).
  out.met = core::tc_met(out.final_delay_ps, tc_ps);
  return out;
}

}  // namespace pops::api
