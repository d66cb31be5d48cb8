#include "pops/api/passes.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "pops/core/netopt.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"
#include "pops/power/power_model.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/path.hpp"
#include "pops/timing/sta.hpp"

namespace pops::api {

using netlist::Netlist;
using timing::BoundedPath;
using timing::DelayModel;

void ShieldPass::run(Netlist& nl, const OptContext& ctx,
                     const OptimizerConfig& cfg, double /*tc_ps*/,
                     PassReport& report, timing::IncrementalSta& sta) const {
  const DelayBackend& backend = ctx.backend(cfg);
  const core::ShieldReport r = core::shield_high_fanout_nets(
      nl, backend.dm(), backend.flimits, cfg.shield_options(), &sta);
  report.buffers_inserted = r.buffers_inserted;
  report.changed = r.buffers_inserted > 0;
}

void CancelInvertersPass::run(Netlist& nl, const OptContext& /*ctx*/,
                              const OptimizerConfig& /*cfg*/, double /*tc_ps*/,
                              PassReport& report,
                              timing::IncrementalSta& sta) const {
  std::vector<netlist::NodeId> dirty;
  report.sinks_rewired = core::cancel_inverter_pairs(nl, &dirty);
  report.changed = report.sinks_rewired > 0;
  // Rewires change connectivity -> structure_changed. No rewires = no
  // update, and the engine revision not moving is then correct (the
  // pipeline only expects a moved revision when `changed` is set).
  if (!dirty.empty()) sta.update(dirty, /*structure_changed=*/true);
}

void SweepDeadPass::run(Netlist& nl, const OptContext& /*ctx*/,
                        const OptimizerConfig& /*cfg*/, double /*tc_ps*/,
                        PassReport& report,
                        timing::IncrementalSta& sta) const {
  // PIs are all kept, so the size drop is the removed gate count.
  const std::size_t before = nl.size();
  std::vector<netlist::NodeId> reloaded;
  const std::vector<netlist::NodeId> remap = nl.compact(&reloaded);
  report.gates_removed = before - nl.size();
  report.changed = report.gates_removed > 0;
  // Compaction renumbers ids even when nothing was removed; the engine
  // follows the map and re-times the drivers whose loads moved.
  sta.compact(remap, reloaded);
}

void ProtocolPass::run(Netlist& nl, const OptContext& ctx,
                       const OptimizerConfig& cfg, double tc_ps,
                       PassReport& report, timing::IncrementalSta& sta) const {
  const DelayBackend& backend = ctx.backend(cfg);
  core::CircuitResult r =
      run_protocol(nl, backend.dm(), backend.flimits, tc_ps,
                   cfg.circuit_options(), &sta);
  report.paths_optimized = r.paths_optimized;
  report.changed = r.paths_optimized > 0;
  report.circuit = std::move(r);
}

core::CircuitResult ProtocolPass::run_protocol(Netlist& nl,
                                               const DelayModel& dm,
                                               const core::FlimitTable& table,
                                               double tc_ps,
                                               const core::CircuitOptions& opt,
                                               timing::IncrementalSta* shared) {
  opt.validate();
  if (!(tc_ps > 0.0))
    throw std::invalid_argument("run_protocol: Tc must be > 0");

  core::CircuitResult out;
  out.tc_ps = tc_ps;

  timing::StaOptions sta_opt;
  sta_opt.pi_slew_ps = opt.pi_slew_ps;
  // The protocol's hot loop: one STA verification per sizing round. The
  // incremental analyzer keeps arrivals/slews AND the K-paths downstream
  // bounds alive between rounds, so a round costs O(resized fanout cone)
  // instead of O(E) — bit-identical to re-running Sta from cold. A
  // pipeline-shared engine (already warm from the passes before this one)
  // is reused in place of a private one.
  std::optional<timing::IncrementalSta> local;
  if (shared == nullptr) local.emplace(nl, dm, sta_opt);
  timing::IncrementalSta& sta = shared != nullptr ? *shared : *local;
  const double input_slew =
      opt.pi_slew_ps > 0.0 ? opt.pi_slew_ps : dm.default_input_slew_ps();

  static const obs::Registry::Counter rounds_total =
      obs::Registry::global().counter("protocol.rounds");
  // Budget visibility: a round whose K-paths list was cut at max_paths
  // with its last path still over target, and a point whose round budget
  // ran out with Tc unmet.
  static const obs::Registry::Counter paths_hit =
      obs::Registry::global().counter("protocol.max_paths_hit");
  static const obs::Registry::Counter rounds_hit =
      obs::Registry::global().counter("protocol.max_rounds_hit");

  const timing::StaResult* result =
      &(sta.has_result() ? sta.result() : sta.run_full());
  int round = 0;
  for (; round < opt.max_rounds; ++round) {
    // Same predicate as `met` below (kTcMetRelTol): a point at the
    // boundary must not iterate as "violating" yet report met=true.
    if (core::tc_met(result->critical_delay_ps, tc_ps)) break;

    obs::Span round_span("protocol/round");
    if (round_span.active()) {
      // Entry-side Tc gap and power proxy (total width tracks the
      // paper's dynamic-power objective); computed only when tracing.
      round_span.arg("slack_ps", tc_ps - result->critical_delay_ps);
      round_span.arg("area_um", nl.total_width_um());
    }

    // Tighten per-path targets round by round: resizing one path loads its
    // neighbours, so a straight Tc target leaves residual violations.
    const double margin =
        std::pow(opt.tc_margin, static_cast<double>(round + 1));
    const double path_tc = tc_ps * margin;

    // Reference, not copy: the zero-progress `continue` below re-enters
    // this query with the engine untouched, and the enumeration gate then
    // replays the cached list instead of re-running the K-paths search.
    const std::vector<timing::TimedPath>& paths =
        sta.k_critical_paths(opt.max_paths);
    if (paths.size() == opt.max_paths && paths.back().delay_ps > path_tc)
      paths_hit.add();
    bool any_change = false;
    std::size_t below_target = 0;  // skipped now, admitted by tighter targets
    std::vector<netlist::NodeId> resized;
    for (const timing::TimedPath& tp : paths) {
      if (tp.delay_ps <= path_tc) {  // already fast enough this round
        ++below_target;
        continue;
      }
      if (tp.points.size() < 2) continue;
      BoundedPath bp = BoundedPath::extract(nl, tp, input_slew);
      // Circuit mode applies sizing only: the protocol's buffers and
      // rewrites are evaluated on the extracted path, but only the
      // stages that exist in the netlist carry their sizes back to it.
      const core::ProtocolResult pr =
          core::optimize_path(bp, dm, table, path_tc, opt.protocol);
      const std::vector<netlist::NodeId> changed = [&] {
        obs::Span write_back("protocol/write_back");
        return pr.sizing.path.apply_sizes_to(nl);
      }();
      if (!changed.empty()) any_change = true;
      resized.insert(resized.end(), changed.begin(), changed.end());
      out.per_path.push_back(pr.decision());
      ++out.paths_optimized;
    }
    ++out.rounds;
    rounds_total.add();
    round_span.arg("resized", static_cast<double>(resized.size()));
    if (!any_change) {
      // No drive moved. If every enumerated path was already processed
      // (none skipped as fast-enough), further rounds would replay the
      // same pinned paths against ever-tighter targets — stop instead of
      // burning the round budget on zero-progress re-verifications. When
      // paths WERE skipped, keep tightening: a later round admits them
      // (tp.delay_ps > tc*margin^(r+1)) and their resizing can unload
      // shared gates on the still-violating critical path. Timing is
      // unchanged either way, so no STA update is needed.
      if (below_target == 0) break;
      continue;
    }
    result = &sta.update(resized);
  }

  out.achieved_delay_ps = result->critical_delay_ps;
  out.area_um = nl.total_width_um();
  out.met = core::tc_met(result->critical_delay_ps, tc_ps);
  if (round == opt.max_rounds && !out.met) rounds_hit.add();
  return out;
}

void MultiVtPass::run(Netlist& nl, const OptContext& ctx,
                      const OptimizerConfig& cfg, double tc_ps,
                      PassReport& report, timing::IncrementalSta& sta) const {
  if (!(tc_ps > 0.0))
    throw std::invalid_argument("multi-vt: Tc must be > 0");

  // Resolve the target class: the lowest-off-current non-default class the
  // config enables. One enabled class (the default) = nothing to assign.
  const process::Technology& tech = nl.lib().tech();
  int target = -1;
  for (const std::string& name : cfg.vt_library) {
    const int cls = tech.find_vt_class(name);
    if (cls < 0)
      throw std::invalid_argument("multi-vt: vt class '" + name +
                                  "' is not offered by the technology");
    if (cls == 0) continue;
    if (target < 0 ||
        tech.vt_class(static_cast<std::size_t>(cls)).ioff_na_per_um <
            tech.vt_class(static_cast<std::size_t>(target)).ioff_na_per_um)
      target = cls;
  }
  if (target < 0) return;

  const timing::StaResult* result =
      &(sta.has_result() ? sta.result() : sta.run_full());
  // Leakage can only be traded for slack that exists: an unmet point is
  // left for the sizing passes, not slowed down further.
  if (!core::tc_met(result->critical_delay_ps, tc_ps)) return;

  // Candidates: default-class gates with positive slack, most slack
  // first (ties by id so the greedy order — hence the result — is
  // deterministic under any slack distribution).
  struct Candidate {
    netlist::NodeId id;
    double slack_ps;
  };
  std::vector<Candidate> candidates;
  {
    const std::vector<double>& slack = sta.slacks(tc_ps);
    for (std::size_t i = 0; i < nl.size(); ++i) {
      const netlist::Node& n = nl.node(static_cast<netlist::NodeId>(i));
      if (n.is_input || n.vt != 0) continue;
      if (slack[i] > 0.0)
        candidates.push_back({static_cast<netlist::NodeId>(i), slack[i]});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.slack_ps != b.slack_ps) return a.slack_ps > b.slack_ps;
              return a.id < b.id;
            });
  if (candidates.empty()) return;

  // The recovered-leakage metric is inherently state-dependent (the flat
  // proxy is Vt-blind), so it is always accounted with the state backend;
  // the flip decisions themselves are pure timing and do not depend on
  // any power number. A Vt flip changes neither the logic nor any load,
  // so one activity simulation serves both the before and after report.
  // The same report is handed to the pipeline's final power section.
  const power::StateDependentModel accounting(nl.lib());
  const double freq = power::kDefaultFrequencyMhz;
  {
    obs::Span span("power/activity");
    util::Rng rng = ctx.make_rng(kPowerRngStream);
    report.activity = std::make_shared<const netlist::ActivityReport>(
        netlist::estimate_activity(nl, rng, 512));
  }
  const netlist::ActivityReport& activity = *report.activity;
  const double leak_before =
      accounting.evaluate(nl, activity, freq, cfg.temperature_c).leakage_uw;

  // Greedy assignment with the decisions of the one-cell walk: flip a
  // candidate, re-time, keep the flip only while the whole circuit still
  // meets Tc (a rejected cone does not end the walk — an unrelated cone
  // elsewhere may still absorb the derating). A target that derates both
  // edges by >= 1 slows every arc and slew it touches, arc delays never
  // fall as their input slew grows, and rounded max-plus is monotone, so
  // the critical delay never falls as flips are added: when the accepted
  // set plus a run of candidates meets Tc, so does the accepted set plus
  // any prefix of the run, and the one-cell walk would accept each flip
  // of the run. So runs are tried with one update each, doubling after a
  // run is met; a missed run reverts its tail half (that update tests the
  // head), and a missed single candidate is the one-cell walk's own
  // rejection. Without the premise every run is one candidate.
  const timing::DelayModel& dm = ctx.backend(cfg).dm();
  const bool batch = dm.vt_derate(target, timing::Edge::Rise) >= 1.0 &&
                     dm.vt_derate(target, timing::Edge::Fall) >= 1.0;
  std::vector<netlist::NodeId> ids;
  ids.reserve(candidates.size());
  for (const Candidate& c : candidates) ids.push_back(c.id);
  const std::span<const netlist::NodeId> all(ids);
  // A Vt flip changes the gate's own kernel inputs only (like a drive
  // change; its cin is untouched) — squarely inside the dirty-set
  // contract.
  auto set_vt = [&](std::size_t lo, std::size_t hi, int cls) {
    for (std::size_t k = lo; k < hi; ++k) nl.set_vt_class(ids[k], cls);
    result = &sta.update(all.subspan(lo, hi - lo));
  };
  auto met = [&] { return core::tc_met(result->critical_delay_ps, tc_ps); };

  std::size_t moved = 0;
  std::size_t trials = 0;
  std::size_t misses = 0;
  std::size_t run = 1;
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t hi = std::min(ids.size(), i + run);
    set_vt(i, hi, target);
    ++trials;
    while (!met() && hi - i > 1) {
      ++misses;
      const std::size_t mid = i + (hi - i) / 2;
      set_vt(mid, hi, 0);
      ++trials;
      hi = mid;
    }
    if (met()) {
      moved += hi - i;
      run = batch ? 2 * (hi - i) : 1;
      i = hi;
    } else {
      ++misses;
      set_vt(i, hi, 0);
      run = 1;
      ++i;
    }
  }

  report.cells_high_vt = moved;
  report.changed = moved > 0;
  if (moved > 0) {
    const double leak_after =
        accounting.evaluate(nl, activity, freq, cfg.temperature_c).leakage_uw;
    report.leakage_saved_uw = leak_before - leak_after;
  }

  static const obs::Registry::Counter cells_total =
      obs::Registry::global().counter("multi_vt.cells_high_vt");
  static const obs::Registry::Counter trials_total =
      obs::Registry::global().counter("multi_vt.trials");
  static const obs::Registry::Counter rejects_total =
      obs::Registry::global().counter("multi_vt.batch_rejects");
  if (moved > 0) cells_total.add(static_cast<double>(moved));
  trials_total.add(static_cast<double>(trials));
  rejects_total.add(static_cast<double>(misses));
}

}  // namespace pops::api
