// Tests for the area/power reporting module: the paper's ΣW proxy plus the
// first-order dynamic/leakage estimate built on simulated activities.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/power/power_model.hpp"
#include "pops/process/technology.hpp"
#include "pops/service/sweep.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/sta.hpp"
#include "pops/util/json.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using liberty::CellKind;
using liberty::Library;
using netlist::Netlist;
using netlist::NodeId;
using process::Technology;
using util::Rng;

class PowerTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  power::ProxyModel proxy{lib};
};

TEST_F(PowerTest, ReportFieldsPositive) {
  const Netlist nl = netlist::make_c17(lib);
  Rng rng(1);
  const power::PowerReport rep = proxy.estimate(nl, rng);
  EXPECT_GT(rep.area_um, 0.0);
  EXPECT_GT(rep.switched_cap_ff, 0.0);
  EXPECT_GT(rep.dynamic_uw, 0.0);
  EXPECT_GT(rep.leakage_uw, 0.0);
  EXPECT_NEAR(rep.total_uw, rep.dynamic_uw + rep.leakage_uw, 1e-12);
  EXPECT_DOUBLE_EQ(rep.frequency_mhz, 100.0);
}

TEST_F(PowerTest, DynamicPowerScalesWithFrequency) {
  const Netlist nl = netlist::make_c17(lib);
  Rng rng1(2), rng2(2);
  const auto at100 = proxy.estimate(nl, rng1, 100.0);
  const auto at200 = proxy.estimate(nl, rng2, 200.0);
  EXPECT_NEAR(at200.dynamic_uw, 2.0 * at100.dynamic_uw,
              1e-9 * at200.dynamic_uw);
  // Leakage does not depend on frequency.
  EXPECT_NEAR(at200.leakage_uw, at100.leakage_uw, 1e-12);
}

TEST_F(PowerTest, UpsizingIncreasesPowerAndArea) {
  Netlist small = netlist::make_c17(lib);
  Netlist big = netlist::make_c17(lib);
  for (NodeId g : big.gates()) big.set_drive(g, 4.0 * lib.wmin_um());
  Rng rng1(3), rng2(3);
  const auto p_small = proxy.estimate(small, rng1);
  const auto p_big = proxy.estimate(big, rng2);
  EXPECT_GT(p_big.area_um, p_small.area_um);
  EXPECT_GT(p_big.dynamic_uw, p_small.dynamic_uw);
  EXPECT_GT(p_big.leakage_uw, p_small.leakage_uw);
}

TEST_F(PowerTest, AreaMatchesNetlistTotalWidth) {
  const Netlist nl = netlist::make_benchmark(lib, "fpd");
  Rng rng(4);
  const auto rep = proxy.estimate(nl, rng, 50.0, 128);
  EXPECT_NEAR(rep.area_um, nl.total_width_um(), 1e-9);
}

TEST_F(PowerTest, InvalidFrequencyThrows) {
  const Netlist nl = netlist::make_c17(lib);
  Rng rng(5);
  EXPECT_THROW(proxy.estimate(nl, rng, 0.0), std::invalid_argument);
}

TEST_F(PowerTest, PathAreaHelperAgrees) {
  // A chain's critical path covers every gate, so the path-level ΣW must
  // match the netlist's (and the power report's) area.
  using namespace pops::timing;
  const Netlist nl = netlist::make_chain(
      lib, {CellKind::Inv, CellKind::Nand2, CellKind::Inv},
      8.0 * lib.cref_ff(), "area_chain");
  const ClosedFormModel dm(lib);
  const Sta sta(nl, dm);
  const BoundedPath p = BoundedPath::extract(
      nl, sta.critical_path(sta.run()), dm.default_input_slew_ps());
  EXPECT_NEAR(p.area_um(), nl.total_width_um(), 1e-9);
}

TEST_F(PowerTest, DeterministicUnderSeed) {
  const Netlist nl = netlist::make_benchmark(lib, "fpd");
  Rng a(7), b(7);
  const auto ra = proxy.estimate(nl, a);
  const auto rb = proxy.estimate(nl, b);
  EXPECT_DOUBLE_EQ(ra.dynamic_uw, rb.dynamic_uw);
}

// ---------------------------------------------------------------------------
// Polymorphic power backends
// ---------------------------------------------------------------------------

/// The pre-backend power estimate's arithmetic, written out straight-line:
/// the oracle the ProxyModel must reproduce bit for bit, accumulation
/// order and all.
power::PowerReport legacy_reference(const Netlist& nl, Rng& rng,
                                    double frequency_mhz, int vectors) {
  const netlist::ActivityReport activity =
      netlist::estimate_activity(nl, rng, vectors);
  power::PowerReport rep;
  double switched = 0.0;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    switched += activity.toggle_rate[i] * (nl.load_ff(id) + nl.cpar_ff(id));
  }
  rep.switched_cap_ff = switched;
  const double vdd = nl.lib().tech().vdd;
  const double dyn_nw = 0.5 * switched * vdd * vdd * frequency_mhz;
  rep.dynamic_uw = dyn_nw * 1e-3 * (1.0 + power::kShortCircuitFraction);
  rep.area_um = nl.total_width_um();
  rep.leakage_uw = power::kProxyIoffNaPerUm * rep.area_um * vdd * 1e-3;
  rep.total_uw = rep.dynamic_uw + rep.leakage_uw;
  rep.frequency_mhz = frequency_mhz;
  return rep;
}

TEST_F(PowerTest, ProxyMatchesLegacyBitIdentically) {
  for (const char* const name : {"c17", "c432", "c880"}) {
    const Netlist nl = netlist::make_benchmark(lib, name);
    Rng legacy_rng(11), proxy_rng(11);
    const power::PowerReport want = legacy_reference(nl, legacy_rng, 100.0, 256);

    const power::PowerReport got = proxy.estimate(nl, proxy_rng, 100.0, 256);
    EXPECT_EQ(got.area_um, want.area_um) << name;
    EXPECT_EQ(got.switched_cap_ff, want.switched_cap_ff) << name;
    EXPECT_EQ(got.dynamic_uw, want.dynamic_uw) << name;
    EXPECT_EQ(got.leakage_uw, want.leakage_uw) << name;
    EXPECT_EQ(got.total_uw, want.total_uw) << name;
  }
}

TEST_F(PowerTest, StateLeakageRisesWithTemperature) {
  const Netlist nl = netlist::make_benchmark(lib, "c432");
  const power::StateDependentModel model(lib);
  Rng cool_rng(13), hot_rng(13);
  const auto cool = model.estimate(nl, cool_rng, 100.0, 256, 25.0);
  const auto hot = model.estimate(nl, hot_rng, 100.0, 256, 85.0);
  EXPECT_GT(hot.subthreshold_uw, cool.subthreshold_uw);
  EXPECT_GT(hot.leakage_uw, cool.leakage_uw);
  // Gate (tunnelling) leakage and dynamic power are temperature-blind.
  EXPECT_DOUBLE_EQ(hot.gate_leak_uw, cool.gate_leak_uw);
  EXPECT_DOUBLE_EQ(hot.dynamic_uw, cool.dynamic_uw);
}

TEST_F(PowerTest, StateLeakageFallsWithHighVtFraction) {
  const Netlist svt = netlist::make_benchmark(lib, "c432");
  Netlist hvt = svt;
  const int cls = lib.tech().find_vt_class("hvt");
  ASSERT_GT(cls, 0);
  for (NodeId g : hvt.gates()) hvt.set_vt_class(g, cls);

  const power::StateDependentModel model(lib);
  Rng svt_rng(17), hvt_rng(17);
  const auto p_svt = model.estimate(svt, svt_rng, 100.0, 256);
  const auto p_hvt = model.estimate(hvt, hvt_rng, 100.0, 256);
  EXPECT_LT(p_hvt.subthreshold_uw, p_svt.subthreshold_uw);
  EXPECT_LT(p_hvt.leakage_uw, p_svt.leakage_uw);
  // A Vt implant swaps threshold, not geometry: dynamic power unchanged.
  EXPECT_DOUBLE_EQ(p_hvt.dynamic_uw, p_svt.dynamic_uw);
}

TEST_F(PowerTest, UnknownBackendNameThrows) {
  EXPECT_THROW(power::make_power_model("spice", lib), std::invalid_argument);
}

TEST(PowerCache, BackendsNeverAlias) {
  // Proxy- and state-model runs of the same circuit must key distinct
  // cache entries: neither backend may replay the other's reports.
  api::OptContext ctx;
  service::ResultCache cache;

  auto run_once = [&](const std::string& model) {
    api::Optimizer opt(ctx, api::OptimizerConfig{}.with_power_model(model),
                       &cache);
    Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
    return opt.run_relative(nl, 0.85);
  };

  const api::PipelineReport proxy1 = run_once("proxy");
  EXPECT_EQ(cache.misses(), 1u);
  const api::PipelineReport state1 = run_once("state");
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u) << "state run replayed a proxy entry";
  EXPECT_EQ(proxy1.power.model, "proxy");
  EXPECT_EQ(state1.power.model, "state");

  const api::PipelineReport proxy2 = run_once("proxy");
  const api::PipelineReport state2 = run_once("state");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(proxy1.power.leakage_uw, proxy2.power.leakage_uw);
  EXPECT_EQ(state1.power.leakage_uw, state2.power.leakage_uw);
}

TEST(MultiVtPass, SweepMeetsTcAndRecoversLeakage) {
  api::OptContext ctx;
  service::SweepService sweeps(ctx);

  service::SweepSpec spec;
  spec.circuits = {"c880"};
  spec.tc_ratios = {1.0, 1.25};
  spec.vt_policies = {"none", "multi-vt"};
  spec.base.power_model = "state";
  spec.n_threads = 1;

  const service::SweepReport rep = sweeps.run(
      spec, [&ctx](const std::string& name) {
        return netlist::make_benchmark(ctx.lib(), name);
      });
  ASSERT_EQ(rep.points.size(), 4u);

  // Every point — with and without the pass — still meets its constraint.
  for (const service::SweepPoint& p : rep.points)
    EXPECT_TRUE(p.report.met)
        << p.circuit << " @" << p.tc_ratio << " vt=" << p.vt_policy;

  // Record order: vt_policy is outside the ratio axis, so points pair up
  // as (none@1.0, none@1.25, multi-vt@1.0, multi-vt@1.25).
  for (std::size_t i = 0; i < 2; ++i) {
    const service::SweepPoint& base = rep.points[i];
    const service::SweepPoint& mvt = rep.points[i + 2];
    ASSERT_EQ(base.tc_ratio, mvt.tc_ratio);
    EXPECT_EQ(base.vt_policy, "none");
    EXPECT_EQ(mvt.vt_policy, "multi-vt");
    EXPECT_GT(mvt.report.total_cells_high_vt(), 0u)
        << "no slack spent at Tc ratio " << mvt.tc_ratio;
    EXPECT_GT(mvt.report.total_leakage_saved_uw(), 0.0);
    EXPECT_LT(mvt.report.power.leakage_uw, base.report.power.leakage_uw)
        << "Tc ratio " << mvt.tc_ratio;
  }
}

// ---------------------------------------------------------------------------
// Multi-Vt walk: runs of flips vs one flip at a time
// ---------------------------------------------------------------------------

/// The walk MultiVtPass made before it tested flips in runs, kept as the
/// oracle for the pass's decisions: the same target class, candidates and
/// order, then one flip and one update per candidate, and a second update
/// that reverts a flip which breaks Tc.
struct OneCellWalk {
  std::size_t candidates = 0;
  std::size_t moved = 0;
  std::size_t rejected = 0;
  double leakage_saved_uw = 0.0;
};

OneCellWalk one_cell_walk(Netlist& nl, const api::OptContext& ctx,
                          const api::OptimizerConfig& cfg, double tc_ps,
                          timing::IncrementalSta& sta) {
  OneCellWalk out;
  const Technology& tech = nl.lib().tech();
  int target = -1;
  for (const std::string& name : cfg.vt_library) {
    const int cls = tech.find_vt_class(name);
    if (cls <= 0) continue;
    if (target < 0 ||
        tech.vt_class(static_cast<std::size_t>(cls)).ioff_na_per_um <
            tech.vt_class(static_cast<std::size_t>(target)).ioff_na_per_um)
      target = cls;
  }
  if (target < 0) return out;
  const timing::StaResult* result =
      &(sta.has_result() ? sta.result() : sta.run_full());
  if (!core::tc_met(result->critical_delay_ps, tc_ps)) return out;

  // The stateless analyzer's slacks equal IncrementalSta::slacks bitwise;
  // reading them there leaves the walking engine without backward state,
  // so debug builds check each of its updates against a cold forward run
  // alone.
  std::vector<std::pair<NodeId, double>> candidates;
  const std::vector<double> slack = sta.sta().slacks(*result, tc_ps);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const netlist::Node& n = nl.node(static_cast<NodeId>(i));
    if (!n.is_input && n.vt == 0 && slack[i] > 0.0)
      candidates.emplace_back(static_cast<NodeId>(i), slack[i]);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  out.candidates = candidates.size();
  if (candidates.empty()) return out;

  const power::StateDependentModel accounting(nl.lib());
  Rng rng = ctx.make_rng(api::kPowerRngStream);
  const netlist::ActivityReport activity =
      netlist::estimate_activity(nl, rng, 512);
  const double freq = power::kDefaultFrequencyMhz;
  const double leak_before =
      accounting.evaluate(nl, activity, freq, cfg.temperature_c).leakage_uw;
  for (const auto& [id, s] : candidates) {
    nl.set_vt_class(id, target);
    const NodeId dirty[] = {id};
    result = &sta.update(dirty);
    if (core::tc_met(result->critical_delay_ps, tc_ps)) {
      ++out.moved;
    } else {
      nl.set_vt_class(id, 0);
      result = &sta.update(dirty);
      ++out.rejected;
    }
  }
  if (out.moved > 0)
    out.leakage_saved_uw =
        leak_before -
        accounting.evaluate(nl, activity, freq, cfg.temperature_c).leakage_uw;
  return out;
}

double counter_value(const char* name) {
  const util::Json snap = obs::Registry::global().snapshot_json();
  const util::Json* counters = snap.find("counters");
  if (counters == nullptr) return 0.0;
  const util::Json* cell = counters->find(name);
  return cell == nullptr ? 0.0 : cell->as_number();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Runs MultiVtPass and the one-cell walk on copies of `circuit` at
/// tc = ratio x its initial delay and asserts the same decisions bitwise.
/// Returns the reference walk and the pass's trial count.
std::pair<OneCellWalk, double> expect_same_walk(
    const api::OptContext& ctx, const api::OptimizerConfig& cfg,
    const std::string& circuit, double ratio) {
  const std::string where = circuit + " " + cfg.delay_model + " @" +
                            std::to_string(ratio) + " vt=" +
                            cfg.vt_library.back();
  const timing::DelayModel& dm = ctx.backend(cfg).dm();
  const Netlist start = netlist::make_benchmark(ctx.lib(), circuit);
  const double tc_ps =
      ratio * timing::Sta(start, dm).run().critical_delay_ps;

  Netlist batched = start;
  Netlist single = start;
  timing::IncrementalSta batched_sta(batched, dm);
  timing::IncrementalSta single_sta(single, dm);
  api::PassReport report;
  const double trials_before = counter_value("multi_vt.trials");
  const double rejects_before = counter_value("multi_vt.batch_rejects");
  api::MultiVtPass().run(batched, ctx, cfg, tc_ps, report, batched_sta);
  const double trials = counter_value("multi_vt.trials") - trials_before;
  const double rejects =
      counter_value("multi_vt.batch_rejects") - rejects_before;
  const OneCellWalk want = one_cell_walk(single, ctx, cfg, tc_ps, single_sta);

  for (std::size_t i = 0; i < start.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    EXPECT_EQ(batched.node(id).vt, single.node(id).vt)
        << where << ": Vt class of " << start.node(id).name;
  }
  EXPECT_EQ(report.cells_high_vt, want.moved) << where;
  EXPECT_EQ(bits(report.leakage_saved_uw), bits(want.leakage_saved_uw))
      << where;
  EXPECT_EQ(bits(batched_sta.result().critical_delay_ps),
            bits(single_sta.result().critical_delay_ps))
      << where;
  // Every one-cell rejection is a missed single-candidate trial; with no
  // rejection the whole accepted set meets Tc, so no run can miss.
  EXPECT_GE(rejects, static_cast<double>(want.rejected)) << where;
  if (want.rejected == 0) {
    EXPECT_EQ(rejects, 0.0) << where;
  }
  return {want, trials};
}

TEST(MultiVtPass, BatchedWalkMatchesSingleFlipWalk) {
  api::OptContext ctx;
  struct Point {
    const char* circuit;
    std::vector<double> ratios;
  };
  std::vector<Point> grid = {{"c432", {1.0, 1.05, 1.15, 1.3}},
                             {"c880", {1.0, 1.05, 1.15, 1.3}}};
#ifdef NDEBUG
  // Debug builds check every update against a cold run (about 40 ms on
  // c7552 under the sanitizers), which would stretch the reference walk's
  // ~3,500 updates per c7552 point to minutes.
  grid.push_back({"c7552", {1.02, 1.15}});
#endif
  for (const char* backend : {"closed-form", "table"}) {
    const api::OptimizerConfig cfg =
        api::OptimizerConfig{}.with_delay_model(backend);
    // hvt derates both edges by >= 1: the pass tests runs of candidates.
    const timing::DelayModel& dm = ctx.backend(cfg).dm();
    const int hvt = ctx.lib().tech().find_vt_class("hvt");
    ASSERT_GE(dm.vt_derate(hvt, timing::Edge::Rise), 1.0);
    ASSERT_GE(dm.vt_derate(hvt, timing::Edge::Fall), 1.0);

    std::size_t candidates = 0;
    std::size_t rejected = 0;
    double trials = 0.0;
    for (const auto& point : grid) {
      for (const double ratio : point.ratios) {
        const auto [want, point_trials] =
            expect_same_walk(ctx, cfg, point.circuit, ratio);
        candidates += want.candidates;
        rejected += want.rejected;
        trials += point_trials;
      }
    }
    EXPECT_GT(rejected, 0u) << backend << ": no point exercises a rejection";
    EXPECT_LT(4.0 * trials, static_cast<double>(candidates))
        << backend << ": runs of flips took " << trials << " trials for "
        << candidates << " candidates";
  }
}

TEST(MultiVtPass, SpeedingTargetWalksOneCandidateAtATime) {
  // lvt derates below 1 on cmos025, which voids the monotonicity premise:
  // the pass must fall back to one trial per candidate.
  api::OptContext ctx;
  api::OptimizerConfig cfg;
  cfg.vt_library = {"svt", "lvt"};
  const timing::DelayModel& dm = ctx.backend(cfg).dm();
  const int lvt = ctx.lib().tech().find_vt_class("lvt");
  ASSERT_LT(dm.vt_derate(lvt, timing::Edge::Rise), 1.0);
  ASSERT_LT(dm.vt_derate(lvt, timing::Edge::Fall), 1.0);
  for (const double ratio : {1.0, 1.15}) {
    const auto [want, trials] = expect_same_walk(ctx, cfg, "c880", ratio);
    EXPECT_GT(want.moved, 0u);
    EXPECT_EQ(trials, static_cast<double>(want.candidates)) << ratio;
  }
}

}  // namespace
