// Tests for the area/power reporting module: the paper's ΣW proxy plus the
// first-order dynamic/leakage estimate built on simulated activities.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/power/power_model.hpp"
#include "pops/process/technology.hpp"
#include "pops/service/sweep.hpp"
#include "pops/timing/sta.hpp"
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

}  // namespace
