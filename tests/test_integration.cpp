// Integration tests: the complete POPS flow on benchmark circuits —
// parse/generate -> STA -> K critical paths -> bounded-path extraction ->
// Fig. 7 protocol -> write-back -> STA re-verification — plus end-to-end
// reproducibility and a model-vs-transistor-level cross-check of a sized
// path (the paper's "SPICE simulations of the corresponding path
// implementations").

#include <gtest/gtest.h>

#include "pops/api/passes.hpp"
#include "pops/baseline/amps.hpp"
#include "pops/core/protocol.hpp"
#include "pops/liberty/library.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/power/power_model.hpp"
#include "pops/process/technology.hpp"
#include "pops/spice/measure.hpp"
#include "pops/timing/sta.hpp"
#include "pops/util/rng.hpp"

namespace {

using namespace pops;
using namespace pops::timing;
using liberty::CellKind;
using liberty::Library;
using netlist::Netlist;
using process::Technology;
using api::ProtocolPass;

class IntegrationTest : public ::testing::Test {
 protected:
  Library lib{Technology::cmos025()};
  ClosedFormModel dm{lib};
  core::FlimitTable table;
};

TEST_F(IntegrationTest, FullFlowOnBenchmark) {
  Netlist nl = netlist::make_benchmark(lib, "c499");
  const Sta sta(nl, dm);
  const double before = sta.run().critical_delay_ps;
  const double area_before = nl.total_width_um();

  core::CircuitOptions opt;
  opt.max_paths = 24;
  const core::CircuitResult res =
      ProtocolPass::run_protocol(nl, dm, table, 0.75 * before, opt);

  EXPECT_TRUE(res.met);
  EXPECT_LT(res.achieved_delay_ps, before);
  EXPECT_GT(res.area_um, area_before);  // speed costs area
  EXPECT_FALSE(res.per_path.empty());
  nl.validate();
}

TEST_F(IntegrationTest, ExtractOptimizeWriteBackRoundTrip) {
  // On a pure chain the write-back round trip is exact: no reconvergent
  // fanout means the frozen off-path loads stay valid.
  Netlist nl = netlist::make_chain(
      lib,
      {CellKind::Inv, CellKind::Nand2, CellKind::Inv, CellKind::Nor2,
       CellKind::Inv, CellKind::Nand3, CellKind::Inv},
      18.0 * lib.cref_ff(), "rt_chain");
  const Sta sta(nl, dm);
  const StaResult r = sta.run();
  const TimedPath tp = sta.critical_path(r);
  BoundedPath bp = BoundedPath::extract(nl, tp, dm.default_input_slew_ps());

  const core::PathBounds bounds = core::compute_bounds(bp, dm);
  const core::SizingResult sized =
      core::size_for_constraint(bp, dm, 1.3 * bounds.tmin_ps);
  ASSERT_TRUE(sized.feasible);
  sized.path.apply_sizes_to(nl);

  BoundedPath again = BoundedPath::extract(nl, tp, dm.default_input_slew_ps());
  EXPECT_NEAR(again.delay_ps(dm), sized.delay_ps, 1e-6 * sized.delay_ps);
}

TEST_F(IntegrationTest, WriteBackOnReconvergentCircuitNeedsIteration) {
  // On a real circuit the critical path can feed itself through
  // reconvergent fanout: sizing the path changes its own frozen off-path
  // loads, which is exactly why the paper iterates timing verification.
  // The re-extracted delay must stay in the neighbourhood, not explode.
  Netlist nl = netlist::make_benchmark(lib, "c880");
  const Sta sta(nl, dm);
  const TimedPath tp = sta.critical_path(sta.run());
  BoundedPath bp = BoundedPath::extract(nl, tp, dm.default_input_slew_ps());

  const core::PathBounds bounds = core::compute_bounds(bp, dm);
  const core::SizingResult sized =
      core::size_for_constraint(bp, dm, 1.3 * bounds.tmin_ps);
  ASSERT_TRUE(sized.feasible);
  sized.path.apply_sizes_to(nl);

  BoundedPath again = BoundedPath::extract(nl, tp, dm.default_input_slew_ps());
  EXPECT_NEAR(again.delay_ps(dm), sized.delay_ps, 0.35 * sized.delay_ps);
}

TEST_F(IntegrationTest, PopsBeatsAmpsAcrossBenchmarks) {
  // Fig. 2 + Fig. 4 shape on several circuits' critical paths.
  for (const char* name : {"Adder16", "c432", "c1355"}) {
    Netlist nl = netlist::make_benchmark(lib, name);
    const Sta sta(nl, dm);
    const TimedPath tp = sta.critical_path(sta.run());
    const BoundedPath bp =
        BoundedPath::extract(nl, tp, dm.default_input_slew_ps());

    const core::PathBounds bounds = core::compute_bounds(bp, dm);
    const baseline::AmpsResult amps_min = baseline::minimize_delay(bp, dm);
    EXPECT_GE(amps_min.delay_ps, bounds.tmin_ps * 0.999) << name;

    const double tc = 1.2 * bounds.tmin_ps;
    const core::SizingResult pops = core::size_for_constraint(bp, dm, tc);
    const baseline::AmpsResult amps = baseline::meet_constraint(bp, dm, tc);
    if (pops.feasible && amps.feasible) {
      EXPECT_LE(pops.area_um, amps.area_um * 1.001) << name;
    }
  }
}

TEST_F(IntegrationTest, SizedPathValidatesInTransistorSimulation) {
  // Build a chain, size it with the constant-sensitivity method, expand
  // the sized stages to transistors and compare the model's path delay to
  // the transient measurement — the reproduction of the paper's SPICE
  // validation loop. Chain cells are restricted to the spice-supported
  // kinds.
  const std::vector<CellKind> kinds = {CellKind::Inv, CellKind::Nand2,
                                       CellKind::Inv, CellKind::Nor2,
                                       CellKind::Inv};
  std::vector<PathStage> stages;
  for (CellKind k : kinds) {
    PathStage st;
    st.kind = k;
    stages.push_back(st);
  }
  BoundedPath path(lib, stages, 2.0 * lib.cref_ff(), 15.0 * lib.cref_ff(),
                   Edge::Rise, dm.default_input_slew_ps());
  const core::PathBounds bounds = core::compute_bounds(path, dm);
  const core::SizingResult sized =
      core::size_for_constraint(path, dm, 1.3 * bounds.tmin_ps);
  ASSERT_TRUE(sized.feasible);

  spice::ChainSpec spec;
  spec.kinds = kinds;
  for (std::size_t i = 0; i < sized.path.size(); ++i) {
    const auto& cell = sized.path.cell(i);
    spec.wn_um.push_back(cell.wn_for_cin(lib.tech(), sized.path.cin(i)));
  }
  spec.terminal_load_ff = 15.0 * lib.cref_ff();
  spec.input_ramp_ps = dm.default_input_slew_ps();
  const spice::ChainMeasurement m = spice::measure_chain(lib, spec);

  // One polarity, five stages: stay within 45% — the agreement band that
  // makes the closed-form metrics trustworthy.
  EXPECT_NEAR(m.path_delay_ps, sized.delay_ps, 0.45 * sized.delay_ps);
}

TEST_F(IntegrationTest, OptimizationPreservesLogicFunction) {
  // Sizing must never change the function (it only changes drives).
  Netlist nl = netlist::make_benchmark(lib, "c432");
  Netlist original = nl;
  const Sta sta(nl, dm);
  const double before = sta.run().critical_delay_ps;
  ProtocolPass::run_protocol(nl, dm, table, 0.8 * before, {});
  util::Rng rng(5);
  EXPECT_TRUE(netlist::equivalent(original, nl, rng, 128));
}

TEST_F(IntegrationTest, PowerTracksAreaAcrossConstraints) {
  // The paper's ΣW-as-power proxy: tighter constraints -> larger ΣW ->
  // more estimated power.
  Netlist relaxed = netlist::make_benchmark(lib, "c499");
  Netlist tight = netlist::make_benchmark(lib, "c499");
  const Sta sta(relaxed, dm);
  const double before = sta.run().critical_delay_ps;

  core::FlimitTable t1, t2;
  ProtocolPass::run_protocol(relaxed, dm, t1, 0.95 * before, {});
  ProtocolPass::run_protocol(tight, dm, t2, 0.70 * before, {});

  const power::ProxyModel proxy(lib);
  util::Rng rng1(9), rng2(9);
  const auto p_relaxed = proxy.estimate(relaxed, rng1, 100.0, 256);
  const auto p_tight = proxy.estimate(tight, rng2, 100.0, 256);
  EXPECT_GE(p_tight.area_um, p_relaxed.area_um);
  EXPECT_GE(p_tight.dynamic_uw, p_relaxed.dynamic_uw * 0.98);
}

TEST_F(IntegrationTest, DeterministicEndToEnd) {
  auto run_once = [&]() {
    Netlist nl = netlist::make_benchmark(lib, "c499");
    const Sta sta(nl, dm);
    const double before = sta.run().critical_delay_ps;
    core::FlimitTable t;
    const core::CircuitResult r =
        ProtocolPass::run_protocol(nl, dm, t, 0.8 * before, {});
    return std::make_pair(r.achieved_delay_ps, r.area_um);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
