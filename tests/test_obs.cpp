// pops::obs — tracing and metrics. Spans nest and drain deterministically
// (jsonl form), the Chrome trace-event document is schema-valid, the
// registry's histograms bucket deterministically and its snapshots stay
// coherent under concurrent writers (the ConcurrencyTest suites below run
// under the TSan CI job), the daemon answers the "metrics" wire op — and,
// the acceptance bar: enabling tracing changes no optimization result
// bits while recording spans from every layer of the stack.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/net/client.hpp"
#include "pops/net/protocol.hpp"
#include "pops/net/server.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"
#include "pops/service/serialize.hpp"
#include "pops/service/sweep.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/sta.hpp"

namespace {

using namespace pops;
using obs::Registry;
using obs::Span;
using obs::TraceRecorder;
using util::Json;

// ---------------------------------------------------------------------------
// Spans: nesting, ordering, args, zero-cost when off
// ---------------------------------------------------------------------------

TEST(ObsTrace, SpansNestAndDrainInCompletionOrder) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  {
    Span outer("test/outer");
    EXPECT_TRUE(outer.active());
    {
      Span inner("test/", "inner");
      inner.arg("k", 3.0);
    }
    { Span inner2("test/inner2"); }
  }
  {
    Span solo("test/solo");
    solo.arg("a", 1.0);
    solo.arg("b", 2.0);
    solo.arg("c", 3.0);
    solo.arg("d", 4.0);  // beyond the 3-arg capacity: dropped, not UB
  }
  rec.stop();

  const std::vector<Json> records = rec.jsonl_records();
  ASSERT_EQ(records.size(), 4u);
  // Completion order: inner spans land before the span that encloses
  // them; depth counts nesting at entry (outermost = 1).
  EXPECT_EQ(records[0].find("name")->as_string(), "test/inner");
  EXPECT_EQ(records[0].find("depth")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(records[0].find("args")->find("k")->as_number(), 3.0);
  EXPECT_EQ(records[1].find("name")->as_string(), "test/inner2");
  EXPECT_EQ(records[1].find("depth")->as_number(), 2.0);
  EXPECT_EQ(records[2].find("name")->as_string(), "test/outer");
  EXPECT_EQ(records[2].find("depth")->as_number(), 1.0);
  EXPECT_EQ(records[3].find("name")->as_string(), "test/solo");
  EXPECT_EQ(records[3].find("args")->size(), 3u);
  // One thread: seq increases by exactly one per completed span.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].find("tid")->as_number(),
              records[0].find("tid")->as_number());
    EXPECT_EQ(records[i].find("seq")->as_number(),
              records[i - 1].find("seq")->as_number() + 1.0);
  }
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.stop();
  {
    Span span("test/ghost");
    EXPECT_FALSE(span.active());
    span.arg("ignored", 1.0);  // no-op, must not crash
  }
  // A fresh session sees neither the ghost span nor earlier sessions'.
  rec.start();
  rec.stop();
  EXPECT_TRUE(rec.jsonl_records().empty());
  EXPECT_TRUE(rec.jsonl().empty());
}

TEST(ObsTrace, ChromeJsonIsSchemaValid) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  {
    Span outer("test/chrome_outer");
    Span inner("test/chrome_inner");
  }
  rec.stop();

  const Json doc = rec.chrome_json();
  ASSERT_TRUE(doc.is_object());
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->size(), 2u);
  double outer_ts = 0.0, outer_end = 0.0;
  double inner_ts = 0.0, inner_end = 0.0;
  for (const Json& e : events->items()) {
    ASSERT_TRUE(e.is_object());
    EXPECT_TRUE(e.find("name")->is_string());
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_TRUE(e.find("ts")->is_number());
    EXPECT_TRUE(e.find("dur")->is_number());
    EXPECT_EQ(e.find("pid")->dump(), "1");
    EXPECT_TRUE(e.find("tid")->is_number());
    EXPECT_GE(e.find("ts")->as_number(), 0.0);  // relative to start()
    EXPECT_GE(e.find("dur")->as_number(), 0.0);
    const double ts = e.find("ts")->as_number();
    const double end = ts + e.find("dur")->as_number();
    if (e.find("name")->as_string() == "test/chrome_outer") {
      outer_ts = ts;
      outer_end = end;
    } else {
      inner_ts = ts;
      inner_end = end;
    }
  }
  // The nested interval is contained in the enclosing one.
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_LE(inner_end, outer_end);

  // Non-destructive drain: a second call returns the same events.
  EXPECT_EQ(rec.chrome_json().dump(0), doc.dump(0));
}

// ---------------------------------------------------------------------------
// Registry: bucket determinism, snapshots, reset
// ---------------------------------------------------------------------------

TEST(ObsMetrics, HistogramBucketsAreDeterministic) {
  Registry reg;  // a private registry: no cross-test state
  const Registry::Histogram h = reg.histogram("h", {1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 2.0, 3.0, 100.0}) h.observe(v);

  const Json snap = reg.snapshot_json();
  const Json* cell = snap.find("histograms")->find("h");
  ASSERT_NE(cell, nullptr);
  // counts[i] tallies observations <= bounds[i]; the last bucket is the
  // overflow. 0.5,1 | 1.5,2 | 3 | 100.
  EXPECT_EQ(cell->find("counts")->dump(0), "[2,2,1,1]");
  EXPECT_EQ(cell->find("bounds")->dump(0), "[1,2,4]");
  EXPECT_EQ(cell->find("count")->as_number(), 6.0);
  EXPECT_DOUBLE_EQ(cell->find("sum")->as_number(), 108.0);
  // Identical state serializes to identical bytes (sorted names, fixed
  // schema) — the wire op and tests can diff snapshots directly.
  EXPECT_EQ(reg.snapshot_json().dump(0), snap.dump(0));
}

TEST(ObsMetrics, CountersGaugesAndResetKeepCellsAlive) {
  Registry reg;
  const Registry::Counter c = reg.counter("c");
  const Registry::Gauge g = reg.gauge("g");
  c.add();
  c.add(2.5);
  g.set(7.0);
  g.add(-3.0);
  Json snap = reg.snapshot_json();
  EXPECT_DOUBLE_EQ(snap.find("counters")->find("c")->as_number(), 3.5);
  EXPECT_DOUBLE_EQ(snap.find("gauges")->find("g")->as_number(), 4.0);

  reg.reset();
  snap = reg.snapshot_json();
  EXPECT_DOUBLE_EQ(snap.find("counters")->find("c")->as_number(), 0.0);
  // Handles bound before the reset still hit the same (zeroed) cell.
  c.add();
  snap = reg.snapshot_json();
  EXPECT_DOUBLE_EQ(snap.find("counters")->find("c")->as_number(), 1.0);
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan CI job keys on the ConcurrencyTest suites)
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, ObsRegistrySnapshotsStayCoherentUnderWriters) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      const Registry::Counter c = reg.counter("stress.adds");
      const Registry::Histogram h =
          reg.histogram("stress.values", {2.0, 4.0, 8.0});
      for (int i = 0; i < kIters; ++i) {
        c.add();
        h.observe(static_cast<double>(i % 16));
      }
    });
  }
  std::thread snapshotter([&reg, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const Json snap = reg.snapshot_json();
      const Json* h = snap.find("histograms")->find("stress.values");
      if (!h) continue;
      // Coherence: observe() updates counts, count, and sum under one
      // lock, so every snapshot balances exactly.
      double bucket_total = 0.0;
      for (const Json& c : h->find("counts")->items())
        bucket_total += c.as_number();
      ASSERT_EQ(bucket_total, h->find("count")->as_number());
    }
  });
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  snapshotter.join();

  const Json snap = reg.snapshot_json();
  EXPECT_DOUBLE_EQ(snap.find("counters")->find("stress.adds")->as_number(),
                   static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(
      snap.find("histograms")->find("stress.values")->find("count")->as_number(),
      static_cast<double>(kThreads) * kIters);
}

TEST(ConcurrencyTest, ObsTraceDrainsWhileWritersAppend) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.start();

  // > Chunk::kSize spans per thread so chunk growth races the drain.
  constexpr int kThreads = 4;
  constexpr int kPairs = 300;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kPairs; ++i) {
        Span outer("stress/outer");
        Span inner("stress/inner");
        inner.arg("i", static_cast<double>(i));
      }
    });
  }
  std::thread drainer([&rec, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)rec.chrome_json();
      (void)rec.jsonl_records();
    }
  });
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  drainer.join();
  rec.stop();

  const std::vector<Json> records = rec.jsonl_records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kThreads) * kPairs * 2);
  // Per thread: inner (depth 2) completes before its outer (depth 1),
  // seq strictly increasing.
  std::map<double, std::vector<const Json*>> by_tid;
  for (const Json& r : records)
    by_tid[r.find("tid")->as_number()].push_back(&r);
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, list] : by_tid) {
    ASSERT_EQ(list.size(), static_cast<std::size_t>(kPairs) * 2);
    for (std::size_t i = 0; i < list.size(); ++i) {
      const bool is_inner = i % 2 == 0;
      EXPECT_EQ(list[i]->find("name")->as_string(),
                is_inner ? "stress/inner" : "stress/outer");
      EXPECT_EQ(list[i]->find("depth")->as_number(), is_inner ? 2.0 : 1.0);
      if (i > 0) {
        EXPECT_EQ(list[i]->find("seq")->as_number(),
                  list[i - 1]->find("seq")->as_number() + 1.0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The daemon's metrics wire op
// ---------------------------------------------------------------------------

TEST(ObsMetrics, MetricsWireOpRoundTrips) {
  net::SweepServer server;
  server.start();
  net::SweepClient client("127.0.0.1", server.port());

  service::SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.9};
  client.submit(spec);

  const Json reply = client.metrics();
  EXPECT_EQ(net::event_name(reply), "metrics");
  const Json* counters = reply.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  // The submit above flowed through the server and the sweep service.
  EXPECT_GE(counters->find("net.requests")->as_number(), 1.0);
  EXPECT_GE(counters->find("sweep.points")->as_number(), 1.0);
  ASSERT_NE(reply.find("gauges"), nullptr);
  ASSERT_NE(reply.find("histograms"), nullptr);
  server.stop();
}

/// The final power report of `nl` as a fresh simulation computes it: the
/// reserved stream's 512 vectors under the configured backend.
power::PowerReport fresh_power(const api::OptContext& ctx,
                               const api::OptimizerConfig& cfg,
                               const netlist::Netlist& nl) {
  util::Rng rng = ctx.make_rng(api::kPowerRngStream);
  return cfg.make_power_model(nl.lib())->estimate(
      nl, rng, power::kDefaultFrequencyMhz, 512, cfg.temperature_c);
}

void expect_same_power(const power::PowerReport& got,
                       const power::PowerReport& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(got.area_um), bits(want.area_um));
  EXPECT_EQ(bits(got.switched_cap_ff), bits(want.switched_cap_ff));
  EXPECT_EQ(bits(got.dynamic_uw), bits(want.dynamic_uw));
  EXPECT_EQ(bits(got.leakage_uw), bits(want.leakage_uw));
  EXPECT_EQ(bits(got.total_uw), bits(want.total_uw));
  EXPECT_EQ(bits(got.frequency_mhz), bits(want.frequency_mhz));
  EXPECT_EQ(bits(got.subthreshold_uw), bits(want.subthreshold_uw));
  EXPECT_EQ(bits(got.gate_leak_uw), bits(want.gate_leak_uw));
  EXPECT_EQ(bits(got.temperature_c), bits(want.temperature_c));
  EXPECT_EQ(got.model, want.model);
}

TEST(ObsTrace, MultiVtPointSimulatesActivityOnce) {
  // One c432 point under the state backend with multi-Vt: MultiVtPass
  // simulates activity once and evaluates it before and after its flips
  // (a Vt flip changes neither logic nor load); the pipeline's final
  // power report evaluates the same simulation a third time instead of
  // simulating the final netlist again — with the same bytes.
  api::OptContext ctx;
  ctx.warm_flimits();
  netlist::Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  const api::OptimizerConfig cfg =
      api::OptimizerConfig{}.with_power_model("state").with_multi_vt(true);
  const api::Optimizer opt(ctx, cfg);

  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  const api::PipelineReport report = opt.run_relative(nl, 1.25);
  rec.stop();
  ASSERT_GT(report.total_cells_high_vt(), 0u);  // the after-flip report ran

  std::map<std::string, int> spans;
  for (const Json& r : rec.jsonl_records())
    ++spans[r.find("name")->as_string()];
  EXPECT_EQ(spans["power/activity"], 1);
  EXPECT_EQ(spans["power/evaluate"], 3);
  expect_same_power(report.power, fresh_power(ctx, cfg, nl));
  for (const api::PassReport& p : report.passes)
    EXPECT_EQ(p.activity, nullptr) << p.pass_name;  // transient only
}

/// Upsizes one gate after the multi-vt pass: loads move, so the
/// simulation multi-vt handed on no longer describes the netlist.
class UpsizeOneGatePass final : public api::Pass {
 public:
  std::string_view name() const noexcept override { return "upsize-one"; }
  void run(netlist::Netlist& nl, const api::OptContext&,
           const api::OptimizerConfig&, double, api::PassReport& report,
           timing::IncrementalSta& sta) const override {
    const netlist::NodeId g = nl.gates().front();
    nl.set_drive(g, nl.drive(g) * 1.5);
    const netlist::NodeId dirty[] = {g};
    sta.update(dirty);
    report.changed = true;
  }
};

TEST(ObsTrace, ResizeAfterMultiVtSimulatesActivityAgain) {
  api::OptContext ctx;
  ctx.warm_flimits();
  netlist::Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  const api::OptimizerConfig cfg =
      api::OptimizerConfig{}.with_power_model("state").with_multi_vt(true);
  api::PassPipeline pipeline = api::PassPipeline::standard(cfg);
  pipeline.emplace<UpsizeOneGatePass>();
  const double initial =
      timing::Sta(nl, ctx.backend(cfg).dm()).run().critical_delay_ps;

  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  const api::PipelineReport report =
      pipeline.run(nl, ctx, cfg, 1.25 * initial, initial);
  rec.stop();
  ASSERT_GT(report.total_cells_high_vt(), 0u);

  std::map<std::string, int> spans;
  for (const Json& r : rec.jsonl_records())
    ++spans[r.find("name")->as_string()];
  EXPECT_EQ(spans["power/activity"], 2);
  expect_same_power(report.power, fresh_power(ctx, cfg, nl));
}

TEST(ObsTrace, ProtocolPointSpansEverySolveAndCountsItsSweeps) {
  // c432 at Tc 0.65 reaches the protocol: its work shows up as bounds,
  // insertion, sizing and write-back spans under protocol/round, and the
  // sweeps the size spans report are the protocol.sweeps counter's.
  api::OptContext ctx;
  ctx.warm_flimits();
  netlist::Netlist nl = netlist::make_benchmark(ctx.lib(), "c432");
  const api::Optimizer opt(ctx);
  const auto counter = [](const char* name) {
    const Json snap = obs::Registry::global().snapshot_json();
    const Json* c = snap.find("counters")->find(name);
    return c != nullptr ? c->as_number() : 0.0;
  };
  const double sweeps_before = counter("protocol.sweeps");
  const double solves_before = counter("protocol.solves");

  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  opt.run_relative(nl, 0.65);
  rec.stop();

  std::map<std::string, int> spans;
  double size_sweeps = 0.0;
  for (const Json& r : rec.jsonl_records()) {
    const std::string name = r.find("name")->as_string();
    ++spans[name];
    if (name == "protocol/size")
      size_sweeps += r.find("args")->find("sweeps")->as_number();
  }
  ASSERT_GT(spans["protocol/round"], 0);
  EXPECT_GT(spans["protocol/bounds"], 0);
  EXPECT_GT(spans["protocol/buffers"], 0);
  EXPECT_GE(spans["protocol/size"], spans["protocol/bounds"]);
  EXPECT_EQ(spans["protocol/write_back"], spans["protocol/bounds"]);
  const double sweeps = counter("protocol.sweeps") - sweeps_before;
  EXPECT_GT(sweeps, 0.0);
  EXPECT_EQ(sweeps, size_sweeps);
  // Every size call solves a = 0 at least once.
  EXPECT_GE(counter("protocol.solves") - solves_before, spans["protocol/size"]);
}

// ---------------------------------------------------------------------------
// Acceptance: tracing observes, it never feeds back
// ---------------------------------------------------------------------------

std::vector<std::string> sweep_stream() {
  api::OptContext ctx;
  service::SweepService sweeps(ctx);
  service::SweepSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.tc_ratios = {0.85, 0.95};
  spec.n_threads = 2;
  std::vector<std::string> records;
  sweeps.run(
      spec,
      [&ctx](const std::string& name) {
        return netlist::make_benchmark(ctx.lib(), name);
      },
      [&records](const service::SweepPoint& point) {
        records.push_back(
            service::to_json(point, {.measured = false}).dump(0));
      });
  return records;
}

TEST(ObsTrace, TracingChangesNoResultBitsAndSpansEveryLayer) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.stop();
  const std::vector<std::string> untraced = sweep_stream();

  rec.start();
  const std::vector<std::string> traced = sweep_stream();
  rec.stop();

  // Bit-identical replay: spans observe the run, they never feed back.
  ASSERT_EQ(traced.size(), untraced.size());
  for (std::size_t i = 0; i < traced.size(); ++i)
    EXPECT_EQ(traced[i], untraced[i]) << i;

  // And the trace saw every layer of the stack: pipeline pass, sweep
  // point, STA update, cache lookup, serialization.
  std::set<std::string> names;
  bool pass_span = false, sta_span = false;
  for (const Json& r : rec.jsonl_records()) {
    const std::string name = r.find("name")->as_string();
    names.insert(name);
    pass_span = pass_span || name.rfind("pass/", 0) == 0;
    sta_span = sta_span || name.rfind("sta/", 0) == 0;
  }
  EXPECT_TRUE(pass_span) << "no pipeline pass span";
  EXPECT_TRUE(sta_span) << "no STA span";
  EXPECT_TRUE(names.count("optimizer/point")) << "no sweep-point span";
  EXPECT_TRUE(names.count("cache/lookup")) << "no cache span";
  EXPECT_TRUE(names.count("serialize/point")) << "no serialization span";
  EXPECT_TRUE(names.count("sweep/run")) << "no sweep-service span";
}

}  // namespace
