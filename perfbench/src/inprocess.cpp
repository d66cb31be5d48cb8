// iscas-grid and synth-multivt: single-point SweepService::run calls in one
// process with one optimizer thread.
//
// Untraced, each point is the unit the fabric ships: SweepService::run of
// a one-point spec plus its record serialization. Traced, the same points
// are then replayed step by step through the layers' public functions, in
// PassPipeline::run's order, with a perfbench span around every call; the
// replay must reproduce the untraced record bytes.

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "pops/api/api.hpp"
#include "pops/netlist/bench_io.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/netlist/logic_sim.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"
#include "pops/power/power_model.hpp"
#include "pops/service/serialize.hpp"
#include "pops/service/sweep.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/sta.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pops;

// Work per run is a function of (seed, seconds) alone, so every count and
// QoR figure repeats exactly for a seed; these nominal rates only size it
// to about `seconds` on the reference host.
constexpr double kGridCycleSeconds = 7.0;     // 11 circuits x 10 Tc
constexpr double kSynthPointsPerSecond = 8.0;
constexpr std::size_t kMinPoints = 100;  // >= 10 samples above p90
constexpr int kSetupReps = 5;

struct Job {
  std::string circuit;
  double ratio = 0.0;
};

struct Workload {
  api::OptimizerConfig base;
  service::BufferPolicy policy;
  std::string vt_policy = "none";
  double temperature_c = power::kDefaultTemperatureC;
  std::vector<std::string> circuits;
  std::map<std::string, std::string> bench;  ///< empty = program built-ins
  std::vector<Job> jobs;
};

std::string exact(double v) { return util::Json::number_to_string(v); }

Workload make_workload(const Args& a, Digest& digest) {
  Workload w;
  if (a.workload == "iscas-grid") {
    w.policy = service::buffer_policy("standard");
    w.circuits = iscas_circuits();
    const int cycles =
        std::max(1, static_cast<int>(std::lround(a.seconds / kGridCycleSeconds)));
    Rng rng(stream_seed(a.seed, 1));
    for (int c = 0; c < cycles; ++c) {
      std::vector<Job> cycle;
      for (const double r : grid_ratios(rng))
        for (const std::string& name : w.circuits) cycle.push_back({name, r});
      // Shuffled, so host drift within a run hits every circuit alike.
      for (std::size_t i = cycle.size(); i > 1; --i)
        std::swap(cycle[i - 1], cycle[rng.below(i)]);
      w.jobs.insert(w.jobs.end(), cycle.begin(), cycle.end());
    }
  } else {
    w.policy = service::buffer_policy("no-shield");
    w.vt_policy = "multi-vt";
    w.base.power_model = "state";
    w.temperature_c = 85.0;
    const std::size_t n = std::max<std::size_t>(
        kMinPoints, static_cast<std::size_t>(std::lround(a.seconds * kSynthPointsPerSecond)));
    for (SynthCircuit& c : synth_circuits(a.seed, n)) {
      w.circuits.push_back(c.name);
      w.jobs.push_back({c.name, c.tc_ratio});
      w.bench[c.name] = std::move(c.bench);
    }
  }
  for (const Job& j : w.jobs) digest.add(j.circuit + "@" + exact(j.ratio));
  for (const auto& [name, text] : w.bench) digest.add(text);
  return w;
}

/// What set-up produces: the context (library, delay model, warmed
/// Flimits) and the parsed circuits.
struct Loaded {
  std::unique_ptr<api::OptContext> ctx;
  std::map<std::string, netlist::Netlist> protos;
};

Loaded load(const Workload& w, Tracer* tracer) {
  Loaded l;
  l.ctx = std::make_unique<api::OptContext>();
  l.ctx->warm_flimits();
  for (const std::string& name : w.circuits) {
    std::optional<Tracer::Layer> span;
    if (tracer) span.emplace(*tracer, "netlist.parse");
    const auto it = w.bench.find(name);
    if (it == w.bench.end()) {
      l.protos.emplace(name, netlist::make_benchmark(l.ctx->lib(), name));
    } else {
      netlist::BenchReadOptions opt;
      opt.name = name;
      l.protos.emplace(name, netlist::read_bench_string(it->second, l.ctx->lib(), opt));
    }
  }
  return l;
}

service::SweepSpec point_spec(const Workload& w, const Job& j) {
  service::SweepSpec s;
  s.circuits = {j.circuit};
  s.tc_ratios = {j.ratio};
  s.temperatures = {w.temperature_c};
  s.vt_policies = {w.vt_policy};
  s.policies = {w.policy};
  s.base = w.base;
  s.n_threads = 1;
  return s;
}

/// The job config SweepService::run derives from the spec.
api::OptimizerConfig job_config(const Workload& w) {
  api::OptimizerConfig cfg = w.base;
  cfg.enable_shielding = w.policy.shielding;
  cfg.allow_restructuring = w.policy.restructuring;
  cfg.shield_margin = 1.0;
  cfg.temperature_c = w.temperature_c;
  if (w.vt_policy == "multi-vt") cfg.enable_multi_vt = true;
  return cfg;
}

const char* layer_of(std::string_view pass) {
  if (pass == "shield") return "api.shield";
  if (pass == "protocol") return "api.protocol";
  if (pass == "multi-vt") return "api.multi_vt";
  return "api.cleanup";  // cancel-inverters, sweep-dead
}

/// One point through the layers' public functions, in PassPipeline::run's
/// order, each call inside a perfbench span. Returns the record bytes.
std::string traced_point(Tracer& t, api::OptContext& ctx,
                         const netlist::Netlist& proto, const Workload& w,
                         const Job& j) {
  const api::OptimizerConfig cfg = job_config(w);
  std::optional<netlist::Netlist> copy;
  {
    Tracer::Layer s(t, "netlist.copy");
    copy.emplace(proto);
  }
  netlist::Netlist& nl = *copy;
  std::optional<api::Optimizer> opt;
  {
    Tracer::Layer s(t, "api.optimizer");
    opt.emplace(ctx, cfg);
  }
  double initial = 0.0;
  {
    Tracer::Layer s(t, "timing.initial_sta");
    timing::StaOptions o;
    o.pi_slew_ps = cfg.pi_slew_ps;
    initial = timing::Sta(nl, ctx.dm(), o).run().critical_delay_ps;
  }
  const double tc = j.ratio * initial;

  api::PipelineReport out;
  std::optional<timing::IncrementalSta> engine;
  double delay = initial;
  {
    Tracer::Layer s(t, "api.envelope");
    timing::StaOptions o;
    o.pi_slew_ps = cfg.pi_slew_ps;
    o.level_parallel_workers = cfg.sta_workers;
    o.level_parallel_min_nodes = cfg.sta_parallel_min_nodes;
    engine.emplace(nl, ctx.dm(), o);
    out.tc_ps = tc;
    out.delay_model = std::string(ctx.dm().name());
    out.initial_delay_ps = initial;
    out.initial_area_um = nl.total_width_um();
  }
  const api::PassPipeline& pipeline = opt->pipeline();
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const api::Pass& pass = pipeline.pass(i);
    Tracer::Layer s(t, layer_of(pass.name()));
    api::PassReport rep;
    rep.pass_name = std::string(pass.name());
    rep.delay_before_ps = delay;
    rep.area_before_um = nl.total_width_um();
    const std::uint64_t revision = engine->revision();
    pass.run(nl, ctx, cfg, tc, rep, *engine);
    if (rep.changed && engine->revision() == revision) engine->invalidate();
    delay = (engine->has_result() ? engine->result() : engine->run_full())
                .critical_delay_ps;
    rep.delay_after_ps = delay;
    rep.area_after_um = nl.total_width_um();
    out.passes.push_back(std::move(rep));
  }
  std::unique_ptr<power::PowerModel> pm;
  {
    Tracer::Layer s(t, "api.envelope");
    out.final_delay_ps = delay;
    out.final_area_um = nl.total_width_um();
    pm = cfg.make_power_model(nl.lib());
  }
  util::Rng rng = ctx.make_rng(api::kPowerRngStream);
  netlist::ActivityReport activity;
  {
    Tracer::Layer s(t, "netlist.activity");
    activity = netlist::estimate_activity(nl, rng, 512);
  }
  {
    Tracer::Layer s(t, "power.evaluate");
    out.power = pm->evaluate(nl, activity, power::kDefaultFrequencyMhz,
                             cfg.temperature_c);
  }
  service::SweepPoint point;
  {
    Tracer::Layer s(t, "api.envelope");
    out.vt_mix.assign(nl.lib().tech().n_vt_classes(), 0);
    for (std::size_t i = 0; i < nl.size(); ++i) {
      const netlist::Node& n = nl.node(static_cast<netlist::NodeId>(i));
      if (!n.is_input) ++out.vt_mix[static_cast<std::size_t>(n.vt)];
    }
    out.met = core::tc_met(out.final_delay_ps, tc);
    point.circuit = j.circuit;
    point.tc_ratio = j.ratio;
    point.temperature_c = w.temperature_c;
    point.policy = w.policy.name;
    point.vt_policy = w.vt_policy;
    point.report = std::move(out);
  }
  Tracer::Layer s(t, "service.serialize");
  return service::to_json(point, {.measured = false}).dump(0);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// After the timed phase: every optimized netlist the cache holds is
/// re-timed cold, re-summed and checked equivalent to its input.
void check_outputs(RunResult& out, const service::ResultCache& cache,
                   const Loaded& l, const api::OptimizerConfig& cfg,
                   std::size_t expected) {
  std::size_t seen = 0;
  cache.for_each_entry([&](const api::ResultCacheKey&, const netlist::Netlist& nl,
                           const api::PipelineReport& report) {
    ++seen;
    const auto it = l.protos.find(nl.name());
    if (it == l.protos.end()) {
      out.fail("optimized netlist '" + nl.name() + "' has no input circuit");
      return;
    }
    timing::StaOptions o;
    o.pi_slew_ps = cfg.pi_slew_ps;
    const double delay = timing::Sta(nl, l.ctx->dm(), o).run().critical_delay_ps;
    if (!same_bits(delay, report.final_delay_ps))
      out.fail(nl.name() + ": cold STA " + exact(delay) + " ps != final_delay_ps " +
               exact(report.final_delay_ps));
    if (!same_bits(nl.total_width_um(), report.final_area_um))
      out.fail(nl.name() + ": sum W " + exact(nl.total_width_um()) +
               " != final_area_um " + exact(report.final_area_um));
    util::Rng rng(0x65717576ull);
    if (!netlist::equivalent(it->second, nl, rng))
      out.fail(nl.name() + ": optimized netlist is not equivalent to its input");
  });
  if (seen != expected)
    out.fail("cache holds " + std::to_string(seen) + " optimized netlists, expected " +
             std::to_string(expected));
}

double counter(const util::Json& snapshot, const std::string& name) {
  const util::Json* counters = snapshot.find("counters");
  const util::Json* v = counters ? counters->find(name) : nullptr;
  return v ? v->as_number() : 0.0;
}

}  // namespace

RunResult run_inprocess(const Args& args) {
  RunResult out;
  Digest digest;
  const Workload w = make_workload(args, digest);
  out.info["input_digest"] = digest.hex();
  out.info["points"] = w.jobs.size();

  Tracer tracer(args.trace);
  // Every timing is bracketed by host probes (see host_probe_ms).
  std::vector<double> setup_ms, raw_setup_ms;
  Loaded l;
  double probe = host_probe_ms();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    Loaded fresh = load(w, rep + 1 == kSetupReps && tracer.on() ? &tracer : nullptr);
    const double ms = ms_since(t0);
    l = std::move(fresh);
    const double next = host_probe_ms();
    raw_setup_ms.push_back(ms);
    setup_ms.push_back(at_reference_speed(ms, probe, next));
    probe = next;
  }

  service::SweepService svc(*l.ctx, /*use_cache=*/true);
  const service::SweepService::CircuitLoader loader =
      [&l](const std::string& name) { return l.protos.at(name); };
  std::vector<service::SweepSpec> specs;
  for (const Job& j : w.jobs) specs.push_back(point_spec(w, j));

  std::vector<double> point_ms, raw_ms;
  std::vector<std::string> records(w.jobs.size());
  std::vector<api::PipelineReport> reports;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    ++out.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      service::SweepReport r = svc.run(specs[i], loader);
      records[i] = service::to_json(r.points.at(0), {.measured = false}).dump(0);
      const double ms = ms_since(t0);
      const double next = host_probe_ms();
      raw_ms.push_back(ms);
      point_ms.push_back(at_reference_speed(ms, probe, next));
      probe = next;
      reports.push_back(std::move(r.points[0].report));
    } catch (const std::exception& e) {
      out.fail(w.jobs[i].circuit + "@" + exact(w.jobs[i].ratio) + ": " + e.what());
    }
  }
  const double peak_rss_mb = self_peak_rss_mb();

  const service::ResultCache::Stats cache_stats = svc.cache()->stats();
  check_outputs(out, *svc.cache(), l, job_config(w), reports.size());

  if (!args.trace) {
    report_latencies(out, point_ms, median(setup_ms) / 1000.0);
    double raw_total = 0.0;
    for (const double v : raw_ms) raw_total += v;
    out.info["raw_setup_s"] = median(raw_setup_ms) / 1000.0;
    out.info["raw_points_per_s"] = static_cast<double>(raw_ms.size()) * 1000.0 / raw_total;
    out.info["raw_point_ms_p50"] = quantile(raw_ms, 0.5);
    out.info["raw_point_ms_p90"] = quantile(raw_ms, 0.9);
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    std::size_t met = 0;
    double log_area = 0.0, power = 0.0, leakage = 0.0;
    for (const api::PipelineReport& r : reports) {
      met += r.met ? 1 : 0;
      log_area += std::log(r.final_area_um / r.initial_area_um);
      power += r.power.total_uw;
      leakage += r.power.leakage_uw;
    }
    const double n = static_cast<double>(std::max<std::size_t>(reports.size(), 1));
    out.metric("met_frac", static_cast<double>(met) / n, "fraction");
    out.metric("area_ratio", std::exp(log_area / n), "ratio");
    out.metric("power_uw", power / n, "uW");
    out.metric("leakage_uw", leakage / n, "uW");
    return out;
  }

  // Traced replay of the same points, step by step through the layers.
  const util::Json before = obs::Registry::global().snapshot_json();
  obs::TraceRecorder::global().start();
  std::vector<double> traced_ms;
  double min_coverage = 1.0;
  double covered = tracer.covered_ms();
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const Job& j = w.jobs[i];
    const Clock::time_point t0 = Clock::now();
    const std::string rec = traced_point(tracer, *l.ctx, l.protos.at(j.circuit), w, j);
    const double ms = ms_since(t0);
    traced_ms.push_back(ms);
    min_coverage = std::min(min_coverage, (tracer.covered_ms() - covered) / ms);
    covered = tracer.covered_ms();
    if (rec != records[i])
      out.fail(j.circuit + "@" + exact(j.ratio) +
               ": step-by-step layer calls did not reproduce the record bytes");
  }
  obs::TraceRecorder::global().stop();
  const util::Json after = obs::Registry::global().snapshot_json();
  const auto delta = [&](const std::string& name) {
    return counter(after, name) - counter(before, name);
  };
  std::size_t slack_full = 0;
  for (const util::Json& ev : obs::TraceRecorder::global().jsonl_records())
    if (const util::Json* name = ev.find("name");
        name && name->as_string() == "sta/slack_full")
      ++slack_full;
  if (min_coverage < 0.9)
    out.fail("layer spans cover only " + exact(min_coverage) + " of a point");

  const double n = static_cast<double>(w.jobs.size());
  report_layers(out, tracer);
  out.metric("timing.slack_full_calls", static_cast<double>(slack_full), "count");
  out.metric("timing.full_runs", delta("sta.full_runs"), "count");
  out.metric("timing.updates", delta("sta.updates"), "count");
  const double kpaths = delta("sta.kpaths_cached") + delta("sta.kpaths_enumerated");
  out.metric("timing.kpaths_cached_ratio",
             kpaths > 0 ? delta("sta.kpaths_cached") / kpaths : 0.0, "ratio");
  out.metric("api.protocol_rounds", delta("protocol.rounds"), "count");
  out.metric("api.cells_high_vt", delta("multi_vt.cells_high_vt"), "count");
  out.metric("power.evals", delta("power.evals"), "count");
  const double lookups = static_cast<double>(cache_stats.hits + cache_stats.misses);
  out.metric("service.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(cache_stats.hits) / lookups : 0.0,
             "ratio");
  out.metric("service.cache_misses", static_cast<double>(cache_stats.misses), "count");
  out.metric("service.journal_appends", 0.0, "count");
  out.metric("net.bytes_out_per_point", 0.0, "B");
  out.metric("fabric.failovers", 0.0, "count");
  out.metric("trace.points", n, "count");
  out.metric("trace.coverage_min", min_coverage, "fraction");
  double untraced = 0.0, traced = 0.0;
  for (const double v : raw_ms) untraced += v;
  for (const double v : traced_ms) traced += v;
  out.metric("trace.overhead_ms", (traced - untraced) / n, "ms");
  tracer.write(args.work_dir + "/trace-" + args.workload + ".json");
  return out;
}

}  // namespace perfbench
