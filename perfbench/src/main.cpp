// perfbench — the POPS benchmark.
//
//   perfbench --workload iscas-grid|synth-multivt|fleet-replay --seed N
//             --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//
// Prints one {"info": ...} line (seed, held-out seed, input digest, sample
// counts) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when any
// point failed or any output check did not hold, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// The seed kept out of tuning, for later gain claims.
constexpr std::uint64_t kHeldOutSeed = 9001;

Args parse(int argc, char** argv) {
  Args a;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stoi(v);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (arg == "--serve-bin") {
      a.serve_bin = v;
    } else if (arg == "--work-dir") {
      a.work_dir = v;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (a.workload != "iscas-grid" && a.workload != "synth-multivt" &&
      a.workload != "fleet-replay")
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (a.seconds < 1 || a.seconds > 600)
    throw std::invalid_argument("--seconds must be in [1, 600]");
  if (!have_trace || a.work_dir.empty() ||
      (a.workload == "fleet-replay" && a.serve_bin.empty()))
    throw std::invalid_argument("--trace, --work-dir and (fleet) --serve-bin are required");
  return a;
}

}  // namespace

void report_latencies(RunResult& out, const std::vector<double>& point_ms,
                      double setup_s) {
  double total_ms = 0.0;
  for (const double v : point_ms) total_ms += v;
  const double n = static_cast<double>(point_ms.size());
  const double p50 = quantile(point_ms, 0.5);
  const double p90 = quantile(point_ms, 0.9);
  const std::size_t above_p90 = count_above(point_ms, p90);
  out.info["samples"] = point_ms.size();
  out.info["samples_above_p50"] = count_above(point_ms, p50);
  out.info["samples_above_p90"] = above_p90;

  out.metric("setup_s", setup_s, "s");
  out.metric("points_per_s", n / (total_ms / 1000.0), "1/s");
  out.metric("point_ms_p50", p50, "ms");
  // A p90 resting on a handful of points is noise, not a tail.
  if (above_p90 < 10)
    out.fail("point_ms_p90 refused: " + std::to_string(above_p90) +
             " samples above it, need 10");
  else
    out.metric("point_ms_p90", p90, "ms");
}

void report_layers(RunResult& out, const Tracer& tracer) {
  static const char* const kLayers[] = {
      "netlist.parse",     "netlist.copy",     "netlist.activity",
      "timing.initial_sta", "api.optimizer",   "api.envelope",
      "api.shield",        "api.cleanup",      "api.protocol",
      "api.multi_vt",      "power.evaluate",   "service.serialize",
      "service.journal_replay", "net.roundtrip"};
  pops::util::Json calls = pops::util::Json::object();
  for (const char* layer : kLayers) {
    out.metric(std::string(layer) + "_ms", tracer.total_ms(layer), "ms");
    calls[layer] = tracer.calls(layer);
  }
  out.info["layer_calls"] = calls;
  // The coordinator's own share of a fleet request: its run minus the
  // wire round trip the same point costs sent straight to its worker.
  out.metric("fabric.dispatch_ms",
             tracer.total_ms("fabric.run") - tracer.total_ms("net.roundtrip"), "ms");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  RunResult r;
  try {
    r = args.workload == "fleet-replay" ? run_fleet(args) : run_inprocess(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& p : r.problems) std::fprintf(stderr, "perfbench: FAIL %s\n", p.c_str());

  r.info["workload"] = args.workload;
  r.info["seed"] = args.seed;
  r.info["held_out_seed"] = kHeldOutSeed;
  pops::util::Json info = pops::util::Json::object();
  info["info"] = r.info;
  std::printf("%s\n", info.dump(0).c_str());

  pops::util::Json metrics = pops::util::Json::object();
  for (const Metric& m : r.metrics) {
    pops::util::Json v = pops::util::Json::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[m.name] = v;
  }
  pops::util::Json result = pops::util::Json::object();
  result["correct"] = r.failed == 0;
  result["attempted"] = r.attempted;
  result["failed"] = r.failed;
  result["metrics"] = metrics;
  std::printf("%s\n", result.dump(0).c_str());
  return r.failed == 0 ? 0 : 1;
}
