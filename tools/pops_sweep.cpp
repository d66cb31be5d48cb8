// pops_sweep — batch constraint-sweep front-end over pops::service.
//
// Loads .bench netlists (or built-in benchmarks with a leading '@'),
// expands a declarative sweep grid (Tc ratios x shield margins x
// temperatures x Vt policies x buffer policies), runs it through
// SweepService — memoizing repeated points in
// the context's ResultCache — and writes one JSON report. With --jsonl,
// each completed point is additionally streamed to stdout as a compact
// one-line record while the sweep runs. The grid may come from a JSON
// spec file (--spec, the to_json(SweepSpec) schema) instead of flags, and
// the same grid can be run under several delay-model backends
// (--delay-model closed-form,table) for side-by-side comparison — the
// records carry the producing backend, and the result cache keys on it,
// so mixed-backend repeats never alias.
//
//   pops_sweep --tc 0.7,0.85,1.0 c432.bench @c880
//   pops_sweep --tc 0.8 --margins 1.0,1.5 --policies standard,no-shield
//              --repeat 2 --out report.json @c432
//   pops_sweep --delay-model closed-form,table --tc 0.85 @c432
//   pops_sweep --spec sweep.json --out report.json
//
// See README.md ("Constraint sweeps as a service" and "Delay-model
// backends") for the spec axes, the JSON schema, and the cache semantics.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "pops/netlist/bench_io.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/obs/trace.hpp"
#include "pops/service/serialize.hpp"
#include "pops/service/sweep.hpp"

namespace {

using namespace pops;
using cli::parse_double;
using cli::parse_long;
using cli::split_doubles;
using cli::split_list;

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: pops_sweep [options] <circuit.bench | @builtin>...\n"
               "\n"
               "Sweep axes (comma-separated lists):\n"
               "  --tc RATIOS        Tc as fractions of each circuit's "
               "initial delay (default 0.8)\n"
               "  --margins LIST     shield-margin (Flimit bound) points "
               "(default 1.0)\n"
               "  --policies LIST    buffer policies: standard no-shield "
               "no-restructure minimal (default standard)\n"
               "  --temperature LIST junction temperatures (degC) the "
               "power section is\n"
               "                     evaluated at (default 25)\n"
               "  --vt-policies LIST Vt assignment regimes: none multi-vt "
               "(default none)\n"
               "  --pipeline LIST    explicit pass sequence by registry "
               "name (default: standard pipeline)\n"
               "  --delay-model LIST delay-model backends to run the grid "
               "under: closed-form table\n"
               "                     (several = the whole sweep once per "
               "backend, side by side)\n"
               "  --power-model NAME power backend for every point's power "
               "section: proxy state\n"
               "                     (default proxy)\n"
               "  --spec FILE        load the sweep spec from a JSON file "
               "(to_json(SweepSpec)\n"
               "                     schema); replaces axis/base flags "
               "given before it, flags\n"
               "                     after it override; spec circuits "
               "without '@'/'.bench'/'/'\n"
               "                     resolve as built-ins, CLI circuits "
               "are merged in\n"
               "\n"
               "Execution:\n"
               "  --threads N        workers per batch (default 0 = "
               "hardware threads)\n"
               "  --repeat K         run the whole sweep K times; repeats "
               "hit the result cache (default 1)\n"
               "  --no-cache         disable result caching\n"
               "  --po-load FF       primary-output load for .bench "
               "files (default 12.0)\n"
               "\n"
               "  --allow-unmet      exit 0 even when sweep points miss "
               "their constraint\n"
               "                     (default: any unmet point exits 2, "
               "so CI can assert)\n"
               "\n"
               "Output:\n"
               "  --out FILE         write the JSON report to FILE "
               "(default: stdout)\n"
               "  --jsonl            stream one compact JSON record per "
               "point to stdout (the\n"
               "                     final report then goes only to "
               "--out, never to stdout)\n"
               "  --no-runtimes      drop the run-dependent 'measured' "
               "fields from records\n"
               "                     (same spec => byte-identical "
               "output, diffable with no scrubbing)\n"
               "  --trace FILE       record a Chrome trace-event JSON of "
               "the run to FILE\n"
               "                     (load in chrome://tracing or "
               "Perfetto; summarize with pops_profile)\n"
               "  --list-passes      print the registered pass names and "
               "exit\n"
               "  -h, --help         this text\n");
}

struct Options {
  service::SweepSpec spec;
  std::map<std::string, std::string> bench_paths;  // label -> file path
  std::vector<std::string> delay_models;  // empty = the spec base's backend
  double po_load_ff = 12.0;
  int repeat = 1;
  bool use_cache = true;
  bool jsonl = false;
  bool allow_unmet = false;
  bool record_runtimes = true;
  std::string out_path;
  std::string trace_path;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.spec.tc_ratios = {0.8};

  auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(flag) + " needs a value");
    return argv[++i];
  };

  // Circuits resolve by cli::positional_circuit (CLI) or
  // cli::spec_circuit (spec files); files load from their path.
  auto add_circuit = [&opt](const cli::CircuitArg& c) {
    opt.spec.circuits.push_back(c.label);
    if (!c.path.empty()) opt.bench_paths[c.label] = c.path;
  };

  std::vector<std::string> policy_names;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      std::exit(0);
    } else if (arg == "--list-passes") {
      for (const std::string& n : api::PassRegistry::global().names())
        std::printf("%s\n", n.c_str());
      std::exit(0);
    } else if (arg == "--spec") {
      const std::string path = value(i, "--spec");
      std::ifstream in(path);
      if (!in) throw std::runtime_error("cannot open '" + path + "'");
      std::ostringstream text;
      text << in.rdbuf();
      service::SweepSpec file_spec =
          service::sweep_spec_from_json(util::Json::parse(text.str()));
      // The spec REPLACES every axis/base value given before it (flags
      // after --spec override; see usage) — including a pending
      // --policies or --delay-model, which would otherwise silently win
      // over the file. Circuits already given on the CLI are kept/merged.
      policy_names.clear();
      opt.delay_models.clear();
      std::vector<std::string> circuits = std::move(file_spec.circuits);
      file_spec.circuits = std::move(opt.spec.circuits);
      opt.spec = std::move(file_spec);
      for (const std::string& c : circuits) add_circuit(cli::spec_circuit(c));
    } else if (arg == "--delay-model") {
      opt.delay_models = split_list(value(i, "--delay-model"));
      if (opt.delay_models.empty())
        throw std::invalid_argument("--delay-model needs at least one name");
    } else if (arg == "--tc") {
      opt.spec.tc_ratios = split_doubles(value(i, "--tc"), "--tc");
    } else if (arg == "--margins") {
      opt.spec.shield_margins =
          split_doubles(value(i, "--margins"), "--margins");
    } else if (arg == "--policies") {
      policy_names = split_list(value(i, "--policies"));
    } else if (arg == "--temperature") {
      opt.spec.temperatures =
          split_doubles(value(i, "--temperature"), "--temperature");
    } else if (arg == "--vt-policies") {
      opt.spec.vt_policies = split_list(value(i, "--vt-policies"));
    } else if (arg == "--power-model") {
      opt.spec.base.power_model = value(i, "--power-model");
    } else if (arg == "--pipeline") {
      opt.spec.pipeline = split_list(value(i, "--pipeline"));
    } else if (arg == "--threads") {
      const long n = parse_long(value(i, "--threads"), "--threads");
      if (n < 0) throw std::invalid_argument("--threads must be >= 0");
      opt.spec.n_threads = static_cast<std::size_t>(n);
    } else if (arg == "--repeat") {
      const long n = parse_long(value(i, "--repeat"), "--repeat");
      if (n < 1) throw std::invalid_argument("--repeat must be >= 1");
      opt.repeat = static_cast<int>(n);
    } else if (arg == "--no-cache") {
      opt.use_cache = false;
    } else if (arg == "--allow-unmet") {
      opt.allow_unmet = true;
    } else if (arg == "--po-load") {
      opt.po_load_ff = parse_double(value(i, "--po-load"), "--po-load");
    } else if (arg == "--out") {
      opt.out_path = value(i, "--out");
    } else if (arg == "--jsonl") {
      opt.jsonl = true;
    } else if (arg == "--no-runtimes") {
      opt.record_runtimes = false;
    } else if (arg == "--trace") {
      opt.trace_path = value(i, "--trace");
    } else if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown option '" + arg + "'");
    } else {
      add_circuit(cli::positional_circuit(arg));
    }
  }

  if (!policy_names.empty()) {
    opt.spec.policies.clear();
    for (const std::string& name : policy_names)
      opt.spec.policies.push_back(service::buffer_policy(name));
  }
  if (opt.spec.circuits.empty())
    throw std::invalid_argument(
        "no circuits given (expected .bench paths or @builtin names)");
  return opt;
}

netlist::Netlist load_circuit(const Options& opt, const api::OptContext& ctx,
                              const std::string& label) {
  const auto it = opt.bench_paths.find(label);
  if (it == opt.bench_paths.end())
    return netlist::make_benchmark(ctx.lib(), label);
  std::ifstream in(it->second);
  if (!in)
    throw std::runtime_error("cannot open '" + it->second + "'");
  netlist::BenchReadOptions bench_opt;
  bench_opt.po_load_ff = opt.po_load_ff;
  bench_opt.name = label;
  return netlist::read_bench(in, ctx.lib(), bench_opt);
}

int run(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  opt.spec.ensure_valid();

  // The backends the grid runs under; several = the whole sweep once per
  // backend per repeat, so closed-form and table points sit side by side
  // in the report (and exercise the cache's backend keying: a backend's
  // first run never hits entries another backend stored).
  const std::vector<std::string> models =
      opt.delay_models.empty()
          ? std::vector<std::string>{opt.spec.base.delay_model}
          : opt.delay_models;

  api::OptContext ctx;
  service::SweepService sweeps(ctx, opt.use_cache);

  if (!opt.trace_path.empty()) obs::TraceRecorder::global().start();

  const service::SerializeOptions ser{.measured = opt.record_runtimes};
  const service::SweepService::RecordSink sink =
      opt.jsonl ? service::SweepService::RecordSink(
                      [ser](const service::SweepPoint& point) {
                        std::printf(
                            "%s\n",
                            service::to_json(point, ser).dump(0).c_str());
                        std::fflush(stdout);
                      })
                : service::SweepService::RecordSink();

  util::Json report = util::Json::object();
  report["tool"] = "pops_sweep";
  report["spec"] = service::to_json(opt.spec);
  report["runs"] = opt.repeat;
  {
    util::Json models_json = util::Json::array();
    for (const std::string& m : models) models_json.push_back(m);
    report["delay_models"] = std::move(models_json);
  }

  std::size_t unmet_points = 0;
  util::Json sweeps_json = util::Json::array();
  for (int r = 0; r < opt.repeat; ++r) {
    for (const std::string& model : models) {
      service::SweepSpec spec = opt.spec;
      spec.base.delay_model = model;
      const service::SweepReport sweep = sweeps.run(
          spec,
          [&](const std::string& label) {
            return load_circuit(opt, ctx, label);
          },
          sink);
      // Count distinct failing points, not failures x repeats: repeats
      // replay bit-identical results, so the first pass over each
      // backend already covers every point once.
      if (r == 0)
        for (const service::SweepPoint& point : sweep.points)
          if (!point.report.met) ++unmet_points;
      std::fprintf(stderr,
                   "run %d/%d [%s]: %zu points, %.0f ms, cache %zu hits / "
                   "%zu misses\n",
                   r + 1, opt.repeat, model.c_str(), sweep.points.size(),
                   sweep.wall_ms, sweep.cache_hits, sweep.cache_misses);
      util::Json entry = service::to_json(sweep, ser);
      entry["delay_model"] = model;
      sweeps_json.push_back(std::move(entry));
    }
  }
  report["sweeps"] = std::move(sweeps_json);

  if (!opt.trace_path.empty()) {
    // Stop after report serialization so serialize/point spans are in the
    // drain; the trace write itself is deliberately outside the trace.
    obs::TraceRecorder::global().stop();
    std::ofstream trace_out(opt.trace_path);
    if (!trace_out)
      throw std::runtime_error("cannot write '" + opt.trace_path + "'");
    trace_out << obs::TraceRecorder::global().chrome_json().dump(0) << "\n";
    std::fprintf(stderr, "trace written to %s\n", opt.trace_path.c_str());
  }

  if (service::ResultCache* cache = sweeps.cache()) {
    const service::ResultCache::Stats stats = cache->stats();
    util::Json cache_json = util::Json::object();
    cache_json["hits"] = stats.hits;
    cache_json["misses"] = stats.misses;
    cache_json["entries"] = stats.entries;
    report["cache"] = std::move(cache_json);
  }

  // A point that misses its constraint fails the run (exit 2, distinct
  // from usage/IO errors) unless --allow-unmet: CI scripts assert on the
  // exit code instead of parsing the report. "Missed" is the reports'
  // `met` flag, i.e. the one shared tolerance (core::kTcMetRelTol) the
  // protocol round loop also stops on — a point cannot iterate as
  // violating yet count as met here.
  int exit_code = 0;
  if (unmet_points > 0 && !opt.allow_unmet) {
    std::fprintf(stderr,
                 "pops_sweep: %zu sweep point(s) missed their constraint "
                 "(pass --allow-unmet to ignore)\n",
                 unmet_points);
    exit_code = 2;
  }

  const std::string text = report.dump(2) + "\n";
  if (opt.out_path.empty()) {
    if (opt.jsonl) {
      // stdout already carries the JSONL records; appending the pretty
      // report would make the stream neither valid JSONL nor one JSON
      // document.
      std::fprintf(stderr,
                   "note: final report suppressed in --jsonl mode; pass "
                   "--out FILE to keep it\n");
      return exit_code;
    }
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(opt.out_path);
    if (!out)
      throw std::runtime_error("cannot write '" + opt.out_path + "'");
    out << text;
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pops_sweep: %s\n", e.what());
    std::fprintf(stderr, "try 'pops_sweep --help'\n");
    return 1;
  }
}
