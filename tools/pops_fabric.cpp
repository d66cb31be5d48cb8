// pops_fabric — coordinator CLI of the distributed sweep fabric.
//
// Takes the same sweep description pops_sweep / pops_serve client take,
// shards its point grid across a fleet of pops_serve worker daemons by
// consistent hash of each point's content-pure key, and merges the
// per-worker streams back into the deterministic job order: stdout is a
// JSONL stream BYTE-IDENTICAL to a single daemon (or pops_sweep --jsonl)
// run of the same spec (use --no-runtimes for run-to-run byte equality).
// Workers keep persistent journaled caches, so repeated fleet runs are
// replays; a worker that dies mid-sweep is retried and its points
// re-sharded onto the survivors (see fabric/coordinator.hpp).
//
//   pops_fabric --workers 127.0.0.1:7425,127.0.0.1:7426 --tc 0.8,0.9 @c432
//   pops_fabric --workers HOSTS --spec sweep.json --trace-out fleet.trace
//
// Exit codes: 0 success, 1 protocol/usage error, 2 at least one point
// missed its constraint (suppress with --allow-unmet).

#include <climits>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "pops/fabric/coordinator.hpp"
#include "pops/obs/trace.hpp"
#include "pops/service/serialize.hpp"

namespace {

using namespace pops;
using cli::parse_double;
using cli::parse_long;
using cli::read_file;
using cli::split_list;

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: pops_fabric --workers HOST:PORT[,HOST:PORT...] [options] "
      "[circuits...]\n"
      "\n"
      "Circuits: .bench file paths (shipped to workers inline) or @name "
      "built-ins.\n"
      "\n"
      "Options:\n"
      "  --workers LIST       comma-separated worker daemon addresses "
      "(required)\n"
      "  --spec FILE          submit this SweepSpec JSON (.bench paths "
      "in it ship inline)\n"
      "  --tc / --margins / --policies / --temperature / --vt-policies /\n"
      "  --power-model / --pipeline / --threads\n"
      "                       build the spec from flags (pops_sweep "
      "syntax)\n"
      "  --po-load FF         PO load for shipped .bench files (default "
      "12.0)\n"
      "  --no-runtimes        drop the run-dependent 'measured' fields "
      "(byte-\n"
      "                       identical merged stream, run to run)\n"
      "  --connect-timeout MS worker connect bound (default 5000)\n"
      "  --read-timeout MS    per-reply read bound; 0 = unbounded "
      "(default 0)\n"
      "  --max-attempts N     dispatch attempts per point before a worker "
      "is\n"
      "                       declared dead (default 3)\n"
      "  --retry-backoff MS   sleep between attempts (default 100)\n"
      "  --trace-out FILE     record coordinator + worker spans; write "
      "the merged\n"
      "                       Chrome trace-event JSON here\n"
      "  --metrics-out FILE   write the aggregated fleet metrics snapshot "
      "here\n"
      "  --allow-unmet        exit 0 even when points miss their "
      "constraint\n"
      "  -h, --help           this text\n");
}

fabric::WorkerAddress parse_worker(const std::string& token) {
  const std::size_t colon = token.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= token.size())
    throw std::invalid_argument("--workers entry '" + token +
                                "' is not HOST:PORT");
  fabric::WorkerAddress w;
  w.host = token.substr(0, colon);
  const long port = parse_long(token.substr(colon + 1), "--workers");
  if (port < 1 || port > 65535)
    throw std::invalid_argument("--workers entry '" + token +
                                "': port must be in [1, 65535]");
  w.port = static_cast<std::uint16_t>(port);
  return w;
}

/// A millisecond flag: non-negative and within poll(2)'s int range.
long parse_ms(const std::string& s, const char* flag) {
  const long ms = parse_long(s, flag);
  if (ms < 0 || ms > INT_MAX)
    throw std::invalid_argument(std::string(flag) + " must be in [0, " +
                                std::to_string(INT_MAX) + "]");
  return ms;
}

int run(int argc, char** argv) {
  std::vector<fabric::WorkerAddress> workers;
  fabric::FabricOptions fopt;
  service::SweepSpec spec;
  spec.tc_ratios = {0.8};
  std::vector<std::string> policy_names;
  std::map<std::string, std::string> bench;
  std::string spec_path;
  std::string trace_path;
  std::string metrics_path;
  bool allow_unmet = false;
  bool have_axis_flags = false;

  auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(flag) + " needs a value");
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--workers") {
      for (const std::string& token : split_list(value(i, "--workers")))
        workers.push_back(parse_worker(token));
    } else if (arg == "--spec") {
      spec_path = value(i, "--spec");
    } else if (arg == "--tc") {
      spec.tc_ratios.clear();
      for (const std::string& s : split_list(value(i, "--tc")))
        spec.tc_ratios.push_back(parse_double(s, "--tc"));
      have_axis_flags = true;
    } else if (arg == "--margins") {
      spec.shield_margins.clear();
      for (const std::string& s : split_list(value(i, "--margins")))
        spec.shield_margins.push_back(parse_double(s, "--margins"));
      have_axis_flags = true;
    } else if (arg == "--policies") {
      policy_names = split_list(value(i, "--policies"));
      have_axis_flags = true;
    } else if (arg == "--temperature") {
      spec.temperatures.clear();
      for (const std::string& s : split_list(value(i, "--temperature")))
        spec.temperatures.push_back(parse_double(s, "--temperature"));
      have_axis_flags = true;
    } else if (arg == "--vt-policies") {
      spec.vt_policies = split_list(value(i, "--vt-policies"));
      have_axis_flags = true;
    } else if (arg == "--power-model") {
      spec.base.power_model = value(i, "--power-model");
      have_axis_flags = true;
    } else if (arg == "--pipeline") {
      spec.pipeline = split_list(value(i, "--pipeline"));
      have_axis_flags = true;
    } else if (arg == "--threads") {
      const long n = parse_long(value(i, "--threads"), "--threads");
      if (n < 0) throw std::invalid_argument("--threads must be >= 0");
      spec.n_threads = static_cast<std::size_t>(n);
    } else if (arg == "--po-load") {
      fopt.po_load_ff = parse_double(value(i, "--po-load"), "--po-load");
    } else if (arg == "--no-runtimes") {
      fopt.record_runtimes = false;
    } else if (arg == "--connect-timeout") {
      fopt.connect_timeout_ms =
          parse_ms(value(i, "--connect-timeout"), "--connect-timeout");
    } else if (arg == "--read-timeout") {
      fopt.read_timeout_ms =
          parse_ms(value(i, "--read-timeout"), "--read-timeout");
    } else if (arg == "--max-attempts") {
      const long n = parse_long(value(i, "--max-attempts"), "--max-attempts");
      if (n < 1) throw std::invalid_argument("--max-attempts must be >= 1");
      fopt.max_attempts = static_cast<int>(n);
    } else if (arg == "--retry-backoff") {
      fopt.retry_backoff_ms =
          parse_ms(value(i, "--retry-backoff"), "--retry-backoff");
    } else if (arg == "--trace-out") {
      trace_path = value(i, "--trace-out");
    } else if (arg == "--metrics-out") {
      metrics_path = value(i, "--metrics-out");
    } else if (arg == "--allow-unmet") {
      allow_unmet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown option '" + arg + "'");
    } else {
      cli::ship_circuit(cli::positional_circuit(arg), spec.circuits, bench);
    }
  }
  if (workers.empty())
    throw std::invalid_argument("--workers is required (HOST:PORT list)");

  if (!spec_path.empty()) {
    if (have_axis_flags)
      throw std::invalid_argument(
          "--spec replaces the axis flags; give one or the other");
    service::SweepSpec file_spec =
        service::sweep_spec_from_json(util::Json::parse(read_file(spec_path)));
    // The spec's own circuits resolve like pops_sweep's; positionals
    // merge after them.
    const std::vector<std::string> named = std::move(file_spec.circuits);
    file_spec.circuits.clear();
    for (const std::string& c : named)
      cli::ship_circuit(cli::spec_circuit(c), file_spec.circuits, bench);
    for (std::string& c : spec.circuits)
      file_spec.circuits.push_back(std::move(c));
    file_spec.n_threads = spec.n_threads ? spec.n_threads : file_spec.n_threads;
    spec = std::move(file_spec);
  } else {
    if (!policy_names.empty()) {
      spec.policies.clear();
      for (const std::string& name : policy_names)
        spec.policies.push_back(service::buffer_policy(name));
    }
    if (spec.circuits.empty())
      throw std::invalid_argument(
          "no circuits given (.bench paths, @builtin names, or --spec)");
  }

  fabric::FabricCoordinator coordinator(std::move(workers), fopt);
  if (!trace_path.empty()) {
    obs::TraceRecorder::global().start();
    coordinator.start_worker_traces();
  }

  const fabric::FabricCoordinator::RecordSink sink =
      [](const std::string& raw) {
        std::fwrite(raw.data(), 1, raw.size(), stdout);
        std::fputc('\n', stdout);
      };
  const fabric::FabricReport report = coordinator.run(spec, bench, sink);
  std::fflush(stdout);

  if (!trace_path.empty()) {
    obs::TraceRecorder::global().stop();
    std::ofstream out(trace_path);
    if (!out) throw std::runtime_error("cannot write '" + trace_path + "'");
    out << coordinator.merged_trace().dump(0) << "\n";
    std::fprintf(stderr, "pops_fabric: merged trace written to %s\n",
                 trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) throw std::runtime_error("cannot write '" + metrics_path + "'");
    out << coordinator.fleet_metrics().dump(2) << "\n";
    std::fprintf(stderr, "pops_fabric: fleet metrics written to %s\n",
                 metrics_path.c_str());
  }

  std::fprintf(stderr, "pops_fabric: %zu points (%zu unmet), %zu failovers\n",
               report.points, report.unmet, report.failovers);
  for (const auto& [label, n] : report.points_per_worker)
    std::fprintf(stderr, "pops_fabric:   %s: %zu points\n", label.c_str(), n);
  for (const std::string& label : report.dead_workers)
    std::fprintf(stderr, "pops_fabric:   %s: DEAD (points re-sharded)\n",
                 label.c_str());

  if (report.unmet > 0 && !allow_unmet) {
    std::fprintf(stderr,
                 "pops_fabric: %zu point(s) missed their constraint (pass "
                 "--allow-unmet to ignore)\n",
                 report.unmet);
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pops_fabric: %s\n", e.what());
    std::fprintf(stderr, "try 'pops_fabric --help'\n");
    return 1;
  }
}
