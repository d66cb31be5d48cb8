// pops_serve — the sweep daemon and its command-line client.
//
// Server mode binds a loopback/TCP port, accepts newline-delimited
// SweepSpec JSON requests (net/protocol.hpp), runs them concurrently on
// one optimization context, and streams per-point JSONL records back as
// they complete. With --cache-file the result cache survives
// restarts as an append-only journal (service/cache_journal.hpp):
// replayed at start, appended per store, compacted on checkpoint and
// shutdown — a warm restart serves repeated specs without recomputing
// anything. As a fleet member behind pops_fabric, --max-connections
// bounds the damage a misbehaving client can do to a shared worker.
//
//   pops_serve --port 7425 --cache-file cache.jnl --cache-capacity 4096
//   pops_serve --port 0               # ephemeral; the port is printed
//
// Client mode submits a spec (from --spec JSON, or built from the same
// axis flags pops_sweep takes) and tails the stream; .bench files given
// as positionals or named in the spec (cli::spec_circuit) are shipped
// inline, '@name' resolves server-side as a built-in. Point records go
// to stdout verbatim (valid JSONL, diffable against pops_sweep --jsonl);
// the summary goes to stderr.
//
//   pops_serve client --port 7425 --tc 0.8,0.9 @c432 my_design.bench
//   pops_serve client --port 7425 --spec sweep.json --out report.json
//   pops_serve client --port 7425 --ping | --stats | --save | --shutdown
//
// Exit codes (client): 0 success, 1 protocol/usage error, 2 at least one
// sweep point missed its constraint (suppress with --allow-unmet).

#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "pops/net/client.hpp"
#include "pops/net/server.hpp"
#include "pops/obs/trace.hpp"
#include "pops/service/serialize.hpp"

namespace {

using namespace pops;
using cli::parse_double;
using cli::parse_long;
using cli::read_file;
using cli::split_list;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: pops_serve [options]                 start the daemon\n"
      "       pops_serve client [options] [circuits...]\n"
      "\n"
      "Server options:\n"
      "  --host ADDR          bind address (default 127.0.0.1)\n"
      "  --port N             TCP port; 0 = kernel-assigned, printed on "
      "stdout (default 0)\n"
      "  --threads N          worker threads per sweep; 0 = hardware "
      "(default 0)\n"
      "  --cache-file FILE    persist the result cache here as an "
      "append-only\n"
      "                       journal (replayed at start, compacted on "
      "shutdown)\n"
      "  --cache-capacity N   LRU bound on cached entries; 0 = unbounded "
      "(default 0)\n"
      "  --checkpoint-every N offer journal compaction every N sweeps; 0 "
      "= only on\n"
      "                       save/shutdown (default 1)\n"
      "  --max-connections N  serve at most N concurrent connections; "
      "extras get\n"
      "                       one error event and are closed (default 0 = "
      "no cap)\n"
      "  --trace-out FILE     record a Chrome trace-event JSON of the "
      "daemon's\n"
      "                       lifetime to FILE at shutdown\n"
      "\n"
      "Client options:\n"
      "  --host ADDR --port N daemon address (port is required)\n"
      "  --spec FILE          submit this SweepSpec JSON (.bench paths "
      "in it ship inline)\n"
      "  --tc / --margins / --policies / --temperature / --vt-policies /\n"
      "  --power-model / --pipeline / --threads\n"
      "                       build the spec from flags (pops_sweep "
      "syntax)\n"
      "  --po-load FF         PO load for shipped .bench files (default "
      "12.0)\n"
      "  --out FILE           also write a JSON report of the run\n"
      "  --no-runtimes        ask the server to drop the run-dependent "
      "'measured'\n"
      "                       fields (byte-identical records, run to "
      "run)\n"
      "  --allow-unmet        exit 0 even when points miss their "
      "constraint\n"
      "  --ping|--stats|--metrics|--save|--shutdown\n"
      "                       control ops instead of a sweep (--metrics "
      "dumps the\n"
      "                       daemon's counters/histograms snapshot)\n"
      "  -h, --help           this text\n");
}

// ----- server mode ------------------------------------------------------------

int run_server(int argc, char** argv) {
  net::SweepServerOptions opt;
  std::string trace_path;
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
    } else if (arg == "--host") {
      opt.host = value(i, "--host");
    } else if (arg == "--port") {
      const long p = parse_long(value(i, "--port"), "--port");
      if (p < 0 || p > 65535)
        throw std::invalid_argument("--port must be in [0, 65535]");
      opt.port = static_cast<std::uint16_t>(p);
    } else if (arg == "--threads") {
      const long n = parse_long(value(i, "--threads"), "--threads");
      if (n < 0) throw std::invalid_argument("--threads must be >= 0");
      opt.n_threads = static_cast<std::size_t>(n);
    } else if (arg == "--cache-file") {
      opt.cache_file = value(i, "--cache-file");
    } else if (arg == "--cache-capacity") {
      const long n =
          parse_long(value(i, "--cache-capacity"), "--cache-capacity");
      if (n < 0) throw std::invalid_argument("--cache-capacity must be >= 0");
      opt.cache_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--checkpoint-every") {
      const long n =
          parse_long(value(i, "--checkpoint-every"), "--checkpoint-every");
      if (n < 0) throw std::invalid_argument("--checkpoint-every must be >= 0");
      opt.checkpoint_every = static_cast<std::size_t>(n);
    } else if (arg == "--max-connections") {
      const long n =
          parse_long(value(i, "--max-connections"), "--max-connections");
      if (n < 0) throw std::invalid_argument("--max-connections must be >= 0");
      opt.max_connections = static_cast<std::size_t>(n);
    } else if (arg == "--trace-out") {
      trace_path = value(i, "--trace-out");
    } else {
      throw std::invalid_argument("unknown server option '" + arg + "'");
    }
  }

  net::SweepServer server(opt);
  if (!trace_path.empty()) obs::TraceRecorder::global().start();
  const service::CacheLoadReport loaded = server.start();
  if (!opt.cache_file.empty()) {
    std::fprintf(stderr,
                 "pops_serve: cache '%s': %zu entries, %zu initial delays "
                 "loaded\n",
                 opt.cache_file.c_str(), loaded.entries_loaded,
                 loaded.initial_delays_loaded);
    for (const std::string& p : loaded.problems)
      std::fprintf(stderr, "pops_serve: cache: %s\n", p.c_str());
  }
  // The port line is the startup contract: scripts parse it to find an
  // ephemeral port. stdout, flushed, exactly one line.
  std::printf("pops_serve: listening on %s:%u\n", opt.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  // Run until a client's "shutdown" op or a signal; either way drain and
  // flush the cache instead of dropping the delta since the last
  // checkpoint.
  while (!server.wait_for_ms(200) && g_signal == 0) {
  }
  const service::ResultCache::Stats stats =
      server.cache() ? server.cache()->stats() : service::ResultCache::Stats{};
  server.stop();
  if (!trace_path.empty()) {
    obs::TraceRecorder::global().stop();
    std::ofstream trace_out(trace_path);
    if (!trace_out)
      throw std::runtime_error("cannot write '" + trace_path + "'");
    trace_out << obs::TraceRecorder::global().chrome_json().dump(0) << "\n";
    std::fprintf(stderr, "pops_serve: trace written to %s\n",
                 trace_path.c_str());
  }
  std::fprintf(stderr,
               "pops_serve: shut down (%zu sweeps, %zu points, cache %zu "
               "hits / %zu misses / %zu entries)\n",
               server.stats().sweeps, server.stats().points, stats.hits,
               stats.misses, stats.entries);
  return 0;
}

// ----- client mode ------------------------------------------------------------

struct ClientOptions {
  std::string host = "127.0.0.1";
  long port = -1;
  std::string spec_path;
  std::string out_path;
  std::string control;  // ping | stats | metrics | save | shutdown
  service::SweepSpec spec;
  std::map<std::string, std::string> bench;
  double po_load_ff = 12.0;
  bool allow_unmet = false;
  bool record_runtimes = true;
  bool have_axis_flags = false;
};

int run_client(int argc, char** argv) {
  ClientOptions opt;
  opt.spec.tc_ratios = {0.8};
  std::vector<std::string> policy_names;

  auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(flag) + " needs a value");
    return argv[++i];
  };

  for (int i = 2; i < argc; ++i) {  // argv[1] == "client"
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--host") {
      opt.host = value(i, "--host");
    } else if (arg == "--port") {
      opt.port = parse_long(value(i, "--port"), "--port");
    } else if (arg == "--spec") {
      opt.spec_path = value(i, "--spec");
    } else if (arg == "--out") {
      opt.out_path = value(i, "--out");
    } else if (arg == "--tc") {
      opt.spec.tc_ratios.clear();
      for (const std::string& s : split_list(value(i, "--tc")))
        opt.spec.tc_ratios.push_back(parse_double(s, "--tc"));
      opt.have_axis_flags = true;
    } else if (arg == "--margins") {
      opt.spec.shield_margins.clear();
      for (const std::string& s : split_list(value(i, "--margins")))
        opt.spec.shield_margins.push_back(parse_double(s, "--margins"));
      opt.have_axis_flags = true;
    } else if (arg == "--policies") {
      policy_names = split_list(value(i, "--policies"));
      opt.have_axis_flags = true;
    } else if (arg == "--temperature") {
      opt.spec.temperatures.clear();
      for (const std::string& s : split_list(value(i, "--temperature")))
        opt.spec.temperatures.push_back(parse_double(s, "--temperature"));
      opt.have_axis_flags = true;
    } else if (arg == "--vt-policies") {
      opt.spec.vt_policies = split_list(value(i, "--vt-policies"));
      opt.have_axis_flags = true;
    } else if (arg == "--power-model") {
      opt.spec.base.power_model = value(i, "--power-model");
      opt.have_axis_flags = true;
    } else if (arg == "--pipeline") {
      opt.spec.pipeline = split_list(value(i, "--pipeline"));
      opt.have_axis_flags = true;
    } else if (arg == "--threads") {
      const long n = parse_long(value(i, "--threads"), "--threads");
      if (n < 0) throw std::invalid_argument("--threads must be >= 0");
      opt.spec.n_threads = static_cast<std::size_t>(n);
    } else if (arg == "--po-load") {
      opt.po_load_ff = parse_double(value(i, "--po-load"), "--po-load");
    } else if (arg == "--allow-unmet") {
      opt.allow_unmet = true;
    } else if (arg == "--no-runtimes") {
      opt.record_runtimes = false;
    } else if (arg == "--ping" || arg == "--stats" || arg == "--metrics" ||
               arg == "--save" || arg == "--shutdown") {
      opt.control = arg.substr(2);
    } else if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown client option '" + arg + "'");
    } else {
      cli::ship_circuit(cli::positional_circuit(arg), opt.spec.circuits,
                        opt.bench);
    }
  }
  if (opt.port < 0 || opt.port > 65535)
    throw std::invalid_argument("client mode needs --port N (1..65535)");

  net::SweepClient client(opt.host, static_cast<std::uint16_t>(opt.port));

  if (!opt.control.empty()) {
    util::Json reply;
    if (opt.control == "ping") reply = client.ping();
    else if (opt.control == "stats") reply = client.server_stats();
    else if (opt.control == "metrics") reply = client.metrics();
    else if (opt.control == "save") reply = client.save();
    else reply = client.shutdown_server();
    std::printf("%s\n", reply.dump(0).c_str());
    return 0;
  }

  if (!opt.spec_path.empty()) {
    if (opt.have_axis_flags)
      throw std::invalid_argument(
          "--spec replaces the axis flags; give one or the other");
    service::SweepSpec file_spec = service::sweep_spec_from_json(
        util::Json::parse(read_file(opt.spec_path)));
    // The spec's own circuits resolve like pops_sweep's; circuits given as
    // positionals (shipped .bench files / @builtins) merge after them.
    const std::vector<std::string> named = std::move(file_spec.circuits);
    file_spec.circuits.clear();
    for (const std::string& c : named)
      cli::ship_circuit(cli::spec_circuit(c), file_spec.circuits, opt.bench);
    for (std::string& c : opt.spec.circuits)
      file_spec.circuits.push_back(std::move(c));
    file_spec.n_threads =
        opt.spec.n_threads ? opt.spec.n_threads : file_spec.n_threads;
    opt.spec = std::move(file_spec);
  } else {
    if (!policy_names.empty()) {
      opt.spec.policies.clear();
      for (const std::string& name : policy_names)
        opt.spec.policies.push_back(service::buffer_policy(name));
    }
    if (opt.spec.circuits.empty())
      throw std::invalid_argument(
          "no circuits given (.bench paths, @builtin names, or --spec)");
  }

  util::Json points = util::Json::array();
  const bool collect = !opt.out_path.empty();
  const net::SweepClient::PointSink sink =
      [&](const util::Json& point, const std::string& raw) {
        std::printf("%s\n", raw.c_str());
        std::fflush(stdout);
        if (collect) points.push_back(point);
      };
  const net::SweepSummary summary = client.submit(
      opt.spec, sink, opt.bench, opt.po_load_ff, opt.record_runtimes);

  std::fprintf(stderr,
               "pops_serve client: %zu points (%zu unmet), cache %zu hits / "
               "%zu misses, %.0f ms\n",
               summary.points, summary.unmet, summary.cache_hits,
               summary.cache_misses, summary.wall_ms);

  if (collect) {
    util::Json report = util::Json::object();
    report["tool"] = "pops_serve client";
    report["spec"] = service::to_json(opt.spec);
    report["points"] = std::move(points);
    util::Json cache = util::Json::object();
    cache["hits"] = summary.cache_hits;
    cache["misses"] = summary.cache_misses;
    cache["entries"] = summary.cache_entries;
    report["cache"] = std::move(cache);
    report["unmet"] = summary.unmet;
    report["wall_ms"] = summary.wall_ms;
    std::ofstream out(opt.out_path);
    if (!out) throw std::runtime_error("cannot write '" + opt.out_path + "'");
    out << report.dump(2) << "\n";
  }

  if (summary.unmet > 0 && !opt.allow_unmet) {
    std::fprintf(stderr,
                 "pops_serve client: %zu point(s) missed their constraint "
                 "(pass --allow-unmet to ignore)\n",
                 summary.unmet);
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "client")
      return run_client(argc, argv);
    return run_server(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pops_serve: %s\n", e.what());
    std::fprintf(stderr, "try 'pops_serve --help'\n");
    return 1;
  }
}
