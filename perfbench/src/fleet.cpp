// fleet-replay: two pops_serve workers (one optimizer thread each, journaled
// caches) behind a FabricCoordinator in this process; one client in a
// closed loop of single-point requests.
//
// Set-up (untimed) fills the workers with the iscas-grid point set of the
// seed while the same set is computed in-process as the byte reference.
// Then the workers are restarted on their journals several times; the
// median restart-until-both-answer time is setup_s. The timed stream
// replays the set in seeded order with ~5% fresh points (new Tc on
// c432/c499/c880), so cache reads and journal appends share the layer.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "pops/fabric/coordinator.hpp"
#include "pops/fabric/shard.hpp"
#include "pops/net/client.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/service/serialize.hpp"
#include "pops/service/sweep.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace pops;

constexpr double kRequestsPerSecond = 180.0;  // sizes the stream, see inprocess.cpp
constexpr std::size_t kMinRequests = 200;
constexpr double kFreshShare = 0.05;
constexpr int kRestarts = 5;
const char* const kFreshCircuits[] = {"c432", "c499", "c880"};

/// One pops_serve child process. The destructor stops and reaps it.
class Worker {
 public:
  Worker(const std::string& bin, std::uint16_t port, const std::string& journal,
         const std::string& log) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const std::string port_s = std::to_string(port);
    std::vector<std::string> argv_s{bin,         "--port",       port_s,
                                    "--threads", "1",            "--cache-file",
                                    journal};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + bin);
    }
  }
  ~Worker() { stop(); }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Block until the worker prints its listening line (journal replayed,
  /// port bound); returns the port.
  std::uint16_t await_listening() {
    std::string line;
    char c = 0;
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 60000) <= 0 || read(out_fd_, &c, 1) != 1)
        throw std::runtime_error("worker did not start");
      line += c;
    }
    const std::size_t colon = line.rfind(':');
    if (line.find("listening on") == std::string::npos || colon == std::string::npos)
      throw std::runtime_error("unexpected worker output: " + line);
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
    return port_;
  }

  /// VmHWM of the process, MB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        in >> kb;
        return kb / 1024.0;
      }
      in.ignore(1 << 12, '\n');
    }
    return 0.0;
  }

  /// The protocol's shutdown op (drains and compacts the journal), then
  /// reap; SIGTERM if the op fails.
  void stop() noexcept {
    if (pid_ > 0) {
      try {
        net::SweepClient c("127.0.0.1", port_, {5000, 30000});
        c.shutdown_server();
      } catch (const std::exception&) {
        kill(pid_, SIGTERM);
      }
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

std::string exact(double v) { return util::Json::number_to_string(v); }
std::string key_of(const std::string& circuit, double ratio) {
  return circuit + "@" + exact(ratio);
}

struct Request {
  std::string circuit;
  double ratio = 0.0;
  bool fresh = false;
};

service::SweepSpec point_spec(const std::string& circuit, double ratio) {
  service::SweepSpec s;
  s.circuits = {circuit};
  s.tc_ratios = {ratio};
  return s;
}

/// Workers started on fixed ports (the ring hashes host:port, so a
/// restart must keep them for the journals to stay on their shard).
class Fleet {
 public:
  Fleet(std::string bin, std::string dir) : bin_(std::move(bin)), dir_(std::move(dir)) {}

  /// Start both workers (replaying their journals) and wait until each
  /// answers a ping.
  void start() {
    for (std::size_t w = 0; w < 2; ++w)
      workers_[w] = std::make_unique<Worker>(
          bin_, ports_[w], dir_ + "/w" + std::to_string(w) + ".jnl",
          dir_ + "/w" + std::to_string(w) + ".log");
    for (std::size_t w = 0; w < 2; ++w) {
      ports_[w] = workers_[w]->await_listening();
      net::SweepClient("127.0.0.1", ports_[w]).ping();
    }
  }
  void stop() {
    for (auto& w : workers_) w.reset();
  }
  std::vector<fabric::WorkerAddress> addresses() const {
    return {{"127.0.0.1", ports_[0]}, {"127.0.0.1", ports_[1]}};
  }
  double peak_rss_mb() const {
    return workers_[0]->peak_rss_mb() + workers_[1]->peak_rss_mb();
  }

 private:
  std::string bin_;
  std::string dir_;
  std::uint16_t ports_[2] = {0, 0};
  std::unique_ptr<Worker> workers_[2];
};

}  // namespace

RunResult run_fleet(const Args& args) {
  RunResult out;
  Digest digest;
  Rng grid_rng(stream_seed(args.seed, 1));
  service::SweepSpec grid;
  grid.circuits = iscas_circuits();
  grid.tc_ratios = grid_ratios(grid_rng);
  grid.n_threads = 2;

  // The request stream: seeded permutations of the grid set, with fresh
  // points mixed in.
  std::vector<Request> grid_points;
  for (const double r : grid.tc_ratios)
    for (const std::string& c : grid.circuits) grid_points.push_back({c, r, false});
  const std::size_t n_requests = std::max<std::size_t>(
      kMinRequests, static_cast<std::size_t>(std::lround(args.seconds * kRequestsPerSecond)));
  Rng rng(stream_seed(args.seed, 3));
  std::vector<Request> requests;
  std::vector<Request> order;
  while (requests.size() < n_requests) {
    if (order.empty()) {
      order = grid_points;
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    }
    if (rng.uniform() < kFreshShare) {
      requests.push_back({kFreshCircuits[rng.below(3)], 0.65 + 0.35 * rng.uniform(), true});
    } else {
      requests.push_back(order.back());
      order.pop_back();
    }
  }
  for (const Request& r : requests) digest.add(key_of(r.circuit, r.ratio));
  out.info["input_digest"] = digest.hex();
  out.info["points"] = requests.size();

  const std::string dir = args.work_dir + "/fleet-" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Tracer tracer(args.trace);

  // In-process references: the byte-exact records every fleet answer is
  // compared with.
  api::OptContext ref_ctx;
  std::map<std::string, service::SweepPoint> reference;
  std::map<std::string, std::string> reference_bytes;
  const service::SweepService ref_svc(ref_ctx, /*use_cache=*/false);
  const auto builtin = [&ref_ctx](const std::string& name) {
    return netlist::make_benchmark(ref_ctx.lib(), name);
  };
  const auto add_reference = [&](const service::SweepPoint& p) {
    const std::string key = key_of(p.circuit, p.tc_ratio);
    reference_bytes[key] = service::to_json(p, {.measured = false}).dump(0);
    reference.emplace(key, p);
  };

  Fleet fleet(args.serve_bin, dir);
  std::vector<double> setup_ms;
  std::vector<double> point_ms;
  std::vector<std::string> answers(requests.size());
  double peak_rss_mb = 0.0;
  util::Json metrics;
  std::size_t failovers = 0;
  double min_coverage = 1.0;
  try {
    fleet.start();
    fabric::FabricOptions fopt;
    fopt.record_runtimes = false;
    {
      fabric::FabricCoordinator fill(fleet.addresses(), fopt);
      std::string ref_error;
      std::thread ref([&] {
        try {
          ref_svc.run(grid, builtin, add_reference);
        } catch (const std::exception& e) {
          ref_error = e.what();
        }
      });
      std::vector<std::string> filled;
      try {
        fill.run(grid, {}, [&](const std::string& raw) { filled.push_back(raw); });
      } catch (...) {
        ref.join();
        throw;
      }
      ref.join();
      if (!ref_error.empty()) throw std::runtime_error("reference run: " + ref_error);
      if (filled.size() != grid_points.size())
        throw std::runtime_error("fill streamed " + std::to_string(filled.size()) +
                                 " records for " + std::to_string(grid_points.size()) +
                                 " points");
      for (std::size_t i = 0; i < filled.size(); ++i) {
        const Request& p = grid_points[i];
        if (filled[i] != reference_bytes.at(key_of(p.circuit, p.ratio)))
          out.fail("fill record of " + key_of(p.circuit, p.ratio) +
                   " differs from the in-process record");
      }
    }
    for (int r = 0; r < kRestarts; ++r) {
      fleet.stop();
      const Clock::time_point t0 = Clock::now();
      fleet.start();
      setup_ms.push_back(ms_since(t0));
      tracer.record("service.journal_replay", t0, Clock::now());
    }

    fabric::FabricCoordinator coord(fleet.addresses(), fopt);
    // Traced runs also submit each point straight to its owning worker,
    // so the wire round trip separates from the coordinator's share.
    std::vector<std::unique_ptr<net::SweepClient>> direct;
    std::vector<std::size_t> owner(requests.size(), 0);
    if (args.trace) {
      std::vector<std::string> labels;
      for (const fabric::WorkerAddress& a : fleet.addresses()) {
        labels.push_back(a.label());
        direct.push_back(std::make_unique<net::SweepClient>(a.host, a.port));
      }
      const fabric::ShardKeyer keyer(ref_ctx, grid, builtin);
      const fabric::HashRing ring(labels);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        fabric::PointSpec pt;
        pt.circuit = requests[i].circuit;
        pt.tc_ratio = requests[i].ratio;
        owner[i] = ring.owner(keyer.key_hash(pt));
      }
    }

    for (std::size_t i = 0; i < requests.size(); ++i) {
      const service::SweepSpec spec = point_spec(requests[i].circuit, requests[i].ratio);
      ++out.attempted;
      const double covered = tracer.covered_ms();
      const Clock::time_point t0 = Clock::now();
      try {
        const fabric::FabricReport rep =
            coord.run(spec, {}, [&](const std::string& raw) { answers[i] = raw; });
        const Clock::time_point t1 = Clock::now();
        point_ms.push_back(ms_between(t0, t1));
        failovers += rep.failovers;
        if (args.trace) {
          tracer.record("fabric.run", t0, t1);
          const Clock::time_point d0 = Clock::now();
          std::string raw;
          direct[owner[i]]->submit(
              spec, [&raw](const util::Json&, const std::string& line) { raw = line; },
              {}, 12.0, /*record_runtimes=*/false);
          tracer.record("net.roundtrip", d0, Clock::now());
          if (raw != answers[i])
            out.fail(key_of(requests[i].circuit, requests[i].ratio) +
                     ": direct worker answer differs from the fabric's");
          min_coverage =
              std::min(min_coverage, (tracer.covered_ms() - covered) / ms_since(t0));
        }
      } catch (const std::exception& e) {
        out.fail(key_of(requests[i].circuit, requests[i].ratio) + ": " + e.what());
      }
    }
    peak_rss_mb = fleet.peak_rss_mb();
    metrics = coord.fleet_metrics();
    direct.clear();
    fleet.stop();
  } catch (const std::exception& e) {
    out.fail(std::string("fleet: ") + e.what());
    fleet.stop();
  }
  std::filesystem::remove_all(dir);

  // Output checks: fresh points get their in-process reference now.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (answers[i].empty() || reference_bytes.count(key_of(r.circuit, r.ratio))) continue;
    try {
      ref_svc.run(point_spec(r.circuit, r.ratio), builtin, add_reference);
    } catch (const std::exception& e) {
      out.fail(key_of(r.circuit, r.ratio) + ": in-process reference: " + e.what());
      answers[i].clear();
    }
  }
  std::size_t met = 0;
  double log_area = 0.0, power = 0.0, leakage = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string key = key_of(requests[i].circuit, requests[i].ratio);
    if (answers[i].empty()) continue;  // already counted as failed
    if (answers[i] != reference_bytes.at(key)) {
      out.fail(key + ": fleet record differs from the in-process record");
      continue;
    }
    const api::PipelineReport& r = reference.at(key).report;
    met += r.met ? 1 : 0;
    log_area += std::log(r.final_area_um / r.initial_area_um);
    power += r.power.total_uw;
    leakage += r.power.leakage_uw;
  }

  if (!args.trace) {
    report_latencies(out, point_ms, median(setup_ms) / 1000.0);
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    const double n = static_cast<double>(std::max<std::size_t>(requests.size(), 1));
    out.metric("met_frac", static_cast<double>(met) / n, "fraction");
    out.metric("area_ratio", std::exp(log_area / n), "ratio");
    out.metric("power_uw", power / n, "uW");
    out.metric("leakage_uw", leakage / n, "uW");
    return out;
  }

  // The serialization each answered request cost its worker, timed on the
  // in-process copy of the same point.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (answers[i].empty()) continue;
    const service::SweepPoint& p = reference.at(key_of(requests[i].circuit, requests[i].ratio));
    Tracer::Layer s(tracer, "service.serialize");
    (void)service::to_json(p, {.measured = false}).dump(0);
  }
  const auto agg = [&metrics](const std::string& name) {
    const util::Json* a = metrics.find("aggregate");
    const util::Json* c = a ? a->find("counters") : nullptr;
    const util::Json* v = c ? c->find(name) : nullptr;
    return v ? v->as_number() : 0.0;
  };
  report_layers(out, tracer);
  for (const char* name : {"timing.slack_full_calls", "timing.full_runs", "timing.updates"})
    out.metric(name, 0.0, "count");
  out.metric("timing.kpaths_cached_ratio", 0.0, "ratio");
  out.metric("api.protocol_rounds", 0.0, "count");
  out.metric("api.cells_high_vt", 0.0, "count");
  out.metric("power.evals", 0.0, "count");
  const double hits = agg("cache.hits"), misses = agg("cache.misses");
  out.metric("service.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
             "ratio");
  out.metric("service.cache_misses", misses, "count");
  out.metric("service.journal_appends", agg("cache.journal.appends"), "count");
  const double served = agg("net.requests");
  out.metric("net.bytes_out_per_point", served > 0 ? agg("net.bytes_out") / served : 0.0,
             "B");
  out.metric("fabric.failovers", static_cast<double>(failovers), "count");
  out.metric("trace.points", static_cast<double>(requests.size()), "count");
  out.metric("trace.coverage_min", min_coverage, "fraction");
  // The traced run's extra work per request: the direct submit and the
  // reference serialization.
  out.metric("trace.overhead_ms",
             (tracer.total_ms("net.roundtrip") + tracer.total_ms("service.serialize")) /
                 static_cast<double>(requests.size()),
             "ms");
  tracer.write(args.work_dir + "/trace-" + args.workload + ".json");
  return out;
}

}  // namespace perfbench
