// pops::fabric — the distributed sweep fabric. The load-bearing contract
// is byte fidelity: a coordinator fanning a spec across N workers must
// merge their streams into EXACTLY the bytes a single-daemon (or
// in-process) run of the same spec produces — including when a worker is
// dead on arrival or dies mid-sweep and its points fail over to the
// survivors. Plus the routing primitives (point expansion order,
// single-point sub-specs, consistent-hash ring) and the transport
// taxonomy (ConnectionError vs server error) and the server's connection
// cap.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/fabric/coordinator.hpp"
#include "pops/fabric/shard.hpp"
#include "pops/net/client.hpp"
#include "pops/net/server.hpp"
#include "pops/net/socket.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/service/serialize.hpp"
#include "pops/service/sweep.hpp"
#include "pops/util/hash.hpp"

namespace {

using namespace pops;
using fabric::FabricCoordinator;
using fabric::FabricOptions;
using fabric::FabricReport;
using fabric::HashRing;
using fabric::WorkerAddress;
using net::SweepServer;
using service::SweepSpec;

SweepSpec fleet_spec() {
  SweepSpec spec;
  spec.circuits = {"c17", "c432"};
  spec.tc_ratios = {0.85, 0.95};
  spec.shield_margins = {0.05, 0.1};
  spec.n_threads = 1;
  return spec;
}

std::vector<std::string> in_process_records(const SweepSpec& spec) {
  api::OptContext ctx;
  service::SweepService sweeps(ctx);
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

/// Points each ring member would own for `spec` — the test-side replica
/// of the coordinator's initial shard assignment (content-pure hashes:
/// any context with the default characterization predicts it).
std::vector<std::size_t> predicted_shard_counts(
    const SweepSpec& spec, const std::vector<std::string>& labels) {
  api::OptContext ctx;
  fabric::ShardKeyer keyer(ctx, spec, [&ctx](const std::string& name) {
    return netlist::make_benchmark(ctx.lib(), name);
  });
  HashRing ring(labels);
  std::vector<std::size_t> counts(labels.size(), 0);
  for (const fabric::PointSpec& pt : fabric::expand_points(spec))
    ++counts[ring.owner(keyer.key_hash(pt))];
  return counts;
}

/// Bind a loopback listener whose "host:port" label is predicted to own
/// at least one of `spec`'s points opposite `live_label` — a small grid
/// on a 2-member ring can legitimately shard entirely onto one member,
/// which would make a failover test vacuous. A handful of candidate
/// ports makes an empty shard astronomically unlikely.
net::TcpListener bind_point_owning_listener(const SweepSpec& spec,
                                            const std::string& live_label) {
  std::vector<net::TcpListener> rejected;
  for (int i = 0; i < 8; ++i) {
    net::TcpListener probe = net::TcpListener::bind("127.0.0.1", 0);
    const std::string label = "127.0.0.1:" + std::to_string(probe.port());
    if (predicted_shard_counts(spec, {live_label, label})[1] > 0) {
      for (net::TcpListener& r : rejected) r.close();
      return probe;
    }
    rejected.push_back(std::move(probe));  // hold: the next bind must differ
  }
  for (net::TcpListener& r : rejected) r.close();
  throw std::runtime_error("no candidate port owned any point");
}

FabricOptions fast_failover_options() {
  FabricOptions opt;
  opt.record_runtimes = false;
  opt.connect_timeout_ms = 1000;
  opt.max_attempts = 2;
  opt.retry_backoff_ms = 10;
  return opt;
}

TEST(HashRing, EveryMemberOwnsKeysAndRemapIsBounded) {
  const std::vector<std::string> three = {"w0:1", "w1:1", "w2:1"};
  HashRing ring3(three);
  std::vector<std::string> four = three;
  four.push_back("w3:1");
  HashRing ring4(four);

  constexpr std::size_t kKeys = 2000;
  std::vector<std::size_t> owned(4, 0);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    util::Fnv1a h;
    h.u64(i);
    const std::size_t before = ring3.owner(h.h);
    const std::size_t after = ring4.owner(h.h);
    ++owned[after];
    if (four[after] != three[before]) {
      // A key only ever moves TO the added member, never between
      // survivors — the consistent-hash guarantee failover relies on.
      EXPECT_EQ(after, 3u) << "key " << i << " moved between survivors";
      ++moved;
    }
  }
  for (std::size_t w = 0; w < 4; ++w)
    EXPECT_GT(owned[w], 0u) << "member " << w << " owns nothing";
  // ~1/4 of the key space moves to the new member; allow generous slack
  // for vnode placement variance, but far below a modulo-hash reshuffle
  // (which would move ~3/4).
  EXPECT_GT(moved, kKeys / 16);
  EXPECT_LT(moved, kKeys / 2);

  EXPECT_THROW(HashRing({"dup", "dup"}), std::invalid_argument);
  EXPECT_THROW(HashRing({""}), std::invalid_argument);
  EXPECT_THROW(HashRing({}).owner(7), std::logic_error);
}

TEST(Shard, ExpandPointsMatchesJobOrderAndSinglePointSpecsAreByteExact) {
  const SweepSpec spec = fleet_spec();
  const std::vector<fabric::PointSpec> points = fabric::expand_points(spec);
  ASSERT_EQ(points.size(), spec.n_jobs());

  // Job order: margins outer, ratios next, circuits innermost (one
  // policy here) — the order SweepService::run streams records.
  std::size_t i = 0;
  for (double margin : spec.shield_margins)
    for (double ratio : spec.tc_ratios)
      for (const std::string& circuit : spec.circuits) {
        EXPECT_EQ(points[i].index, i);
        EXPECT_EQ(points[i].circuit, circuit);
        EXPECT_EQ(points[i].tc_ratio, ratio);
        EXPECT_EQ(points[i].shield_margin, margin);
        ++i;
      }

  // Each single-point sub-spec, run in isolation, reproduces the exact
  // bytes of its record inside the full sweep — the property the whole
  // merge correctness rests on.
  const std::vector<std::string> full = in_process_records(spec);
  ASSERT_EQ(full.size(), points.size());
  for (const std::size_t idx : {std::size_t{0}, points.size() - 1}) {
    const SweepSpec sub = fabric::single_point_spec(spec, points[idx]);
    EXPECT_EQ(sub.n_jobs(), 1u);
    const std::vector<std::string> one = in_process_records(sub);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], full[idx]) << "point " << idx;
  }
}

TEST(Shard, KeyerRoutesByTheWorkersCacheKeys) {
  // The coordinator and the workers derive every group's (config,
  // pipeline) through service::job_config, so the routing hash is built
  // from exactly the cache keys a worker stores — including the multi-vt
  // pass an explicit pipeline gets appended.
  SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.9};
  spec.vt_policies = {"none", "multi-vt"};
  spec.pipeline = {"shield", "protocol"};
  spec.n_threads = 1;

  api::OptContext ctx;
  const auto load = [&ctx](const std::string& name) {
    return netlist::make_benchmark(ctx.lib(), name);
  };
  service::SweepService worker(ctx);
  worker.run(spec, load);
  std::set<std::uint64_t> stored;
  worker.cache()->for_each_entry([&](const api::ResultCacheKey& key,
                                     const netlist::Netlist&,
                                     const api::PipelineReport&) {
    util::Fnv1a h;
    h.u64(key.circuit_hash);
    h.u64(key.config_hash);
    h.f64(0.9);
    stored.insert(h.h);
  });

  const fabric::ShardKeyer keyer(ctx, spec, load);
  std::set<std::uint64_t> routed;
  for (const fabric::PointSpec& pt : fabric::expand_points(spec))
    routed.insert(keyer.key_hash(pt));
  EXPECT_EQ(routed.size(), 2u);
  EXPECT_EQ(routed, stored);
}

TEST(Fabric, MergedStreamIsByteIdenticalToInProcessRun) {
  const SweepSpec spec = fleet_spec();
  const std::vector<std::string> expected = in_process_records(spec);

  SweepServer w0, w1;
  w0.start();
  w1.start();
  FabricOptions opt;
  opt.record_runtimes = false;
  FabricCoordinator coordinator(
      {{"127.0.0.1", w0.port()}, {"127.0.0.1", w1.port()}}, opt);

  std::vector<std::string> merged;
  const FabricReport report = coordinator.run(
      spec, {}, [&merged](const std::string& raw) { merged.push_back(raw); });

  EXPECT_EQ(report.points, expected.size());
  EXPECT_EQ(report.failovers, 0u);
  EXPECT_TRUE(report.dead_workers.empty());
  std::size_t completed = 0;
  for (const auto& [label, n] : report.points_per_worker) completed += n;
  EXPECT_EQ(completed, expected.size());

  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(merged[i], expected[i]) << i;
  w0.stop();
  w1.stop();
}

TEST(Fabric, DeadOnArrivalWorkerFailsOverByteIdentically) {
  const SweepSpec spec = fleet_spec();
  const std::vector<std::string> expected = in_process_records(spec);

  SweepServer live;
  live.start();
  const WorkerAddress live_addr{"127.0.0.1", live.port()};
  // A port that was bound and released: connects are refused.
  net::TcpListener probe = bind_point_owning_listener(spec, live_addr.label());
  const WorkerAddress dead_addr{"127.0.0.1", probe.port()};
  probe.close();
  const std::vector<std::size_t> counts =
      predicted_shard_counts(spec, {live_addr.label(), dead_addr.label()});

  FabricCoordinator coordinator({live_addr, dead_addr},
                                fast_failover_options());
  std::vector<std::string> merged;
  const FabricReport report = coordinator.run(
      spec, {}, [&merged](const std::string& raw) { merged.push_back(raw); });

  // The dead worker's points re-shard onto the survivor and the merged
  // stream is still exactly the single-run bytes.
  ASSERT_EQ(report.dead_workers.size(), 1u);
  EXPECT_EQ(report.dead_workers[0], dead_addr.label());
  EXPECT_GE(report.failovers, counts[1]);
  EXPECT_EQ(report.points_per_worker.at(live_addr.label()), expected.size());
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(merged[i], expected[i]) << i;
  live.stop();
}

TEST(Fabric, WorkerDyingMidSweepFailsOverByteIdentically) {
  const SweepSpec spec = fleet_spec();
  const std::vector<std::string> expected = in_process_records(spec);
  const FabricOptions opt = fast_failover_options();

  SweepServer live;
  live.start();
  // A worker that accepts, then drops every connection without replying:
  // the dispatch is already in flight when the transport dies, so the
  // failure is a mid-sweep ConnectionError, not a refused connect.
  const WorkerAddress live_addr{"127.0.0.1", live.port()};
  net::TcpListener flaky = bind_point_owning_listener(spec, live_addr.label());
  const WorkerAddress flaky_addr{"127.0.0.1", flaky.port()};
  const std::vector<std::size_t> counts =
      predicted_shard_counts(spec, {live_addr.label(), flaky_addr.label()});

  // The coordinator reconnects per attempt and declares the worker dead
  // after max_attempts transport failures on one point — so the flaky
  // worker sees exactly max_attempts connections.
  std::thread dropper([&flaky, &opt] {
    // pops-lint: allow(raw-thread)
    for (int i = 0; i < opt.max_attempts; ++i) {
      net::TcpStream peer{flaky.accept()};
      std::string line;
      peer.read_line(line);  // let the dispatch land, then hang up
    }
  });

  FabricCoordinator coordinator({live_addr, flaky_addr}, opt);
  std::vector<std::string> merged;
  const FabricReport report = coordinator.run(
      spec, {}, [&merged](const std::string& raw) { merged.push_back(raw); });
  dropper.join();
  flaky.close();

  ASSERT_EQ(report.dead_workers.size(), 1u);
  EXPECT_EQ(report.dead_workers[0], flaky_addr.label());
  EXPECT_GE(report.failovers, counts[1]);
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(merged[i], expected[i]) << i;
  live.stop();
}

TEST(Fabric, AllWorkersDeadFailsTheRun) {
  std::uint16_t dead_port;
  {
    net::TcpListener probe = net::TcpListener::bind("127.0.0.1", 0);
    dead_port = probe.port();
    probe.close();
  }
  SweepSpec spec;
  spec.circuits = {"c17"};
  spec.tc_ratios = {0.9};
  FabricOptions opt = fast_failover_options();
  opt.connect_timeout_ms = 200;
  FabricCoordinator coordinator({{"127.0.0.1", dead_port}}, opt);
  EXPECT_THROW(coordinator.run(spec), std::runtime_error);

  EXPECT_THROW(FabricCoordinator({}), std::invalid_argument);
  EXPECT_THROW(FabricCoordinator({{"127.0.0.1", 1}, {"127.0.0.1", 1}}),
               std::invalid_argument);
}

TEST(SweepServer, ConnectionCapRejectsWithErrorEventThenRecovers) {
  net::SweepServerOptions opt;
  opt.max_connections = 1;
  SweepServer server(opt);
  server.start();

  // First connection occupies the only slot (ping proves it is served).
  auto held = std::make_unique<net::SweepClient>("127.0.0.1", server.port());
  EXPECT_EQ(net::event_name(held->ping()), "pong");

  // Second connection: one JSON error line, then EOF — never queued.
  net::TcpStream over = net::TcpStream::connect("127.0.0.1", server.port());
  std::string line;
  ASSERT_TRUE(over.read_line(line));
  const util::Json reply = util::Json::parse(line);
  EXPECT_EQ(net::event_name(reply), "error");
  EXPECT_NE(reply.find("message")->as_string().find("capacity"),
            std::string::npos);
  EXPECT_FALSE(over.read_line(line));
  EXPECT_GE(server.stats().rejected, 1u);

  // Releasing the held slot frees capacity for the next connection.
  held.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  net::SweepClient next("127.0.0.1", server.port());
  EXPECT_EQ(net::event_name(next.ping()), "pong");
  server.stop();
}

TEST(SweepClient, TransportFailuresAreConnectionErrors) {
  // Refused connect (bound-then-released port).
  std::uint16_t dead_port;
  {
    net::TcpListener probe = net::TcpListener::bind("127.0.0.1", 0);
    dead_port = probe.port();
    probe.close();
  }
  EXPECT_THROW(net::SweepClient("127.0.0.1", dead_port),
               net::ConnectionError);

  // A peer that accepts but never replies: the read deadline fires as a
  // ConnectionError (retryable), not a generic runtime_error.
  net::TcpListener mute = net::TcpListener::bind("127.0.0.1", 0);
  net::ClientConfig cfg;
  cfg.connect_timeout_ms = 1000;
  cfg.read_timeout_ms = 100;
  net::SweepClient client("127.0.0.1", mute.port(), cfg);
  try {
    client.ping();
    FAIL() << "ping against a mute peer must time out";
  } catch (const net::ConnectionError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
  mute.close();

  // A server-side error event stays a plain runtime_error — the
  // fail-fast half of the taxonomy (never retried, never failed over).
  SweepServer server;
  server.start();
  net::SweepClient ok("127.0.0.1", server.port());
  SweepSpec bad;  // no circuits
  try {
    ok.submit(bad);
    FAIL() << "invalid spec must surface the server error";
  } catch (const net::ConnectionError&) {
    FAIL() << "server-reported errors must not be ConnectionError";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sweep failed"), std::string::npos);
  }
  server.stop();
}

}  // namespace
