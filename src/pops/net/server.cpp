#include "pops/net/server.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "pops/netlist/bench_io.hpp"
#include "pops/netlist/benchmarks.hpp"
#include "pops/obs/clock.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"
#include "pops/service/serialize.hpp"
#include "pops/util/hash.hpp"

namespace pops::net {

using util::Json;

SweepServer::SweepServer(SweepServerOptions opt)
    : opt_(std::move(opt)),
      cache_(std::make_shared<service::ResultCache>(opt_.cache_capacity)),
      journal_(opt_.cache_file.empty()
                   ? nullptr
                   : std::make_unique<service::CacheJournal>(cache_,
                                                             opt_.cache_file)),
      sweeps_(ctx_, cache_) {}

SweepServer::~SweepServer() {
  try {
    stop();
  } catch (...) {
    // Destructors must not throw; a failed final compaction leaves the
    // append-only journal as-is — still fully replayable.
  }
}

service::CacheLoadReport SweepServer::start() {
  if (listener_.valid()) throw std::logic_error("SweepServer already started");

  service::CacheLoadReport loaded;
  if (journal_) {
    // Replay an existing journal (a missing file is a cold start) and
    // attach it. A foreign/corrupt header propagates — starting cold
    // would compact-replace the persisted cache later.
    loaded = journal_->open(ctx_);
  }

  listener_ = TcpListener::bind(opt_.host, opt_.port);
  port_ = listener_.port();
  stopping_.store(false);
  // The accept loop is I/O plumbing, not deterministic product work.
  // pops-lint: allow(raw-thread) — never feeds results it could reorder
  acceptor_ = std::thread([this] { accept_loop(); });
  return loaded;
}

void SweepServer::wait() {
  util::MutexLock lock(shutdown_mu_);
  while (!shutdown_requested_) shutdown_cv_.wait(shutdown_mu_);
}

bool SweepServer::wait_for_ms(long ms) {
  const auto deadline = obs::steady_now() + std::chrono::milliseconds(ms);
  util::MutexLock lock(shutdown_mu_);
  while (!shutdown_requested_) {
    const auto now = obs::steady_now();
    if (now >= deadline) return false;
    shutdown_cv_.wait_for(shutdown_mu_, deadline - now);
  }
  return true;
}

void SweepServer::request_shutdown() {
  {
    util::MutexLock lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void SweepServer::stop() {
  if (stopping_.exchange(true)) return;
  request_shutdown();  // release wait()ers even when stop() came first

  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();

  {
    // Joining under conns_mu_ is deadlock-free: connection threads never
    // take it (they only flip their own atomic `done` flag), and the
    // acceptor — the other taker — is already joined above.
    util::MutexLock lock(conns_mu_);
    for (Connection& conn : conns_)
      if (conn.stream) conn.stream->shutdown_both();
    for (Connection& conn : conns_)
      if (conn.thread.joinable()) conn.thread.join();
    conns_.clear();
  }

  if (journal_) {
    // Final compaction bounds the on-disk size to the live entries and
    // leaves a deterministic (key-sorted) file; close() detaches from the
    // cache.
    journal_->compact();
    journal_->close();
  }
}

std::size_t SweepServer::save_cache() {
  if (!journal_) return 0;
  // Safe concurrent with sweeps: the journal locks its own state, and
  // records are pure content.
  journal_->compact();
  return cache_->size();
}

SweepServerStats SweepServer::stats() const {
  SweepServerStats s;
  // Independent counters: relaxed is sufficient — each tracks its own
  // event stream and nothing downstream infers cross-counter ordering
  // from them (the composite sweeps/points/cache triple below is the
  // part with an invariant, published under stats_mu_).
  s.connections = n_connections_.load(std::memory_order_relaxed);
  s.rejected = n_rejected_.load(std::memory_order_relaxed);
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.errors = n_errors_.load(std::memory_order_relaxed);
  util::MutexLock lock(stats_mu_);
  s.sweeps = n_sweeps_;
  s.points = n_points_;
  // Sampled under the same lock that publishes sweeps/points, so the
  // triple is one instant: a reply never pairs sweep k's count with
  // sweep k-1's points, and hits+misses only ever run AHEAD of points
  // (in-flight points touch the cache before they are counted).
  s.cache = cache_->stats();
  return s;
}

void SweepServer::accept_loop() {
  for (;;) {
    Socket peer = listener_.accept();
    if (!peer.valid()) return;  // listener closed (stop())
    if (stopping_.load()) return;
    util::MutexLock lock(conns_mu_);
    reap_finished_locked();
    if (opt_.max_connections > 0 && conns_.size() >= opt_.max_connections) {
      // Over capacity: one error event line, then close. The write is a
      // single small line into a fresh socket's send buffer — it cannot
      // block the acceptor on a slow peer.
      static const obs::Registry::Counter rejected =
          obs::Registry::global().counter("net.rejected");
      rejected.add();
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
      count_error();
      try {
        TcpStream turn_away(std::move(peer));
        turn_away.write_line(
            make_error("server at connection capacity (" +
                       std::to_string(opt_.max_connections) + ")")
                .dump(0));
      } catch (const std::exception&) {
        // The peer hung up before reading the rejection; nothing owed.
      }
      continue;
    }
    static const obs::Registry::Counter connections =
        obs::Registry::global().counter("net.connections");
    connections.add();
    n_connections_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace_back();
    Connection& conn = conns_.back();
    conn.stream = std::make_unique<TcpStream>(std::move(peer));
    // One thread per accepted connection: connection plumbing only; the
    // per-sweep compute below it still goes through the run_many fan-out.
    // pops-lint: allow(raw-thread) — I/O thread, not product work
    conn.thread = std::thread([this, &conn] { serve_connection(conn); });
  }
}

void SweepServer::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    // acquire pairs with the thread's release store: everything the
    // connection thread did happens-before the join + erase.
    if (it->done.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void SweepServer::serve_connection(Connection& conn) {
  static const obs::Registry::Counter requests =
      obs::Registry::global().counter("net.requests");
  static const obs::Registry::Counter bytes_in =
      obs::Registry::global().counter("net.bytes_in");
  TcpStream& stream = *conn.stream;
  // Responses leave through one aggregating writer: a sweep streaming
  // thousands of point records coalesces them into few send() calls
  // instead of one syscall per line. Flushed after every request (the
  // client is waiting) and by the destructor on error paths.
  BufferedWriter out(stream);
  std::string line;
  try {
    while (!stopping_.load() &&
           stream.read_line(line, opt_.max_request_bytes)) {
      bytes_in.add(static_cast<double>(line.size() + 1));  // +1: framing '\n'
      if (line.empty()) continue;  // tolerate blank keep-alive lines
      requests.add();
      n_requests_.fetch_add(1, std::memory_order_relaxed);
      Request req;
      try {
        req = parse_request(Json::parse(line));
      } catch (const std::exception& e) {
        count_error();
        write_record(out, make_error(e.what()).dump(0));
        out.flush();
        continue;
      }
      {
        obs::Span span("net/", req.op);
        // The caller's correlation id (fabric dispatch): merged fleet
        // traces join this span to the coordinator side's by the id.
        if (req.trace_id != 0)
          span.arg("trace_id", static_cast<double>(req.trace_id));
        handle_request(out, req);
      }
      out.flush();
      if (req.op == "shutdown") break;
    }
  } catch (const std::exception&) {
    // Peer vanished mid-request (broken pipe / oversized line): the
    // connection is over; the sweep state it caused remains valid.
  }
  conn.done.store(true, std::memory_order_release);
}

void SweepServer::write_record(BufferedWriter& out, const std::string& line) {
  static const obs::Registry::Counter bytes_out =
      obs::Registry::global().counter("net.bytes_out");
  bytes_out.add(static_cast<double>(line.size() + 1));  // +1: framing '\n'
  out.write_line(line);
}

void SweepServer::count_error() {
  static const obs::Registry::Counter errors =
      obs::Registry::global().counter("net.errors");
  errors.add();
  n_errors_.fetch_add(1, std::memory_order_relaxed);
}

void SweepServer::handle_request(BufferedWriter& out, const Request& req) {
  if (req.op == "ping") {
    write_record(out, make_event("pong").dump(0));
    return;
  }
  if (req.op == "metrics") {
    // The process-wide registry, not a per-server window: a daemon is the
    // process, and the snapshot's counters (sta.*, cache.*, net.*) are
    // exactly what its sweeps produced.
    Json j = make_event("metrics");
    const Json snapshot = obs::Registry::global().snapshot_json();
    for (const auto& [key, value] : snapshot.members()) j[key] = value;
    write_record(out, j.dump(0));
    return;
  }
  if (req.op == "stats") {
    Json j = make_event("stats");
    // One coherent snapshot: stats() samples the cache counters under
    // the same lock that publishes sweeps/points, so a reply taken
    // mid-sweep is internally consistent.
    const SweepServerStats s = stats();
    Json cache = Json::object();
    cache["hits"] = s.cache.hits;
    cache["misses"] = s.cache.misses;
    cache["entries"] = s.cache.entries;
    cache["evictions"] = s.cache.evictions;
    cache["capacity"] = s.cache.capacity;
    j["cache"] = std::move(cache);
    j["connections"] = s.connections;
    j["rejected"] = s.rejected;
    j["requests"] = s.requests;
    j["sweeps"] = s.sweeps;
    j["points"] = s.points;
    j["errors"] = s.errors;
    j["cache_file"] = opt_.cache_file;
    write_record(out, j.dump(0));
    return;
  }
  if (req.op == "trace") {
    // Cross-wire tracing: the coordinator starts the worker recorder at
    // fleet-sweep begin, fetches the chrome doc at the end, and rebases
    // its timestamps by the origin difference (both processes read the
    // same monotonic clock).
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    Json j = make_event("trace");
    if (req.trace_start) {
      recorder.start();
      j["started"] = true;
      j["origin_ns"] = util::hex_u64(recorder.origin_ns());
    } else {
      j["origin_ns"] = util::hex_u64(recorder.origin_ns());
      j["trace"] = recorder.chrome_json();
    }
    write_record(out, j.dump(0));
    return;
  }
  if (req.op == "save") {
    try {
      const std::size_t entries = save_cache();
      Json j = make_event("saved");
      j["entries"] = entries;
      j["path"] = opt_.cache_file;
      write_record(out, j.dump(0));
    } catch (const std::exception& e) {
      count_error();
      write_record(out, make_error(e.what()).dump(0));
    }
    return;
  }
  if (req.op == "shutdown") {
    write_record(out, make_event("bye").dump(0));
    // The bye must reach the kernel before wait()ers wake: stop() closes
    // this connection and would race a still-buffered reply away.
    out.flush();
    request_shutdown();
    return;
  }
  run_sweep(out, req);
}

void SweepServer::run_sweep(BufferedWriter& out, const Request& req) {
  service::SweepSpec spec = req.spec;
  if (spec.n_threads == 0) spec.n_threads = opt_.n_threads;

  const auto load = [this, &req](const std::string& label) {
    const auto it = req.bench.find(label);
    if (it == req.bench.end())
      return netlist::make_benchmark(ctx_.lib(), label);
    netlist::BenchReadOptions opt;
    opt.po_load_ff = req.po_load_ff;
    opt.name = label;
    return netlist::read_bench_string(it->second, ctx_.lib(), opt);
  };

  std::size_t streamed = 0;
  std::size_t unmet = 0;
  // Streaming sink: runs on this thread (SweepService invokes it from the
  // scheduling thread, in job order), so socket writes need no locking.
  // The record bytes are exactly service::to_json(SweepPoint, ser).dump(0)
  // — the contract that makes daemon output diffable against in-process
  // runs and pops_sweep --jsonl (exact bytes under record_runtimes=false).
  const service::SerializeOptions ser{.measured = req.record_runtimes};
  const service::SweepService::RecordSink sink =
      [&](const service::SweepPoint& point) {
        write_record(out, service::to_json(point, ser).dump(0));
        ++streamed;
        if (!point.report.met) ++unmet;
      };

  service::SweepReport report;
  try {
    report = sweeps_.run(spec, load, sink);
  } catch (const std::exception& e) {
    count_error();
    {
      util::MutexLock lock(stats_mu_);
      n_points_ += streamed;
    }
    write_record(out, make_error(e.what()).dump(0));
    return;
  }
  {
    // Publish the sweep and its points together (see stats()).
    util::MutexLock lock(stats_mu_);
    n_sweeps_ += 1;
    n_points_ += streamed;
  }

  Json done = make_event("done");
  done["points"] = report.points.size();
  done["unmet"] = unmet;
  Json cache = Json::object();
  cache["hits"] = report.cache_hits;
  cache["misses"] = report.cache_misses;
  cache["entries"] = report.cache_entries;
  cache["evictions"] = cache_->stats().evictions;
  done["cache"] = std::move(cache);
  if (req.record_runtimes) done["wall_ms"] = report.wall_ms;
  write_record(out, done.dump(0));

  if (journal_ && opt_.checkpoint_every > 0) {
    bool offer = false;
    {
      util::MutexLock lock(checkpoint_mu_);
      if (++sweeps_since_checkpoint_ >= opt_.checkpoint_every) {
        sweeps_since_checkpoint_ = 0;
        offer = true;
      }
    }
    if (offer) {
      try {
        // Unlike the old whole-archive rewrite, this is a no-op unless
        // garbage crossed the policy threshold — every store is already
        // durable in the journal.
        journal_->compact_if_needed();
      } catch (const std::exception& e) {
        // Compaction failure must not kill the connection: results were
        // already streamed and the journal is still replayable; the next
        // checkpoint retries.
        count_error();
        write_record(out, make_error(std::string("checkpoint failed: ") +
                                     e.what())
                              .dump(0));
      }
    }
  }
}

}  // namespace pops::net
