#pragma once
// The sweep-serving daemon: SweepService over a TCP port.
//
// SweepServer completes the heavy-traffic picture of the ROADMAP: many
// clients submit SweepSpec JSON over loopback/TCP (newline-delimited
// framing, net/protocol.hpp), and the server streams per-point JSONL
// records back as they complete, byte-identical to an in-process run.
// One ResultCache, owned by the server and handed to its SweepService
// (which hands it to every Optimizer), memoizes across *all* clients
// and, with a cache file configured, across *restarts*: every store is
// appended to a service::CacheJournal as it lands, so a warm restart
// replays repeated specs without recomputing anything (checkpoints are
// journal *compactions*, O(live entries) and only when garbage warrants
// it).
//
// Concurrency model: connections are handled on one thread each, and
// their sweeps run concurrently on the server's one OptContext and
// SweepService — including sweeps on different delay-model backends.
// Nothing a sweep reads can change under it: the context resolves each
// backend once and never swaps it (api/context.hpp), the cache and the
// journal are internally locked, and each sweep reports its own cache
// counters.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "pops/api/api.hpp"
#include "pops/net/protocol.hpp"
#include "pops/net/socket.hpp"
#include "pops/service/cache_journal.hpp"
#include "pops/service/result_cache.hpp"
#include "pops/service/sweep.hpp"
#include "pops/util/thread_annotations.hpp"

namespace pops::net {

struct SweepServerOptions {
  std::string host = "127.0.0.1";  ///< loopback by default; no auth yet
  std::uint16_t port = 0;          ///< 0 = kernel-assigned (see port())
  /// Worker threads per sweep (run_many), applied when a spec leaves
  /// n_threads at 0; 0 = hardware concurrency.
  std::size_t n_threads = 0;
  /// Persist the ResultCache here as an append-only journal
  /// (service/cache_journal.hpp; empty = in-memory only). Replayed at
  /// start; appended per store; compacted on checkpoint/save/stop.
  std::string cache_file;
  /// LRU bound on the cache (entries); 0 = unbounded.
  std::size_t cache_capacity = 0;
  /// Offer journal compaction every N completed sweeps (0 = only on
  /// save/stop). Compaction is atomic (tmp + rename) and only rewrites
  /// when the garbage policy says it is worth it.
  std::size_t checkpoint_every = 1;
  std::size_t max_request_bytes = TcpStream::kMaxLineBytes;
  /// Serve at most this many concurrent connections; an accept past the
  /// cap is answered with one "error" event line and closed. 0 = no cap.
  std::size_t max_connections = 0;
};

/// Aggregate serving counters, snapshot via SweepServer::stats().
///
/// The snapshot is internally consistent even when taken mid-sweep:
/// `sweeps`/`points` are published together with the cache counters
/// under one lock, so a reply never pairs a completed sweep with the
/// point or cache totals of the sweep before it (cache hits + misses
/// can only run *ahead* of `points`, never behind — in-flight points
/// touch the cache before they are counted).
struct SweepServerStats {
  std::size_t connections = 0;  ///< accepted and served so far
  std::size_t rejected = 0;     ///< turned away by max_connections
  std::size_t requests = 0;     ///< request lines parsed
  std::size_t sweeps = 0;       ///< sweep ops completed
  std::size_t points = 0;       ///< point records streamed
  std::size_t errors = 0;       ///< error events sent
  service::ResultCache::Stats cache;  ///< same-instant cache counters
};

class SweepServer {
 public:
  explicit SweepServer(SweepServerOptions opt = {});
  ~SweepServer();

  /// Bind + listen + start accepting. Returns what the cache journal
  /// contributed (zeros when none was configured or the file did not
  /// exist yet). Throws when the port cannot be bound or the journal
  /// exists but is foreign/corrupt (stale-context rejection — refusing
  /// to serve from a cache that would not replay bit-identically).
  service::CacheLoadReport start();

  /// Block until a client's "shutdown" op (or stop() from another
  /// thread).
  void wait() POPS_EXCLUDES(shutdown_mu_);

  /// wait() with a timeout: returns true when shutdown was requested,
  /// false after `ms` milliseconds — the polling primitive that lets a
  /// tool interleave signal-flag checks (Ctrl-C) with protocol shutdown.
  bool wait_for_ms(long ms) POPS_EXCLUDES(shutdown_mu_);

  /// Stop accepting, wake every connection, join all threads, compact +
  /// close the journal. Idempotent; called by the destructor.
  void stop() POPS_EXCLUDES(conns_mu_);

  /// The actual listening port (after start(); resolves port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Compact the journal now (the "save" op). Returns the number of live
  /// entries it holds; 0 with no cache file configured.
  std::size_t save_cache();

  SweepServerStats stats() const POPS_EXCLUDES(stats_mu_);

  service::ResultCache* cache() const noexcept { return cache_.get(); }
  /// The journal, or nullptr with no cache file configured.
  service::CacheJournal* journal() const noexcept { return journal_.get(); }

 private:
  struct Connection {
    std::unique_ptr<TcpStream> stream;
    std::thread thread;
    /// Set (release) by the connection thread as its last action; read
    /// (acquire) by reap_finished_locked before joining, so everything
    /// the thread wrote happens-before the reap.
    std::atomic<bool> done{false};
  };

  void accept_loop() POPS_EXCLUDES(conns_mu_);
  void serve_connection(Connection& conn);
  void handle_request(BufferedWriter& out, const Request& req);
  /// All response lines leave through here: one write site keeps the
  /// net.bytes_out metric exact (every record, every event, +1 framing
  /// newline each — counted when buffered; the BufferedWriter flushes
  /// them downstream in batches).
  void write_record(BufferedWriter& out, const std::string& line);
  /// Bumps n_errors_ and the net.errors metric together.
  void count_error();
  void run_sweep(BufferedWriter& out, const Request& req)
      POPS_EXCLUDES(stats_mu_);
  void request_shutdown() POPS_EXCLUDES(shutdown_mu_);
  void reap_finished_locked() POPS_REQUIRES(conns_mu_);

  SweepServerOptions opt_;
  std::shared_ptr<service::ResultCache> cache_;
  std::unique_ptr<service::CacheJournal> journal_;
  api::OptContext ctx_;
  /// Declared after ctx_ and cache_: sweeps memoize through cache_.
  service::SweepService sweeps_;

  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  /// Guards the connection registry: accept_loop appends, stop() tears
  /// down, reap_finished_locked erases. Connection threads never take
  /// it (they only flip their own `done` flag), so joining them while
  /// holding it cannot deadlock.
  util::Mutex conns_mu_;
  std::list<Connection> conns_ POPS_GUARDED_BY(conns_mu_);

  /// Counts sweeps toward the next checkpoint_every compaction offer.
  util::Mutex checkpoint_mu_;
  std::size_t sweeps_since_checkpoint_ POPS_GUARDED_BY(checkpoint_mu_) = 0;

  util::Mutex shutdown_mu_;
  util::CondVar shutdown_cv_;
  bool shutdown_requested_ POPS_GUARDED_BY(shutdown_mu_) = false;

  /// Publishes the per-sweep composite (sweeps + their streamed points)
  /// atomically with respect to stats(), which also samples the cache
  /// counters under this lock — the coherence contract documented on
  /// SweepServerStats. Never held while computing (taken after a sweep
  /// completes), so stats replies stay wait-free in practice mid-sweep.
  mutable util::Mutex stats_mu_;
  std::size_t n_sweeps_ POPS_GUARDED_BY(stats_mu_) = 0;
  std::size_t n_points_ POPS_GUARDED_BY(stats_mu_) = 0;

  // Independent monotonic counters: each is bumped by exactly one event
  // with no invariant tying it to the others, so relaxed atomics suffice
  // (stats() documents the ordering it does and does not promise).
  std::atomic<std::size_t> n_connections_{0};
  std::atomic<std::size_t> n_rejected_{0};
  std::atomic<std::size_t> n_requests_{0};
  std::atomic<std::size_t> n_errors_{0};
};

}  // namespace pops::net
