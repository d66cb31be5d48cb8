#pragma once
// Shared worker-thread pool for deterministic data-parallel work.
//
// Its client is api::Optimizer::run_many, which fans a batch's circuits
// out across threads; concurrent batches share the one pool. The pool
// keeps its workers alive for the process lifetime and hands them
// contiguous index chunks, so a batch costs no thread spawns.
//
// Determinism contract: for_chunks() imposes NO ordering of its own — it
// only partitions [0, n) into fixed contiguous chunks (a pure function of
// n_items and the requested worker count, never of thread scheduling) and
// runs every chunk exactly once, returning after all complete. A caller
// whose chunk bodies write disjoint outputs and read only data finished
// before the call therefore gets bitwise-identical results at any worker
// count, on any host, under any scheduler — the property run_many is
// tested for. Callers needing a reduction must merge the per-chunk
// outputs themselves in chunk order after for_chunks() returns.
//
// The calling thread participates: `workers == k` means the caller plus
// at most k-1 pool threads, so `workers == 1` runs entirely inline (no
// locking, no pool wakeup) and a 1-core host still exercises real
// cross-thread execution at k > 1 — which is exactly what the TSan
// determinism suites need.
//
// This is the ONE place (besides net's connection threads) allowed to
// spawn raw threads; pops_lint's raw-thread rule points offenders here.

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "pops/util/thread_annotations.hpp"

namespace pops::util {

class ThreadPool {
 public:
  /// The process-wide pool (lazily constructed, grows on demand up to
  /// max_threads(), the hardware concurrency but at least 4). Worker
  /// threads are joined at process exit.
  static ThreadPool& global();

  explicit ThreadPool(std::size_t max_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Partition [0, n_items) into min(workers, n_items) contiguous chunks
  /// and run fn(begin, end) once per chunk, blocking until all complete.
  /// The calling thread executes chunks too (workers <= 1 runs inline).
  /// fn must be safe to call concurrently from multiple threads; chunk
  /// boundaries depend only on (n_items, workers).
  void for_chunks(std::size_t n_items, std::size_t workers,
                  const std::function<void(std::size_t, std::size_t)>& fn)
      POPS_EXCLUDES(mu_);

  /// Upper bound on pool threads (the cap passed at construction).
  std::size_t max_threads() const noexcept { return max_threads_; }

 private:
  /// One for_chunks() invocation in flight. Lives on the submitter's
  /// stack; workers only reach it through batches_ under mu_, and the
  /// submitter removes it before returning (it waits for active == 0
  /// first, so no worker can hold a dangling pointer).
  struct Batch {
    const std::function<void(std::size_t, std::size_t)>* fn;
    std::size_t n_items;
    std::size_t n_chunks;
    std::size_t next = 0;    ///< first unclaimed chunk
    std::size_t active = 0;  ///< chunks claimed but not yet finished
  };

  void worker_loop();
  void ensure_threads(std::size_t wanted) POPS_REQUIRES(mu_);

  const std::size_t max_threads_;
  mutable Mutex mu_;
  CondVar work_cv_;  ///< a batch arrived / stop requested
  CondVar done_cv_;  ///< a chunk finished (submitters re-check their batch)
  std::vector<Batch*> batches_ POPS_GUARDED_BY(mu_);
  std::vector<std::thread> threads_ POPS_GUARDED_BY(mu_);
  bool stop_ POPS_GUARDED_BY(mu_) = false;
};

}  // namespace pops::util
