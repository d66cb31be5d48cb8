#include "pops/util/parallel.hpp"

#include <algorithm>
#include <utility>

namespace pops::util {

namespace {

/// Chunk c of n items split into k chunks: [c*n/k, (c+1)*n/k). Pure in
/// (n, k, c) — the determinism contract of for_chunks rests on this.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n, std::size_t k,
                                                std::size_t c) {
  return {c * n / k, (c + 1) * n / k};
}

}  // namespace

ThreadPool& ThreadPool::global() {
  // At least 4 so single-core hosts still run real multi-threaded sweeps
  // (the 1/2/4-worker determinism and TSan suites need actual threads).
  // No upper cap: run_many's n_threads = 0 means hardware concurrency,
  // and threads are only spawned when a batch asks for them.
  static ThreadPool pool(
      std::max<std::size_t>(std::thread::hardware_concurrency(), 4));
  return pool;
}

ThreadPool::ThreadPool(std::size_t max_threads)
    : max_threads_(std::max<std::size_t>(max_threads, 1)) {}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    stop_ = true;
    threads.swap(threads_);
  }
  work_cv_.notify_all();
  for (std::thread& t : threads) t.join();
}

void ThreadPool::ensure_threads(std::size_t wanted) {
  const std::size_t target = std::min(wanted, max_threads_);
  while (threads_.size() < target)
    threads_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::for_chunks(
    std::size_t n_items, std::size_t workers,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n_items == 0) return;
  const std::size_t k = std::min(workers, n_items);
  if (k <= 1) {
    fn(0, n_items);
    return;
  }

  Batch batch{&fn, n_items, k};
  {
    MutexLock lock(mu_);
    ensure_threads(k - 1);
    batches_.push_back(&batch);
  }
  work_cv_.notify_all();

  // The submitter claims chunks alongside the workers, then waits for
  // the stragglers. Claim bookkeeping is under mu_; the chunk body runs
  // unlocked.
  for (;;) {
    std::size_t c = 0;
    bool claimed = false;
    {
      MutexLock lock(mu_);
      if (batch.next < batch.n_chunks) {
        c = batch.next++;
        ++batch.active;
        claimed = true;
      }
    }
    if (!claimed) break;
    const auto [begin, end] = chunk_range(batch.n_items, batch.n_chunks, c);
    (*batch.fn)(begin, end);
    {
      MutexLock lock(mu_);
      --batch.active;
    }
  }

  {
    MutexLock lock(mu_);
    while (batch.active != 0) done_cv_.wait(mu_);
    batches_.erase(std::find(batches_.begin(), batches_.end(), &batch));
  }
}

void ThreadPool::worker_loop() {
  mu_.lock();
  while (!stop_) {
    Batch* b = nullptr;
    for (Batch* cand : batches_) {
      if (cand->next < cand->n_chunks) {
        b = cand;
        break;
      }
    }
    if (b == nullptr) {
      work_cv_.wait(mu_);
      continue;
    }
    const std::size_t c = b->next++;
    ++b->active;
    const auto [begin, end] = chunk_range(b->n_items, b->n_chunks, c);
    const auto* fn = b->fn;
    mu_.unlock();

    (*fn)(begin, end);

    mu_.lock();
    // The batch outlives this access: its submitter cannot return (and
    // pop the stack frame) until active drops to 0, which happens here,
    // under the same lock the submitter re-checks under.
    if (--b->active == 0 && b->next >= b->n_chunks) done_cv_.notify_all();
  }
  mu_.unlock();
}

}  // namespace pops::util
