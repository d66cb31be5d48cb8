#include "pops/api/optimizer.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/util/parallel.hpp"
#include "pops/util/thread_annotations.hpp"

namespace pops::api {

Optimizer::Optimizer(const OptContext& ctx, OptimizerConfig cfg,
                     ResultCacheHook* cache)
    : ctx_(&ctx), cfg_(std::move(cfg)), cache_(cache) {
  cfg_.ensure_valid();
  backend_ = &ctx.backend(cfg_);
  pipeline_ = PassPipeline::standard(cfg_);
}

void Optimizer::set_pipeline(PassPipeline pipeline) {
  if (pipeline.empty())
    throw std::invalid_argument("Optimizer::set_pipeline: empty pipeline");
  pipeline_ = std::move(pipeline);
}

double Optimizer::initial_delay_ps(const netlist::Netlist& nl) const {
  timing::StaOptions opt;
  opt.pi_slew_ps = cfg_.pi_slew_ps;
  // One-shot measurement on the incremental engine: run_full() delegates
  // to Sta::run() and materializes no incremental state until the first
  // update()/downstream() call, so this costs exactly a plain cold STA.
  return timing::IncrementalSta(nl, backend_->dm(), opt)
      .run_full()
      .critical_delay_ps;
}

PipelineReport Optimizer::run_point(netlist::Netlist& nl, double value,
                                    bool relative) const {
  static const obs::Registry::Counter points =
      obs::Registry::global().counter("optimizer.points");
  points.add();
  obs::Span span("optimizer/point");
  span.arg(relative ? "tc_ratio" : "tc_ps", value);

  // Key on the *input* netlist before the pipeline mutates it; tc_bits
  // is filled in once the absolute Tc is known.
  ResultCacheKey key;
  if (cache_) key = cache_->make_key(*ctx_, nl, cfg_, pipeline_, 0.0);

  double initial = -1.0;  // unknown: the pipeline measures it
  double tc_ps = value;
  if (relative) {
    // The absolute Tc needs the initial delay, so with a cache that STA
    // is memoized under the tc-less half of the key. Any finite value
    // memoizes, including 0.0: a degenerate (gate-free) netlist has a
    // legitimate zero critical delay, and skipping the memo for it would
    // re-run full STA on every cached replay.
    const std::optional<double> memo =
        cache_ ? cache_->initial_delay_ps(key) : std::nullopt;
    initial = memo ? *memo : initial_delay_ps(nl);
    if (cache_ && !memo && std::isfinite(initial))
      cache_->store_initial_delay(key, initial);
    tc_ps = value * initial;
  }
  // An invalid Tc — given, or derived from a zero initial delay — must
  // throw (from pipeline.run) without polluting the cache's miss counter.
  if (!cache_ || !(tc_ps > 0.0))
    return pipeline_.run(nl, *ctx_, cfg_, tc_ps, initial);
  key.tc_bits = std::bit_cast<std::uint64_t>(tc_ps);

  PipelineReport report;
  if (cache_->lookup(key, nl, report)) {
    report.from_cache = true;
    return report;
  }
  report = pipeline_.run(nl, *ctx_, cfg_, tc_ps, initial);
  cache_->store(key, nl, report);
  return report;
}

PipelineReport Optimizer::run(netlist::Netlist& nl, double tc_ps) const {
  return run_point(nl, tc_ps, /*relative=*/false);
}

PipelineReport Optimizer::run_relative(netlist::Netlist& nl,
                                       double tc_ratio) const {
  if (!(tc_ratio > 0.0))
    throw std::invalid_argument("Optimizer: tc_ratio must be > 0");
  return run_point(nl, tc_ratio, /*relative=*/true);
}

std::vector<PipelineReport> Optimizer::run_many(
    std::span<netlist::Netlist> circuits, double tc_ps,
    std::size_t n_threads) const {
  return run_many_impl(circuits, tc_ps, /*relative=*/false, n_threads);
}

std::vector<PipelineReport> Optimizer::run_many_relative(
    std::span<netlist::Netlist> circuits, double tc_ratio,
    std::size_t n_threads) const {
  return run_many_impl(circuits, tc_ratio, /*relative=*/true, n_threads);
}

std::vector<PipelineReport> Optimizer::run_many_impl(
    std::span<netlist::Netlist> nls, double tc, bool relative,
    std::size_t n_threads) const {
  if (relative && !(tc > 0.0))
    throw std::invalid_argument("Optimizer: tc_ratio must be > 0");
  if (nls.empty()) return {};

  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  n_threads = std::min(n_threads, nls.size());

  obs::Span batch("run_many/batch");
  batch.arg("circuits", static_cast<double>(nls.size()));
  batch.arg("threads", static_cast<double>(n_threads));

  std::vector<PipelineReport> reports(nls.size());

  // Dynamic work queue: circuit sizes vary wildly (c17 .. c7552), so
  // static striping would leave workers idle behind the biggest circuit.
  std::atomic<std::size_t> next{0};
  // First-error slot shared by the workers, annotated so the worker-side
  // lock discipline is compiler-checked like every other surface (a
  // bare local capture could be read unlocked without a diagnostic).
  struct ErrorSlot {
    util::Mutex mu;
    std::exception_ptr first POPS_GUARDED_BY(mu);
  } error;

  // One pool chunk per worker, each draining the shared queue. A chunk
  // must not throw: an exception escaping a pool thread terminates the
  // process, so every error lands in the slot instead.
  util::ThreadPool::global().for_chunks(
      n_threads, n_threads, [&](std::size_t, std::size_t) {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= nls.size()) return;
          obs::Span task("run_many/task");
          task.arg("circuit", static_cast<double>(i));
          try {
            reports[i] = run_point(nls[i], tc, relative);
          } catch (...) {
            util::MutexLock lock(error.mu);
            if (!error.first) error.first = std::current_exception();
            return;
          }
        }
      });
  std::exception_ptr first_error;
  {
    util::MutexLock lock(error.mu);
    first_error = error.first;
  }
  if (first_error) std::rethrow_exception(first_error);
  return reports;
}

}  // namespace pops::api
