#include "pops/api/context.hpp"

#include <utility>

#include "pops/api/config.hpp"
#include "pops/liberty/cell.hpp"

namespace pops::api {

OptContext::OptContext(process::Technology tech,
                       core::FlimitOptions flimit_opt, std::uint64_t rng_seed)
    : lib_(&liberty::Library::intern(std::move(tech))),
      flimit_opt_(flimit_opt),
      rng_seed_(rng_seed),
      default_(&backend(OptimizerConfig{})) {}

const DelayBackend& OptContext::backend(const OptimizerConfig& cfg) const {
  const std::string selector = cfg.delay_model_selector();
  util::MutexLock lock(backends_mu_);
  auto it = backends_.find(selector);
  // Built under the lock: each selector is characterized exactly once,
  // and even a table backend costs well under a millisecond.
  if (it == backends_.end())
    it = backends_
             .emplace(selector, std::unique_ptr<const DelayBackend>(
                                    new DelayBackend{
                                        cfg.make_delay_model(*lib_),
                                        core::FlimitTable(flimit_opt_)}))
             .first;
  return *it->second;
}

void OptContext::warm_flimits() const {
  for (liberty::CellKind driver : liberty::all_cell_kinds())
    for (liberty::CellKind gate : liberty::all_cell_kinds())
      default_->flimits.get(default_->dm(), driver, gate);
}

}  // namespace pops::api
