#include "pops/fabric/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "pops/service/result_cache.hpp"
#include "pops/util/hash.hpp"

namespace pops::fabric {

std::vector<PointSpec> expand_points(const service::SweepSpec& spec) {
  spec.ensure_valid();
  std::vector<PointSpec> out;
  out.reserve(spec.n_jobs());
  for (const service::BufferPolicy& policy : spec.policies)
    for (const std::string& vt_policy : spec.vt_policies)
      for (const double temperature : spec.temperatures)
        for (const double margin : spec.shield_margins)
          for (const double ratio : spec.tc_ratios)
            for (const std::string& circuit : spec.circuits) {
              PointSpec pt;
              pt.index = out.size();
              pt.circuit = circuit;
              pt.tc_ratio = ratio;
              pt.shield_margin = margin;
              pt.temperature_c = temperature;
              pt.vt_policy = vt_policy;
              pt.policy = policy;
              out.push_back(std::move(pt));
            }
  return out;
}

service::SweepSpec single_point_spec(const service::SweepSpec& base,
                                     const PointSpec& pt) {
  service::SweepSpec spec = base;
  spec.circuits = {pt.circuit};
  spec.tc_ratios = {pt.tc_ratio};
  spec.shield_margins = {pt.shield_margin};
  spec.temperatures = {pt.temperature_c};
  spec.vt_policies = {pt.vt_policy};
  spec.policies = {pt.policy};
  return spec;
}

ShardKeyer::ShardKeyer(const api::OptContext& ctx,
                       const service::SweepSpec& spec,
                       const CircuitLoader& load) {
  spec.ensure_valid();
  for (const std::string& name : spec.circuits) {
    if (circuit_hash_.count(name)) continue;
    circuit_hash_[name] = service::ResultCache::hash_netlist(load(name));
  }
  // The same per-group derivation SweepService::run uses, so the hashed
  // (config, pipeline) tuple is the one the worker keys its entries by.
  for (const service::BufferPolicy& policy : spec.policies)
    for (const std::string& vt_policy : spec.vt_policies)
      for (const double temperature : spec.temperatures)
        for (const double margin : spec.shield_margins) {
          const service::JobConfig job = service::job_config(
              spec, policy, vt_policy, temperature, margin);
          config_hash_[{policy.name, vt_policy, temperature, margin}] =
              service::ResultCache::hash_config(ctx, job.cfg, job.pipeline);
        }
}

std::uint64_t ShardKeyer::key_hash(const PointSpec& pt) const {
  const auto ch = circuit_hash_.find(pt.circuit);
  const auto cf = config_hash_.find(
      {pt.policy.name, pt.vt_policy, pt.temperature_c, pt.shield_margin});
  if (ch == circuit_hash_.end() || cf == config_hash_.end())
    throw std::logic_error("ShardKeyer: point '" + pt.circuit +
                           "' is not from the keyed spec");
  util::Fnv1a h;
  h.u64(ch->second);
  h.u64(cf->second);
  h.f64(pt.tc_ratio);
  return h.h;
}

HashRing::HashRing(std::vector<std::string> members, std::size_t vnodes)
    : members_(std::move(members)) {
  if (vnodes == 0) throw std::invalid_argument("HashRing: vnodes must be > 0");
  std::unordered_set<std::string> seen;
  for (const std::string& m : members_) {
    if (m.empty())
      throw std::invalid_argument("HashRing: empty member label");
    if (!seen.insert(m).second)
      throw std::invalid_argument("HashRing: duplicate member '" + m + "'");
  }
  ring_.reserve(members_.size() * vnodes);
  for (std::uint32_t i = 0; i < members_.size(); ++i)
    for (std::size_t v = 0; v < vnodes; ++v) {
      util::Fnv1a h;
      h.str(members_[i]);
      h.str("#");
      h.u64(v);
      ring_.emplace_back(h.h, i);
    }
  std::sort(ring_.begin(), ring_.end(),
            [this](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return members_[a.second] < members_[b.second];
            });
}

std::size_t HashRing::owner(std::uint64_t key_hash) const {
  if (ring_.empty()) throw std::logic_error("HashRing: no members");
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key_hash,
      [](const auto& node, std::uint64_t key) { return node.first < key; });
  if (it == ring_.end()) it = ring_.begin();  // wrap past the top
  return it->second;
}

}  // namespace pops::fabric
