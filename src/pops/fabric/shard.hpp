#pragma once
// Consistent-hash sharding of sweep grids.
//
// The fabric coordinator (fabric/coordinator.hpp) splits a SweepSpec's
// point grid across a fleet of worker daemons. The split must be a pure
// function of *content* — the same point always lands on the same worker
// across runs and processes — because each worker owns a persistent
// journaled ResultCache (service/cache_journal.hpp): stable routing is
// what keeps those per-worker caches hot. This header provides the three
// pieces:
//
//   - expand_points: a SweepSpec's grid as an indexed point list in the
//     exact deterministic job order SweepService::run emits records
//     (policy > vt-policy > temperature > margin > ratio > circuit,
//     circuit fastest), so a merge that emits results by ascending index
//     reproduces the single-daemon stream byte for byte.
//   - ShardKeyer: the content-pure hash a point routes by, built from the
//     same ingredients as the ResultCacheKey the worker will compute
//     (ResultCache::hash_netlist + hash_config); see key_hash for the one
//     deliberate difference (Tc ratio bits stand in for absolute Tc).
//   - HashRing: consistent hashing over worker labels with virtual nodes,
//     so growing a fleet of N workers remaps only ~1/N of the key space
//     (a modulo shard would invalidate nearly every worker's cache).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pops/api/api.hpp"
#include "pops/power/report.hpp"
#include "pops/service/sweep.hpp"

namespace pops::fabric {

/// One grid point of an expanded SweepSpec, tagged with its position in
/// deterministic job order.
struct PointSpec {
  std::size_t index = 0;  ///< position in SweepService::run record order
  std::string circuit;
  double tc_ratio = 0.0;
  double shield_margin = 1.0;
  double temperature_c = power::kDefaultTemperatureC;
  std::string vt_policy = "none";
  service::BufferPolicy policy;
};

/// Expand `spec` (validated first) into its point grid, in the job order
/// SweepService::run streams records: policies outermost, then vt
/// policies, temperatures, margins, then ratios, circuits innermost.
std::vector<PointSpec> expand_points(const service::SweepSpec& spec);

/// A single-point sub-spec: `base` with every grid axis narrowed to
/// `pt`'s coordinates. Running it on a worker produces exactly one
/// record, byte-identical to the same point inside the full sweep (the
/// record is a pure function of (circuit, config, Tc) — batch
/// composition never leaks into a point's bytes).
service::SweepSpec single_point_spec(const service::SweepSpec& base,
                                     const PointSpec& pt);

/// Computes the content-pure routing hash of each point of one spec.
/// Construction resolves every circuit through `load` once (hashing the
/// netlist content) and hashes the effective config + pass pipeline of
/// every (policy, vt-policy, temperature, margin) group, derived by
/// service::job_config exactly as SweepService::run derives it.
class ShardKeyer {
 public:
  using CircuitLoader = service::SweepService::CircuitLoader;

  ShardKeyer(const api::OptContext& ctx, const service::SweepSpec& spec,
             const CircuitLoader& load);

  /// FNV-1a over (circuit content hash, config/pipeline/context hash, Tc
  /// *ratio* bits). The worker's real ResultCacheKey carries absolute Tc
  /// picoseconds (ratio x the circuit's initial delay), which the
  /// coordinator cannot know without running STA; the ratio's bit
  /// pattern is an equally content-pure stand-in — same (circuit,
  /// config, ratio) always hashes the same, so every replay of a point
  /// routes to the worker already holding its cache entry.
  std::uint64_t key_hash(const PointSpec& pt) const;

 private:
  /// (policy name, vt policy, temperature, margin) — every config axis of
  /// the grid; ratio is per-point and enters key_hash directly.
  using ConfigKey = std::tuple<std::string, std::string, double, double>;

  std::map<std::string, std::uint64_t> circuit_hash_;
  std::map<ConfigKey, std::uint64_t> config_hash_;
};

/// Consistent-hash ring over worker labels. Each member is projected to
/// `vnodes` pseudo-random ring positions (FNV of "label#i"); a key is
/// owned by the first position clockwise from its hash. Membership
/// changes move only the arcs adjacent to the added/removed member's
/// virtual nodes — ~1/N of the key space for an N-member ring.
class HashRing {
 public:
  /// Labels must be non-empty and distinct (throws std::invalid_argument
  /// otherwise). An empty member list is allowed; owner() then throws.
  explicit HashRing(std::vector<std::string> members,
                    std::size_t vnodes = 64);

  /// Index into members() of the key's owner. Throws std::logic_error on
  /// an empty ring.
  std::size_t owner(std::uint64_t key_hash) const;

  const std::vector<std::string>& members() const noexcept {
    return members_;
  }
  bool empty() const noexcept { return members_.empty(); }

 private:
  std::vector<std::string> members_;
  /// (ring position, member index), sorted by position; ties broken by
  /// label so the order is content-stable across member orderings.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace pops::fabric
