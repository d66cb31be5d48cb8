#pragma once
// Static timing analysis over a Netlist with the closed-form delay model.
//
// Per-edge (rise/fall) arrival times and transition times are propagated in
// topological order; phase-definite cells (INV/NAND/NOR/AOI/OAI invert,
// BUF does not) constrain which input edge causes which output edge, and
// XOR/XNOR conservatively consider both. Backtracking pointers reconstruct
// the critical path, and a K-longest-paths enumeration (in the spirit of
// Yen/Du/Ghanta, DAC'89 — ref [11] of the paper) supplies the "user
// specified limited number of paths" POPS optimises.

#include <array>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "pops/netlist/netlist.hpp"
#include "pops/timing/delay_model.hpp"

namespace pops::timing {

/// A (node, output-edge) pair — one vertex of the timing graph.
struct PathPoint {
  netlist::NodeId node = netlist::kNoNode;
  Edge edge = Edge::Rise;
  bool operator==(const PathPoint&) const = default;
};

/// One complete PI->PO path with its total delay.
struct TimedPath {
  std::vector<PathPoint> points;  ///< PI first, PO last
  double delay_ps = 0.0;
};

/// Options for the analysis.
struct StaOptions {
  /// Transition time assumed at every primary input; <= 0 selects the
  /// model's default (FO1 reference inverter).
  double pi_slew_ps = -1.0;

  /// Level-parallel sweeps: > 1 partitions forward/backward propagation
  /// by topological level and fans each level out across
  /// util::ThreadPool workers. Per-node writes are disjoint and a level
  /// reads only finished earlier (forward) / deeper (backward) levels,
  /// so results are bitwise-identical to the sequential path at any
  /// worker count (test-enforced).
  std::size_t level_parallel_workers = 1;

  /// Netlists below this node count keep the sequential path even when
  /// workers > 1: per-level fan-out overhead dominates on small circuits
  /// (all ISCAS benchmarks stay sequential at the default).
  std::size_t level_parallel_min_nodes = 50000;
};

/// The two stage inputs of one gate's delay arcs (eq. 1-2): its input pin
/// capacitance and its total output load (fanout pins + wire + PO load +
/// own drain parasitic), both at the drives current when it was timed.
struct StageLoad {
  double cin_ff = 0.0;
  double cload_ff = 0.0;
};

/// Full analysis result.
struct StaResult {
  /// Arrival time per node per edge (index with `idx(Edge)`); -inf if the
  /// (node, edge) vertex is unreachable.
  std::vector<std::array<double, 2>> arrival_ps;
  /// Output transition time per node per edge.
  std::vector<std::array<double, 2>> slew_ps;
  /// Which (fanin, fanin-edge) realised the max arrival, for backtracking.
  std::vector<std::array<PathPoint, 2>> prev;
  /// Stage inputs per node, recorded by the forward sweep ({0, 0} at PIs).
  /// The backward queries of Sta read these instead of re-summing every
  /// fanout's load per arc.
  std::vector<StageLoad> stage;

  double critical_delay_ps = 0.0;
  PathPoint critical_endpoint;

  static std::size_t idx(Edge e) noexcept { return e == Edge::Rise ? 0 : 1; }

  double arrival(netlist::NodeId n, Edge e) const {
    return arrival_ps[static_cast<std::size_t>(n)][idx(e)];
  }
  double slew(netlist::NodeId n, Edge e) const {
    return slew_ps[static_cast<std::size_t>(n)][idx(e)];
  }
};

class IncrementalSta;

/// Query contract: the backward queries (k_critical_paths,
/// downstream_delays, required_times, slacks) evaluate arc delays from the
/// stage loads recorded in their `result` argument, not from the netlist's
/// current drives. A StaResult is therefore valid only until the next
/// netlist edit; after one, call run() again (or IncrementalSta::update)
/// before querying.
class Sta {
 public:
  Sta(const netlist::Netlist& nl, const DelayModel& dm, StaOptions opt = {});

  /// Run forward propagation; O(E) in the netlist size.
  StaResult run() const;

  /// Reconstruct the critical path from a completed result.
  TimedPath critical_path(const StaResult& result) const;

  /// The K longest PI->PO paths, in non-increasing delay order. Edge delays
  /// are frozen at the slews of `result` (standard K-critical-paths
  /// approximation). Returns fewer than k paths if the graph has fewer.
  std::vector<TimedPath> k_critical_paths(const StaResult& result,
                                          std::size_t k) const;

  /// Longest remaining delay (ps) from each timing-graph vertex
  /// (vertex = 2*node + StaResult::idx(edge)) to any PO, at the slews of
  /// `result`: 0 at a PO vertex itself, -inf where no PO is reachable.
  /// This is the bound function of the K-paths enumeration; IncrementalSta
  /// maintains these values across netlist edits instead of recomputing
  /// the whole vector per round.
  std::vector<double> downstream_delays(const StaResult& result) const;

  /// K-paths enumeration with a precomputed bound vector (must equal
  /// downstream_delays(result) — bit-identical results are only guaranteed
  /// then). The two-argument overload computes `down` and forwards here.
  std::vector<TimedPath> k_critical_paths(const StaResult& result,
                                          std::size_t k,
                                          const std::vector<double>& down) const;

  /// Required time per node per edge against a required arrival `tc_ps`
  /// at every PO: the backward min-propagation of slacks(), exposed so
  /// consumers (and IncrementalSta's maintained vectors) share one
  /// bit-exact definition. +inf where no PO constrains the vertex.
  std::vector<std::array<double, 2>> required_times(const StaResult& result,
                                                    double tc_ps) const;

  /// Per-node slack against a required time `tc_ps` at every PO, for the
  /// worse edge: slack(n) = min over edges of (required - arrival).
  std::vector<double> slacks(const StaResult& result, double tc_ps) const;

  /// Arc unateness: the input edges of `cell` that can cause output edge
  /// `out` — one edge for phase-definite cells (flipped when the cell
  /// inverts), both for the non-unate XOR/XNOR. A view of static storage.
  static std::span<const Edge> cause_edges(const liberty::Cell& cell,
                                           Edge out);

 private:
  friend class IncrementalSta;  // reuses the per-node kernels below

  /// Recompute stage/slew/arrival/prev of gate `id` (both edges) from the
  /// netlist and the fanin values in `r` — the per-node kernel of run().
  /// Deterministic in its inputs, so replaying it on an unchanged
  /// neighbourhood is bit-identical.
  void compute_node(netlist::NodeId id, StaResult& r) const;

  /// Downstream longest delay of one vertex from its fanouts' `down`
  /// values — the per-vertex kernel of downstream_delays().
  double compute_down(netlist::NodeId id, Edge e, const StaResult& result,
                      const std::vector<double>& down) const;

  /// Recompute required[id] (both edges) from the fanouts' finalized
  /// `required` values — the per-node kernel of required_times(). Same
  /// operation order as the historical monolithic sweep, so replaying it
  /// on an unchanged neighbourhood is bit-identical.
  void compute_required(netlist::NodeId id, const StaResult& result,
                        double tc_ps,
                        std::vector<std::array<double, 2>>& required) const;

  /// slack(id) from finalized arrivals and required times — the per-node
  /// kernel of slacks().
  double compute_slack(netlist::NodeId id, const StaResult& result,
                       const std::vector<std::array<double, 2>>& required)
      const;

  /// Scan POs for the critical delay/endpoint; throws when no PO is
  /// reachable (same contract as run()).
  void finalize_critical(StaResult& r) const;

  /// True when this netlist/options pair takes the level-parallel path.
  bool level_parallel() const noexcept;

  /// All nodes bucketed by gate depth (depth 0 = PIs), each bucket in
  /// topo order. Forward sweeps walk buckets ascending, backward sweeps
  /// descending; within a bucket nodes are independent.
  std::vector<std::vector<netlist::NodeId>> depth_levels() const;

  const netlist::Netlist* nl_;
  const DelayModel* dm_;
  StaOptions opt_;
};

}  // namespace pops::timing
