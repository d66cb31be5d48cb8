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
#include <cstdint>
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

  /// Ignored; kept only because the benchmark harness assigns it.
  std::size_t level_parallel_workers = 1;
  /// Ignored; kept only because the benchmark harness assigns it.
  std::size_t level_parallel_min_nodes = 50000;
};

/// Widest cells of the library: 4-input NAND/NOR (unate: one causing
/// in-edge per out-edge) and 2-input XOR/XNOR (non-unate: both in-edges).
inline constexpr std::size_t kMaxFanin = 4;
inline constexpr std::size_t kMaxNonUnateFanin = 2;
/// Slots per node in StaResult::arc_ps: one per (pin, out-edge) of a unate
/// cell, one per (pin, out-edge, in-edge) of the non-unate XOR/XNOR.
inline constexpr std::size_t kArcSlots = 8;
static_assert(kMaxFanin * 2 <= kArcSlots &&
                  kMaxNonUnateFanin * 2 * 2 <= kArcSlots,
              "every library cell's arcs must fit one arc_ps entry");
/// A StaResult::arc_fanin entry without fanins (PIs).
inline constexpr std::array<netlist::NodeId, kMaxFanin> kNoFanins = [] {
  std::array<netlist::NodeId, kMaxFanin> none{};
  none.fill(netlist::kNoNode);
  return none;
}();

/// Full analysis result.
struct StaResult {
  /// Arrival time per node per edge (index with `idx(Edge)`); -inf if the
  /// (node, edge) vertex is unreachable.
  std::vector<std::array<double, 2>> arrival_ps;
  /// Output transition time per node per edge.
  std::vector<std::array<double, 2>> slew_ps;
  /// Which (fanin, fanin-edge) realised the max arrival, for backtracking.
  std::vector<std::array<PathPoint, 2>> prev;
  /// Derated delay of every timing arc into each node, recorded by the
  /// forward sweep when it evaluates the delay model (all 0 at PIs and in
  /// unused slots); index with `arc_slot`. The backward queries of Sta
  /// read these instead of evaluating the model again.
  std::vector<std::array<double, kArcSlots>> arc_ps;
  /// The fanin on each pin when the arcs were recorded (kNoNode past the
  /// cell's arity and at PIs). A backward query finds a driver's pin here,
  /// in one small contiguous table, not in the netlist's per-node lists.
  std::vector<std::array<netlist::NodeId, kMaxFanin>> arc_fanin;

  double critical_delay_ps = 0.0;
  PathPoint critical_endpoint;

  static std::size_t idx(Edge e) noexcept { return e == Edge::Rise ? 0 : 1; }

  /// Slot of the arc (fanin pin `pin`, in-edge `in`) -> out-edge `out` of a
  /// cell whose out-edges each have `causes` causing in-edges
  /// (Sta::cause_edges(cell, out).size()): 2*pin + out for unate cells,
  /// 4*pin + 2*out + in for XOR/XNOR.
  static std::size_t arc_slot(std::size_t causes, std::size_t pin, Edge out,
                              Edge in) noexcept {
    return (2 * pin + idx(out)) * causes + (causes - 1) * idx(in);
  }

  double arrival(netlist::NodeId n, Edge e) const {
    return arrival_ps[static_cast<std::size_t>(n)][idx(e)];
  }
  double slew(netlist::NodeId n, Edge e) const {
    return slew_ps[static_cast<std::size_t>(n)][idx(e)];
  }
};

class IncrementalSta;

/// Query contract: the backward queries (k_critical_paths,
/// downstream_delays, required_times, slacks) read the arc delays recorded
/// in their `result` argument and never call the delay model, so they see
/// the drives, loads and Vt classes of the netlist as it was timed. A
/// StaResult is therefore valid only until the next netlist edit; after
/// one, call run() again (or IncrementalSta::update) before querying.
///
/// Every graph walk reads a node through the netlist's dense class bytes
/// (Netlist::classes(): cell kind, PI and PO flags) and the analyzer's own
/// per-kind arc table, built from the library once per Sta; only the
/// delay-model evaluation in compute_node reads the Node record (fanins,
/// Vt class) and the library cell. Cold runs and IncrementalSta share
/// these kernels, so both produce the same bits.
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

  /// The arc shape of one cell kind: its arity, and whether its out-edges
  /// each have both in-edges as causes (XOR/XNOR) or one, flipped when the
  /// cell inverts. Indexed by the kind bits of a NodeClass.
  struct KindArcs {
    std::uint8_t fanin = 0;
    bool non_unate = false;
    bool inverting = false;
  };
  static KindArcs arcs_for(const liberty::Cell& cell);
  const KindArcs& arcs_of(netlist::NodeClass c) const noexcept {
    return arcs_of_[c & netlist::kClassKind];
  }
  static std::span<const Edge> causes(const KindArcs& k, Edge out);
  /// Calls fn(out, in, slot) for every arc of pin `pin` of a `k` cell, in
  /// causes() order (out-edge major, Rise first), with its
  /// StaResult::arc_slot: the per-fanout loop of the backward kernels.
  template <class Fn>
  static void for_each_arc(const KindArcs& k, std::size_t pin, Fn&& fn);

  /// Recompute arcs/slew/arrival/prev of gate `id` (both edges) from the
  /// netlist and the fanin values in `r` — the per-node kernel of run(),
  /// and the only place the delay model is evaluated. Deterministic in its
  /// inputs, so replaying it on an unchanged neighbourhood is
  /// bit-identical.
  void compute_node(netlist::NodeId id, StaResult& r) const;

  /// Recompute arrival/prev of gate `id` by max-plus over its recorded
  /// arcs and fanins and the fanin arrivals in `r`, without the delay
  /// model — the same max-plus compute_node ends with, so bit-identical to
  /// it whenever the arcs are current (no fanin slew, and none of the
  /// gate's own loads, cell, Vt class or fanins, changed since `id` was
  /// last computed).
  void compute_arrival(netlist::NodeId id, StaResult& r) const;

  /// Downstream longest delay of both vertices of `id` (index with
  /// StaResult::idx) from its fanouts' `down` values — the per-node kernel
  /// of downstream_delays().
  std::array<double, 2> compute_down(netlist::NodeId id,
                                     const StaResult& result,
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

  const netlist::Netlist* nl_;
  const DelayModel* dm_;
  StaOptions opt_;
  std::array<KindArcs, netlist::kClassKind + 1> arcs_of_{};
};

}  // namespace pops::timing
