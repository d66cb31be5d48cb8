#pragma once
// Incremental static timing analysis.
//
// The Fig. 7 protocol re-verifies circuit timing after every path-sizing
// round, and the shield pass re-runs STA after every inserted buffer; on
// big netlists those full O(E) re-runs dominate pipeline cost (the
// ROADMAP's "Batch STA" item). A sizing round, however, only touches a
// handful of gates, and timing changes propagate from exactly two places:
//
//   * forward  — arrivals/slews of the resized gates, their fanin drivers
//     (whose load includes the resized input capacitance), and the fanout
//     cone of whatever actually moved;
//   * backward — the "downstream longest delay" bound values that the
//     K-critical-paths enumeration prunes with, over the fan-in cone of
//     the same neighbourhood.
//
// IncrementalSta keeps the last StaResult (arrivals, slews, recorded arc
// delays, `prev` backtracking state) plus the downstream bound vector alive
// between rounds, accepts the set of nodes whose sizes/loads/structure
// changed, and repropagates only the affected cones — with results
// **bit-identical** to a cold Sta::run() / Sta::downstream_delays().
//
// The forward pass evaluates the delay model only where an arc can move.
// A stage's arcs read its own loads, cell and Vt plus one fanin slew each,
// and its slew reads only its own stage (eq. 1-3), so arcs and slews move
// only at the seeds (dirty ∪ fanins(dirty)) and at fanouts of a node whose
// slew moved: those replay Sta::compute_node. Every other node in the
// cone only sees a fanin arrival move and is re-timed by
// Sta::compute_arrival, max-plus over its recorded arcs without the model
// (counters `sta.nodes_full` / `sta.nodes_arrival_only`). The PO scan for
// the critical delay runs only when a seed or an arrival-changed node is a
// PO, or the structure changed. When the seeds are at least a sixteenth
// of the netlist (a multi-Vt run of flips), the forward pass walks the
// engine's topological order once instead of its heap, visiting the same
// nodes in the same order. The backward kernels read the recorded arcs
// too. Each kernel performs the same operations in the same operand
// order as the cold sweep, and nodes whose inputs are provably untouched
// are skipped; the identity is assert-checked against a cold run in debug
// builds and fuzz-proven in tests/test_incremental_sta.cpp under both
// delay-model backends.
//
// An update costs work in proportion to the edit, structural edits
// included:
//
//   * Topological order — the engine keeps its own, as gap-numbered
//     positions (any order with fanin < node < fanout is as good as the
//     netlist's Kahn order: each kernel reads only finalized neighbours).
//     An appended node is placed between its highest fanin and its lowest
//     fanout; only a dirty node whose fanin/fanout order is violated, or a
//     used-up gap, renumbers everything (counter `sta.order_rebuilds`).
//   * Required times / slacks — repaired only when read. update() records
//     its backward seeds and arrival-changed nodes; slacks(),
//     required_times() and check_against_full() fold every pending update
//     into one reverse-topological pass (span `sta/slack_update`, arg
//     `updates`). A query at a new tc re-materializes and drops them.
//
// Dirty-set contract (see update()): the caller lists every node whose
//   * drive (size) changed,
//   * fanin list changed (rewired sinks),
//   * fanout set changed (a driver whose sinks were captured by a buffer),
//   * wire cap / PO-load / PO-flag changed, or
//   * that was newly appended (inserted buffers).
// IncrementalSta expands the set with the fanin drivers itself. Edits
// that remove or renumber nodes go through Netlist::compact() and then
// compact() here, which carries the maintained state over to the new ids
// and re-times the drivers whose load sums moved.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "pops/netlist/netlist.hpp"
#include "pops/timing/sta.hpp"

namespace pops::timing {

class IncrementalSta {
 public:
  IncrementalSta(const netlist::Netlist& nl, const DelayModel& dm,
                 StaOptions opt = {});

  /// Cold full propagation (exactly Sta::run; the downstream bounds are
  /// materialized on their first query); resets all incremental state.
  /// The returned reference stays valid — and is kept current — across
  /// subsequent update() calls.
  const StaResult& run_full();

  /// Re-propagate after netlist edits. `dirty` lists the changed nodes
  /// (see the dirty-set contract above; duplicates and PIs are fine).
  /// `structure_changed` must be true when connectivity changed (inserted
  /// buffers, rewired fanins) so the engine's topological positions are
  /// checked and patched around the dirty nodes; pure resizes may leave
  /// it false. Runs run_full() when no result exists yet.
  const StaResult& update(std::span<const netlist::NodeId> dirty,
                          bool structure_changed = false);

  /// Follow an in-place Netlist::compact() of the analyzed netlist:
  /// `remap` is the old -> new id map it returned and `seeds` the nodes it
  /// reported as reloaded (new ids). Carries the recorded slews and arcs
  /// over to the new ids, drops the lazy bounds and slacks (re-materialized
  /// on their next query) and re-times in one sweep over the new ids, which
  /// compact() made topological: the delay model runs at the seeds and at
  /// fanouts of a node whose slew moved, every other gate re-derives its
  /// arrival from its recorded arcs. Bit-identical to run_full() on the
  /// compacted netlist. An identity map changes nothing; any other map
  /// moves revision(), with or without a result.
  void compact(std::span<const netlist::NodeId> remap,
               std::span<const netlist::NodeId> seeds);

  /// Drop all maintained state: the next update()/result-producing query
  /// falls back to a cold run_full(). For edits outside the dirty-set
  /// contract and compact(), and for rebinding the engine to a rebuilt
  /// netlist at the same address.
  void invalidate() noexcept;

  /// Monotone counter bumped by run_full()/update()/compact()/invalidate().
  /// Lets an owner sharing this engine across passes detect whether a pass
  /// reported its edits (revision moved) or left the engine stale.
  std::uint64_t revision() const noexcept { return revision_; }

  /// The maintained result. Throws std::logic_error before the first run.
  const StaResult& result() const;
  bool has_result() const noexcept { return valid_; }

  /// The downstream bound vector, == Sta::downstream_delays(result())
  /// (vertex = 2*node + StaResult::idx(edge)). Computed lazily on the
  /// first query — consumers that never enumerate paths (the shield
  /// pass, initial-delay measurements) skip the O(E) bound sweep — and
  /// maintained incrementally by update() from then on.
  const std::vector<double>& downstream() const;

  // ----- queries over the maintained state ------------------------------------

  TimedPath critical_path() const { return sta_.critical_path(result()); }

  /// K-critical-paths enumeration reusing the maintained downstream
  /// values, gated against re-enumeration: the previous path list is
  /// replayed verbatim when no update()/run_full() intervened and the
  /// same k is requested. The gate is exact, not heuristic — between
  /// reports the netlist is untouched by the dirty-set contract, and any
  /// reported edit can move an enumeration edge weight (through a sink's
  /// arcs) even when every maintained arrival/slew/bound stayed
  /// bit-identical, so "a report happened" is the precise invalidation
  /// condition. The returned reference stays valid (and untouched)
  /// across update() calls; the next actual enumeration overwrites it.
  const std::vector<TimedPath>& k_critical_paths(std::size_t k) const;

  /// Per-node slacks against `tc_ps`, == Sta::slacks(result(), tc_ps)
  /// bitwise. The first query (or a query at a different tc) materializes
  /// required times + slacks with one full backward sweep; afterwards a
  /// query at the same tc repairs both over the dirty cones of the
  /// updates since the last query only, so per-candidate queries in the
  /// shield pass cost O(dirty cone) instead of O(E), and updates nobody
  /// queries after (the multi-Vt walk) cost no backward work at all.
  const std::vector<double>& slacks(double tc_ps) const;

  /// The maintained required-time vector backing slacks(tc_ps), ==
  /// Sta::required_times(result(), tc_ps) bitwise (same materialization
  /// and repair as slacks()).
  const std::vector<std::array<double, 2>>& required_times(
      double tc_ps) const;

  /// The underlying (stateless) analyzer, for queries not wrapped above.
  const Sta& sta() const noexcept { return sta_; }

  // ----- verification ---------------------------------------------------------

  /// Compare the maintained state against a cold Sta::run() +
  /// downstream_delays(); throws std::logic_error on any bitwise
  /// difference. Pending slack repairs are flushed first. update() calls
  /// this automatically in debug builds (NDEBUG off); fuzz tests call it
  /// explicitly in release builds.
  void check_against_full() const;

 private:
  using Pos = std::pair<std::uint64_t, netlist::NodeId>;

  void rebuild_positions();
  bool patch_positions(std::size_t old_n,
                       std::span<const netlist::NodeId> dirty);
  const std::vector<netlist::NodeId>& order() const;
  void grow_arrays(std::size_t n);
  void materialize_slacks(double tc_ps) const;
  void flush_slacks() const;
  void drop_pending() const;

  const netlist::Netlist* nl_;
  const DelayModel* dm_;
  Sta sta_;
  double pi_slew_ps_;

  StaResult res_;
  // Lazily materialized on the first downstream() query (mutable: the
  // query is logically const). Single-threaded by design, like Netlist's
  // lazy caches.
  mutable std::vector<double> down_;
  mutable bool down_valid_ = false;

  // Required times + slacks, lazily materialized by the first
  // slacks()/required_times() query and keyed on the tc bit pattern (a
  // different tc re-materializes); repaired by flush_slacks() while valid.
  mutable std::vector<std::array<double, 2>> req_;
  mutable std::vector<double> slack_;
  mutable bool slack_valid_ = false;
  mutable double slack_tc_ps_ = 0.0;

  // Backward work recorded by update() while the slacks are valid and not
  // yet flushed: required-time seeds and arrival-changed nodes, each
  // listed once (pend_mark_ bit 1 / bit 2).
  mutable std::vector<netlist::NodeId> pend_req_;
  mutable std::vector<netlist::NodeId> pend_arrival_;
  mutable std::vector<std::uint8_t> pend_mark_;
  mutable std::size_t pend_updates_ = 0;

  // Last enumeration, replayed while no update()/run_full() intervenes
  // (see k_critical_paths).
  mutable std::vector<TimedPath> paths_;
  mutable std::size_t paths_k_ = 0;
  mutable bool paths_valid_ = false;

  // The engine's topological order: every edge goes from a lower to a
  // higher position. order_ lists the nodes ascending by (position, id)
  // once the nodes placed since the last full sweep (order_tail_) are
  // merged in — done by order(), i.e. only when a full sweep walks it.
  std::vector<std::uint64_t> pos_;
  mutable std::vector<netlist::NodeId> order_;
  mutable std::vector<netlist::NodeId> order_tail_;

  // Scratch, reused across updates so an update allocates nothing once
  // warm. in_heap_ (queued for a forward or backward visit) and mark_
  // (kSeed / kSlewIn bits, see update()) are all-zero between calls.
  mutable std::vector<char> in_heap_;
  std::vector<std::uint8_t> mark_;
  std::vector<netlist::NodeId> seeds_;
  std::vector<netlist::NodeId> slew_changed_;
  std::vector<netlist::NodeId> arrival_changed_;
  std::priority_queue<Pos, std::vector<Pos>, std::greater<Pos>> fwd_;

  bool valid_ = false;
  std::uint64_t revision_ = 0;
};

}  // namespace pops::timing
