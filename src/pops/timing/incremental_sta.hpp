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
// PO, or the structure changed. The forward pass drains a heap while the
// nodes it has queued stay within a sixty-fourth of the netlist; a cone
// that outgrows that (a multi-Vt run of flips from the start, a shield
// buffer that moves a critical arrival on the way) finishes as one walk
// of the engine's topological order from the heap's least entry,
// visiting the same nodes in the same order. The backward kernels read
// the recorded arcs too. Each kernel performs the same operations in the same operand
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
//   * Required times / slacks — computed on demand, per node. A node's
//     required times carry a validity stamp for the tc they were computed
//     at; the stamped set is closed under fanout. slack(id, tc) computes
//     only the unstamped part of id's fanout cone, in post-order (span
//     `sta/required_cone`, counter `sta.required_nodes`); slacks() and
//     required_times() demand every node (span `sta/slack_full`). A new
//     tc starts a new stamp epoch in O(1). update() records its backward
//     seeds; the next query folds every pending update into one
//     reverse-topological pass over stamped nodes only (span
//     `sta/slack_update`, arg `updates`), which re-stamps what it repairs
//     and un-stamps a node whose fanout lost its stamp — a fanin walk
//     stops at the first unstamped node.
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
  /// over to the new ids, drops the lazy bounds (re-materialized on their
  /// next query) and every required-time stamp (a new epoch; queries
  /// recompute what they read), and re-times in one sweep over the new
  /// ids, which compact() made topological: the delay model runs at the
  /// seeds and at fanouts of a node whose slew moved, every other gate
  /// re-derives its arrival from its recorded arcs. Bit-identical to
  /// run_full() on the compacted netlist. An identity map changes nothing;
  /// any other map moves revision(), with or without a result.
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

  /// Slack of one node against `tc_ps`, == Sta::slacks(result(),
  /// tc_ps)[id] bitwise. Computes the required times of only the
  /// unstamped nodes in id's transitive fanout, so a query costs the part
  /// of that cone no earlier query at the same tc already holds (after
  /// repairing the updates since the last query), never a whole-circuit
  /// sweep.
  double slack(netlist::NodeId id, double tc_ps) const;

  /// Per-node slacks against `tc_ps`, == Sta::slacks(result(), tc_ps)
  /// bitwise: demands every node's required times (only the unstamped
  /// ones are computed) and derives all n slacks. For consumers that read
  /// the whole vector once (the multi-Vt pass); per-node readers use
  /// slack(). Updates nobody queries after cost no backward work.
  const std::vector<double>& slacks(double tc_ps) const;

  /// The required-time vector backing slacks(tc_ps), ==
  /// Sta::required_times(result(), tc_ps) bitwise; every node demanded as
  /// in slacks().
  const std::vector<std::array<double, 2>>& required_times(
      double tc_ps) const;

  /// The underlying (stateless) analyzer, for queries not wrapped above.
  const Sta& sta() const noexcept { return sta_; }

  // ----- verification ---------------------------------------------------------

  /// Compare the maintained state against a cold Sta::run() +
  /// downstream_delays() and every stamped required time against
  /// Sta::required_times() at their tc; throws std::logic_error on any
  /// bitwise difference or a stamped node with an unstamped fanout.
  /// Pending required-time repairs are flushed first. update() calls
  /// this automatically in debug builds (NDEBUG off); fuzz tests call it
  /// explicitly in release builds.
  void check_against_full() const;

 private:
  using Pos = std::pair<std::uint64_t, netlist::NodeId>;

  void rebuild_positions();
  bool patch_positions(std::size_t old_n,
                       std::span<const netlist::NodeId> dirty);
  const std::vector<netlist::NodeId>& order() const;
  /// (position, id) order: the order of order() and of the forward heap.
  bool before(netlist::NodeId a, netlist::NodeId b) const noexcept;
  void grow_arrays(std::size_t n);
  bool stamped(netlist::NodeId id) const noexcept {
    return req_stamp_[static_cast<std::size_t>(id)] == req_epoch_;
  }
  void select_tc(double tc_ps) const;
  void drop_required() const;
  void repair_required() const;
  std::size_t demand_required(netlist::NodeId root) const;
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

  // Required times on demand: req_[i] holds node i's values at
  // req_tc_ps_ iff req_stamp_[i] == req_epoch_ (see stamped()). The
  // stamped set is closed under fanout. A different tc (or any event that
  // voids every value) moves to a fresh epoch; req_any_ tells whether the
  // current epoch stamped anything. slack_ backs slacks().
  mutable std::vector<std::array<double, 2>> req_;
  mutable std::vector<std::uint32_t> req_stamp_;
  mutable std::uint32_t req_epoch_ = 1;
  mutable double req_tc_ps_ = 0.0;
  mutable bool req_any_ = false;
  mutable std::vector<double> slack_;
  // demand_required()'s post-order walk: a node and its fanouts not yet
  // seen stamped (a view of the netlist's list, which no query edits).
  struct DfsFrame {
    netlist::NodeId id;
    const netlist::NodeId* next;
    const netlist::NodeId* end;
  };
  mutable std::vector<DfsFrame> dfs_;

  // Required-time seeds recorded by update() while some node is stamped,
  // not yet repaired; each listed once (pend_mark_).
  mutable std::vector<netlist::NodeId> pend_req_;
  mutable std::vector<std::uint8_t> pend_mark_;
  mutable std::size_t pend_updates_ = 0;

  // Last enumeration, replayed while no update()/run_full() intervenes
  // (see k_critical_paths).
  mutable std::vector<TimedPath> paths_;
  mutable std::size_t paths_k_ = 0;
  mutable bool paths_valid_ = false;

  // The engine's topological order: every edge goes from a lower to a
  // higher position. order_ lists the nodes ascending by (position, id)
  // once the nodes placed since the last walk (order_tail_) are merged in
  // — done by order(), i.e. only when a sweep or a forward pass walks it.
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
  std::vector<Pos> fwd_;  // min-heap (std::greater) of queued nodes

  bool valid_ = false;
  std::uint64_t revision_ = 0;
};

}  // namespace pops::timing
