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
// IncrementalSta keeps the last StaResult (arrivals, slews, stage loads,
// `prev` backtracking state) plus the downstream bound vector alive between
// rounds, accepts the set of nodes whose sizes/loads/structure changed,
// and repropagates only the affected cones — with results **bit-identical**
// to a cold Sta::run() / Sta::downstream_delays(). Identity holds because
// update() replays the exact per-node kernels of Sta (compute_node /
// compute_down: same operations, same operand order) on neighbourhoods
// whose inputs changed, and skips nodes whose inputs are provably
// untouched; it is assert-checked against a cold run in debug builds and
// fuzz-proven in tests/test_incremental_sta.cpp under both delay-model
// backends.
//
// Dirty-set contract (see update()): the caller lists every node whose
//   * drive (size) changed,
//   * fanin list changed (rewired sinks),
//   * fanout set changed (a driver whose sinks were captured by a buffer),
//   * wire cap / PO-load / PO-flag changed, or
//   * that was newly appended (inserted buffers).
// IncrementalSta expands the set with the fanin drivers itself; edits
// that renumber or remove nodes (sweep_dead rebuilds) need a fresh
// run_full().

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
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
  /// buffers, rewired fanins) so the cached topological positions are
  /// refreshed; pure resizes may leave it false. Runs run_full() when no
  /// result exists yet.
  const StaResult& update(std::span<const netlist::NodeId> dirty,
                          bool structure_changed = false);

  /// Drop all maintained state: the next update()/result-producing query
  /// falls back to a cold run_full(). For edits outside the dirty-set
  /// contract (sweep_dead renumbers ids) and for rebinding the engine to
  /// a rebuilt netlist at the same address.
  void invalidate() noexcept;

  /// Monotone counter bumped by run_full()/update()/invalidate(). Lets an
  /// owner sharing this engine across passes detect whether a pass
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
  /// cin/cload) even when every maintained arrival/slew/bound stayed
  /// bit-identical, so "a report happened" is the precise invalidation
  /// condition. The returned reference stays valid (and untouched)
  /// across update() calls; the next actual enumeration overwrites it.
  const std::vector<TimedPath>& k_critical_paths(std::size_t k) const;

  /// Per-node slacks against `tc_ps`, == Sta::slacks(result(), tc_ps)
  /// bitwise. The first query (or a query at a different tc) materializes
  /// required times + slacks with one full backward sweep; afterwards
  /// update() maintains both over dirty cones only, so per-candidate
  /// queries in the shield pass cost O(dirty cone) instead of O(E).
  const std::vector<double>& slacks(double tc_ps) const;

  /// The maintained required-time vector backing slacks(tc_ps), ==
  /// Sta::required_times(result(), tc_ps) bitwise (same materialization
  /// and maintenance as slacks()).
  const std::vector<std::array<double, 2>>& required_times(
      double tc_ps) const;

  /// The underlying (stateless) analyzer, for queries not wrapped above.
  const Sta& sta() const noexcept { return sta_; }

  // ----- verification ---------------------------------------------------------

  /// Compare the maintained state against a cold Sta::run() +
  /// downstream_delays(); throws std::logic_error on any bitwise
  /// difference. update() calls this automatically in debug builds
  /// (NDEBUG off); fuzz tests call it explicitly in release builds.
  void check_against_full() const;

 private:
  void rebuild_positions();
  void grow_arrays(std::size_t n);
  void materialize_slacks(double tc_ps) const;

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
  // different tc re-materializes); maintained by update() while valid.
  mutable std::vector<std::array<double, 2>> req_;
  mutable std::vector<double> slack_;
  mutable bool slack_valid_ = false;
  mutable double slack_tc_ps_ = 0.0;

  // Last enumeration, replayed while no update()/run_full() intervenes
  // (see k_critical_paths).
  mutable std::vector<TimedPath> paths_;
  mutable std::size_t paths_k_ = 0;
  mutable bool paths_valid_ = false;

  std::vector<std::size_t> topo_pos_;  ///< node -> position in topo order
  bool positions_valid_ = false;       ///< rebuilt by the first update()

  // Scratch, reused across updates (all-false between calls); sized
  // together with topo_pos_.
  std::vector<char> in_heap_;
  std::vector<char> seed_mark_;

  bool valid_ = false;
  std::uint64_t revision_ = 0;
};

}  // namespace pops::timing
