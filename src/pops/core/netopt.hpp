#pragma once
// Netlist-level optimisation passes.
//
// The path-at-a-time protocol (protocol.hpp) sizes gates; these passes
// perform the *structural* half of the job on the whole netlist, with
// functional equivalence guaranteed (and tested exhaustively):
//
//  * cancel_inverter_pairs — peephole: a chain INV(INV(x)) is rewired so
//    the second inverter's sinks read x directly. De Morgan rewrites
//    (restructure.hpp) create such pairs by design; this pass absorbs
//    them, completing §4.2's "the necessary inverters used to conserve
//    the logic function".
//  * sweep_dead — remove logic with no transitive fanout to any primary
//    output (rewrites leave such residue; real netlists should not carry
//    it into area/power accounting). Netlist::compact does it in place.
//  * shield_high_fanout_nets — the Flimit metric applied circuit-wide:
//    each net whose fanout exceeds the limit of its weakest (driver,
//    sink) pair gets a buffer that takes over every sink except the most
//    timing-critical one, unloading the critical path (the netlist-level
//    counterpart of the path shield in buffer.hpp).

#include <cstddef>
#include <vector>

#include "pops/core/buffer.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/timing/delay_model.hpp"

namespace pops::timing {
class IncrementalSta;
}

namespace pops::core {

/// Rewire sinks of INV(INV(x)) to x. Does not delete the bypassed
/// inverters (run sweep_dead afterwards); never bypasses a primary
/// output's defining gate. Returns the number of sink rewires performed.
/// When `dirty` is non-null, every node touched by a rewire (the repointed
/// sink, the bypassed inverter, the new driver) is appended to it —
/// exactly the IncrementalSta dirty-set contract, so a caller sharing a
/// timing engine can `update(dirty, true)` instead of re-running cold.
std::size_t cancel_inverter_pairs(netlist::Netlist& nl,
                                  std::vector<netlist::NodeId>* dirty =
                                      nullptr);

/// A copy of the netlist without gates that cannot reach any primary
/// output, renumbered by Netlist::compact() (the in-place form). Primary
/// inputs are always preserved (they are the interface). Names, drives,
/// wire loads, Vt classes and PO annotations survive.
netlist::Netlist sweep_dead(const netlist::Netlist& nl);

/// Options for the circuit-wide shielding pass.
struct ShieldOptions {
  double margin = 1.0;        ///< flag nets with F > margin * Flimit
  std::size_t max_buffers = 64;  ///< insertion budget
  /// Buffer drive rule: the shield drives its sinks at about this fanout.
  double shield_fanout = 4.0;
};

/// Result summary of shield_high_fanout_nets.
struct ShieldReport {
  std::size_t buffers_inserted = 0;
  double area_added_um = 0.0;
  double delay_before_ps = 0.0;
  double delay_after_ps = 0.0;
};

/// Insert shield buffers on overloaded nets, keeping the most
/// timing-critical sink directly driven. Non-inverting buffers only, so
/// the function is untouched. Nets are processed worst-overload-first.
///
/// `shared` (optional) is a caller-owned timing engine over `nl` to reuse
/// instead of building a private one: an existing result is taken as-is
/// (no cold re-run — the caller vouches it is current), every buffer
/// insertion is reported through update(), and the maintained state stays
/// valid for the caller's subsequent passes. Its StaOptions are the
/// caller's choice; the private engine uses defaults.
///
/// The timing-critical sink of each net is chosen by slack against the
/// circuit's *current* critical delay — the pass's historical definition,
/// preserved bit for bit (pinning one tc for the whole pass would be
/// equivalent in exact arithmetic, since shifting tc moves every required
/// time uniformly, but floating-point required-time propagation does not
/// shift exactly and near-tied sinks flip). The cost win comes from the
/// engine instead: each sink's slack is a sparse query
/// (IncrementalSta::slack) whose required times are stamped per tc and
/// repaired over dirty cones by update(), so a candidate computes only
/// the unstamped part of its sinks' fanout cones — after an insertion that
/// moved the critical delay, that part of the circuit, never all of it.
ShieldReport shield_high_fanout_nets(netlist::Netlist& nl,
                                     const timing::DelayModel& dm,
                                     const FlimitTable& table,
                                     const ShieldOptions& opt = {},
                                     timing::IncrementalSta* shared = nullptr);

}  // namespace pops::core
