#pragma once
// Functional (zero-delay) logic simulation over a Netlist.
//
// Three uses in this reproduction:
//  1. equivalence checking — De Morgan restructuring (paper §4.2) must not
//     change the logic function; `equivalent()` proves it exhaustively for
//     small PI counts and by dense random vectors otherwise;
//  2. switching-activity estimation for the dynamic-power report
//     (the paper uses ΣW as the power proxy; we additionally report
//     alpha*C*VDD^2 power with simulated activities);
//  3. benchmark sanity tests.
//
// Uses 1 and 2 run on a word-parallel kernel that packs 64 input vectors
// into the lanes of one std::uint64_t per node (Cell::eval_word);
// LogicSimulator is the one-vector scalar evaluator, and the reference the
// kernel is tested against.

#include <vector>

#include "pops/netlist/netlist.hpp"
#include "pops/util/rng.hpp"

namespace pops::netlist {

/// Zero-delay evaluator. Holds only a pointer; the netlist must outlive it.
class LogicSimulator {
 public:
  explicit LogicSimulator(const Netlist& nl) : nl_(&nl) {}

  /// Evaluate every node. `pi_values[i]` is the value of `nl.inputs()[i]`.
  /// Returns a value per NodeId. Throws on PI-count mismatch.
  std::vector<bool> eval_all(const std::vector<bool>& pi_values) const;

  /// Evaluate and return the values of the primary outputs, in
  /// `nl.outputs()` order.
  std::vector<bool> eval_outputs(const std::vector<bool>& pi_values) const;

 private:
  const Netlist* nl_;
};

/// Functional equivalence of two netlists with identical PI/PO name sets
/// (matched by name, so gate-level rewrites in between are fine).
/// Exhaustive when the PI count is at most `exhaustive_limit` (default 14,
/// i.e. <= 16384 vectors); otherwise `n_random_vectors` random vectors,
/// drawn vector-major (all PIs of vector 0, then vector 1, ...) from `rng`.
/// On a mismatch the draws may run on to the end of the failing vector's
/// 64-vector word. Throws std::invalid_argument if the interfaces do not
/// match, if `exhaustive_limit` is outside [0, 63] or if
/// `n_random_vectors` is not positive.
bool equivalent(const Netlist& a, const Netlist& b, util::Rng& rng,
                int n_random_vectors = 512, int exhaustive_limit = 14);

/// Per-node toggle rates from random-vector simulation plus the aggregate
/// switched capacitance; feeds the dynamic power estimate.
struct ActivityReport {
  /// Per node: fraction of consecutive vector pairs on which it toggles.
  std::vector<double> toggle_rate;
  /// Fraction of vectors on which the node evaluates to 1 (static "ones
  /// probability"); weights the state-dependent leakage model — a CMOS
  /// gate's N network leaks while the output is high, the P network while
  /// it is low.
  std::vector<double> p_one;
  double switched_cap_ff_per_vec = 0.0; ///< sum(load_ff * toggle_rate)
};

/// Simulate `n_vectors` uniform random vectors and measure node toggle
/// rates (fraction of consecutive vector pairs where the node flips).
/// The vectors are drawn vector-major, one rng.bernoulli(0.5) per PI, so
/// the report is a function of the rng state alone, not of the lane
/// packing. Throws std::invalid_argument if `n_vectors` < 2.
ActivityReport estimate_activity(const Netlist& nl, util::Rng& rng,
                                 int n_vectors = 1024);

}  // namespace pops::netlist
