#pragma once
// The optimization protocol — paper Fig. 7.
//
//   Library characterization (Flimit determination)
//   Characterisation of the optimization space:
//     - path classification
//     - delay bounds determination: Tmax, Tmin
//   Delay constraint Tc distribution:
//     - Tc <  Tmin                  -> structure modification (buffers,
//                                      then De Morgan restructuring)
//     - weak   (Tc > 2.5 Tmin)      -> gate sizing
//     - medium (1.2 Tmin < Tc < 2.5 Tmin) -> buffer insertion
//     - hard   (Tc < 1.2 Tmin)     -> buffer insertion & global sizing
//
// For the medium and hard domains the protocol evaluates the admissible
// alternatives and returns the smallest-area implementation that meets Tc
// (the paper's target: "delay constraint satisfaction at minimum area
// cost"). A circuit-level driver applies the protocol path-by-path over
// the K most critical paths, with iterative STA re-verification (gate
// sizing "may slow down adjacent upward paths", §1).

#include <string>
#include <vector>

#include "pops/core/bounds.hpp"
#include "pops/core/buffer.hpp"
#include "pops/core/restructure.hpp"
#include "pops/core/sensitivity.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/timing/sta.hpp"

namespace pops::core {

/// Relative tolerance under which a measured critical delay counts as
/// meeting Tc. One named constant shared by the ProtocolPass round loop,
/// the pipeline's `met` field and (through them) the sweep front-ends'
/// unmet counters — a point must never iterate as "violating" yet report
/// met=true, or vice versa at the boundary (pops_sweep's exit-2 contract
/// keys off `met`).
inline constexpr double kTcMetRelTol = 1e-4;

/// Whether `delay_ps` meets `tc_ps` within the shared tolerance.
constexpr bool tc_met(double delay_ps, double tc_ps) noexcept {
  return delay_ps <= tc_ps * (1.0 + kTcMetRelTol);
}

/// Where a constraint falls relative to the path's feasible range.
enum class ConstraintDomain { Infeasible, Hard, Medium, Weak };
const char* to_string(ConstraintDomain d) noexcept;

/// Which alternative the protocol settled on.
enum class Method {
  Sizing,              ///< constant-sensitivity sizing only
  LocalBufferSizing,   ///< locally sized buffers + sizing of the rest
  GlobalBufferSizing,  ///< buffers + global re-distribution of all stages
  Restructure,         ///< De Morgan rewrite + buffers + sizing
};
const char* to_string(Method m) noexcept;

struct ProtocolOptions {
  double hard_ratio = 1.2;  ///< Tc < hard_ratio*Tmin  -> hard
  double weak_ratio = 2.5;  ///< Tc > weak_ratio*Tmin  -> weak
  bool allow_restructuring = true;
  BoundsOptions bounds;
  SensitivityOptions sensitivity;

  /// Every violated invariant (hard_ratio < 1, or hard_ratio >=
  /// weak_ratio, which silently empties the Medium domain) plus the
  /// solver options' problems (prefixed "bounds." / "sensitivity."), as
  /// human-readable diagnostics. Empty when usable. Single source of
  /// truth shared with api::OptimizerConfig::validate.
  std::vector<std::string> problems() const;

  /// Throws std::invalid_argument listing the problems; no-op when valid.
  /// Called by every consumer.
  void validate() const;
};

/// Classify `tc` against `tmin` with the Fig. 6 thresholds.
ConstraintDomain classify_constraint(double tc_ps, double tmin_ps,
                                     const ProtocolOptions& opt = {});

/// The protocol's per-path decision: the Fig. 6 domain, the Fig. 7
/// method, the path's feasible range and what the method reached. This is
/// what a circuit run keeps of each path; the sized path itself lives
/// only as long as its sizes take to write back.
struct PathDecision {
  ConstraintDomain domain = ConstraintDomain::Weak;
  Method method = Method::Sizing;
  double tmin_ps = 0.0;   ///< of the *original* structure
  double tmax_ps = 0.0;
  double delay_ps = 0.0;  ///< delay of the chosen implementation
  double area_um = 0.0;   ///< its total area (ProtocolResult::total_area_um)
  std::size_t buffers_inserted = 0;
  std::size_t gates_restructured = 0;
};

/// Outcome of the protocol on one path.
struct ProtocolResult {
  /// SizingResult (and the BoundedPath inside it) has no empty state, so a
  /// ProtocolResult is seeded with an initial sizing that the protocol
  /// then replaces.
  explicit ProtocolResult(SizingResult seed) : sizing(std::move(seed)) {}

  ConstraintDomain domain = ConstraintDomain::Weak;
  Method method = Method::Sizing;
  SizingResult sizing;              ///< final sized path + delay/area
  double tmin_ps = 0.0;             ///< of the *original* structure
  double tmax_ps = 0.0;
  std::size_t buffers_inserted = 0;
  std::size_t gates_restructured = 0;
  double extra_area_um = 0.0;       ///< off-path inverters (restructuring)
  /// Total implementation area: path ΣW + off-path overhead.
  double total_area_um() const { return sizing.area_um + extra_area_um; }
  /// The decision a circuit run keeps of this path.
  PathDecision decision() const {
    return {domain, method, tmin_ps, tmax_ps, sizing.delay_ps,
            total_area_um(), buffers_inserted, gates_restructured};
  }
};

/// Run the Fig. 7 protocol on one bounded path.
ProtocolResult optimize_path(const timing::BoundedPath& path,
                             const timing::DelayModel& dm,
                             const FlimitTable& table, double tc_ps,
                             const ProtocolOptions& opt = {});

/// The Fig. 8 comparison: size the path with one *forced* method (no
/// selection), for the Sizing / Local Buff / Global Buff series.
SizingResult optimize_with_method(const timing::BoundedPath& path,
                                  const timing::DelayModel& dm,
                                  const FlimitTable& table, double tc_ps,
                                  Method method,
                                  const ProtocolOptions& opt = {});

/// Circuit-level outcome.
struct CircuitResult {
  double tc_ps = 0.0;
  double achieved_delay_ps = 0.0;   ///< STA critical delay after optimisation
  double area_um = 0.0;             ///< ΣW over the whole netlist
  bool met = false;
  std::size_t paths_optimized = 0;
  /// Rounds that evaluated paths (0 when the input already met Tc).
  /// Strictly less than max_rounds when a round's write-back moved no
  /// drive and no enumerated path was still below the tightening target
  /// — the loop stops instead of replaying identical rounds.
  std::size_t rounds = 0;
  std::vector<PathDecision> per_path;
};

struct CircuitOptions {
  std::size_t max_paths = 24;   ///< K most critical paths per round
  int max_rounds = 6;           ///< STA re-verification rounds
  /// Per-path constraint tightening: paths are optimised to margin*Tc so
  /// that the off-path loading changes caused by resizing *other* paths
  /// (the interaction of §1: sizing "may slow down adjacent upward paths")
  /// still leave the circuit under Tc at re-verification.
  double tc_margin = 0.97;
  ProtocolOptions protocol;
  double pi_slew_ps = -1.0;     ///< forwarded to STA

  /// Every violated driver invariant (max_paths == 0, max_rounds <= 0,
  /// tc_margin outside (0,1]) plus protocol.problems().
  std::vector<std::string> problems() const;

  /// Throws std::invalid_argument listing the problems; no-op when valid.
  void validate() const;
};

}  // namespace pops::core
