#pragma once
// Path delay bounds — paper §3.1 ("Constraint feasibility").
//
//   Tmax: the pseudo-upper bound at minimum area — every free gate at the
//         minimum available drive (CREF).
//   Tmin: the minimum achievable delay on the bounded path, obtained by
//         cancelling dT/dCIN(i), which yields the link equations (eq. 4)
//
//           CIN(i)^2 = (A_i / A_(i-1)) * CIN(i-1) * (Coff(i) + CIN(i+1))
//
//         solved by the paper's scheme: a backward initial pass that sets
//         each CIN(i) from eq. (4) with CIN(i-1) := CREF, followed by
//         fixed-point sweeps until convergence. The fixed point is
//         independent of the starting CREF scale (verified in tests and
//         illustrated by Fig. 1).
//
// The A_i are re-evaluated from the current sizes between sweeps (they
// absorb the Miller and slope coefficients of eq. 1-2, which vary slowly).

#include <string>
#include <vector>

#include "pops/timing/delay_model.hpp"
#include "pops/timing/path.hpp"

namespace pops::core {

/// Knobs for the fixed-point solver.
struct BoundsOptions {
  int max_sweeps = 800;          ///< fixed-point sweep budget (each is O(N))
  double tol = 1e-7;             ///< max relative CIN change to declare converged
  double init_scale = 1.0;       ///< CREF multiplier for the initial pass
                                 ///< (Fig. 1 explores several; Tmin must not move)

  /// Every violated invariant as a human-readable diagnostic; empty when
  /// usable. Folded into ProtocolOptions::problems().
  std::vector<std::string> problems() const;

  /// Throws std::invalid_argument listing the problems; no-op when valid.
  void validate() const;
};

/// Throws std::invalid_argument listing `problems` (one per line); no-op
/// when empty. The shared tail of every core options validate().
void throw_if_any(const std::vector<std::string>& problems);

/// One row per fixed-point sweep — the data behind Fig. 1.
struct IterationTrace {
  std::vector<double> delay_ps;         ///< path delay after each sweep
  std::vector<double> normalized_size;  ///< ΣCIN/CREF after each sweep
};

/// The feasibility envelope of a path.
struct PathBounds {
  double tmin_ps = 0.0;
  double tmax_ps = 0.0;
  int sweeps = 0;             ///< sweeps used to converge Tmin
  timing::BoundedPath at_tmin;   ///< sizing realising Tmin
  timing::BoundedPath at_tmax;   ///< sizing realising Tmax (all CREF)
};

/// Path delay with every free stage at minimum drive (Tmax, §3.1).
double tmax_ps(timing::BoundedPath path, const timing::DelayModel& dm);

/// Solve the link equations (eq. 4) for the Tmin sizing.
/// If `trace` is non-null, appends one entry per sweep (sweep 0 = the
/// backward initial solution). `sweeps_used` receives the number of
/// fixed-point sweeps run (at most opt.max_sweeps; the backward initial
/// pass is not a sweep), counted as size_at_sensitivity counts them.
timing::BoundedPath size_for_tmin(timing::BoundedPath path,
                                  const timing::DelayModel& dm,
                                  const BoundsOptions& opt = {},
                                  IterationTrace* trace = nullptr,
                                  int* sweeps_used = nullptr);

/// Compute both bounds.
PathBounds compute_bounds(const timing::BoundedPath& path,
                          const timing::DelayModel& dm,
                          const BoundsOptions& opt = {},
                          IterationTrace* trace = nullptr);

}  // namespace pops::core
