#pragma once
// The constant sensitivity method — paper §3.2 ("Constraint distribution").
//
// Impose the same delay sensitivity on every free gate of the path:
//
//     dT/dCIN(i) = a        for all i,  a <= 0            (eq. 5)
//
// which expands (eq. 6) to the chain
//
//     A_(i-1)/CIN(i-1) - A_i * (Coff(i) + CIN(i+1)) / CIN(i)^2 = a
//
// solved here by Gauss-Seidel sweeps of
//
//     CIN(i) <- sqrt( A_i * (Coff(i)+CIN(i+1)) / (A_(i-1)/CIN(i-1) - a) ).
//
// a = 0 reproduces the Tmin link equations; decreasing a walks the
// delay/area trade-off curve (Fig. 3) down to a_floor, the sensitivity at
// which every free stage clamps to minimum drive (the Tmax sizing). Both
// ends of T(a) are therefore known up front: T(a_floor) = Tmax needs no
// solve, and T(0) = Tmin is the bounds' fixed point (a caller passing
// PathBounds::at_tmin re-checks it in a sweep or two). Meeting a delay
// constraint Tc at minimum area (the paper's claim, backed by the
// convexity of the bounded-path delay) is a root search for T(a) = Tc
// inside [a_floor, 0]: a safeguarded regula falsi with the Illinois
// modification, interpolating in log(-a) once the feasible end has left
// a = 0. Each solve warm-starts from the previous one.
//
// The Sutherland / logical-effort *equal effort-delay* distribution
// (ref [4] of the paper) is provided as the comparison baseline: fast, but
// oversizes gates with a large logical weight.

#include <string>
#include <vector>

#include "pops/core/bounds.hpp"
#include "pops/timing/delay_model.hpp"
#include "pops/timing/path.hpp"

namespace pops::core {

/// Knobs for the sensitivity solver.
struct SensitivityOptions {
  int max_sweeps = 800;  ///< per solve; each sweep is O(N)
  double tol = 1e-7;
  /// Refinement solves on `a` when meeting a constraint (the cap of the
  /// regula-falsi search; the a = 0 solve is not counted).
  int max_bisect = 80;
  /// Constraint satisfaction tolerance, relative to Tc: a fit with
  /// delay in [Tc*(1 - tc_rel_tol), Tc] ends the search.
  double tc_rel_tol = 1e-4;

  /// Every violated invariant as a human-readable diagnostic; empty when
  /// usable. Folded into ProtocolOptions::problems().
  std::vector<std::string> problems() const;

  /// Throws std::invalid_argument listing the problems; no-op when valid.
  void validate() const;
};

/// Result of a constraint-distribution run.
struct SizingResult {
  timing::BoundedPath path;  ///< the sized path
  double delay_ps = 0.0;
  double area_um = 0.0;
  double a = 0.0;            ///< realised sensitivity coefficient
  bool feasible = false;     ///< Tc >= Tmin (met within tolerance)
  int sweeps = 0;            ///< total fixed-point sweeps spent
};

/// Size the path so every free gate sees sensitivity `a` (<= 0).
/// Starts from the provided sizing. Returns the converged path.
timing::BoundedPath size_at_sensitivity(timing::BoundedPath path,
                                        const timing::DelayModel& dm, double a,
                                        const SensitivityOptions& opt = {},
                                        int* sweeps_used = nullptr);

/// The sensitivity below which every free stage of the all-minimum sizing
/// clamps to minimum drive:
///
///   a_floor = min over sizable i of
///             A(i-1)/CIN(i-1) - A(i)*load(i)/CINmin(i)^2
///
/// evaluated on `path` with every free stage at minimum drive (frozen
/// stages keep their size). For a <= a_floor the all-minimum sizing is a
/// fixed point of the eq. (6) sweep, so T(a_floor) = Tmax. Never positive
/// (0 when no stage is free or the all-minimum sizing is already the Tmin
/// fixed point).
double sensitivity_floor(const timing::BoundedPath& path,
                         const timing::DelayModel& dm);

/// Meet delay constraint `tc_ps` at minimum area by a root search on `a`
/// inside [sensitivity_floor, 0]:
///  * Tc <= Tmin  -> returns the Tmin sizing with feasible=false;
///  * Tc >= Tmax  -> returns the all-minimum sizing (a -> -inf limit);
///  * otherwise   -> the smallest-area feasible fit found, within
///                   tc_rel_tol below Tc unless max_bisect runs out first.
/// The a = 0 solve starts from `path`'s sizes, so passing the Tmin sizing
/// (PathBounds::at_tmin) makes it converge in a sweep or two. Validates
/// `opt`; `a` in the result is the sensitivity of the returned path.
SizingResult size_for_constraint(const timing::BoundedPath& path,
                                 const timing::DelayModel& dm, double tc_ps,
                                 const SensitivityOptions& opt = {});

/// Sutherland-style equal effort-delay distribution (the paper's "simplest
/// method"): every stage receives the same delay budget, realised by a
/// backward solve per stage and a bisection on the budget to meet Tc.
/// Oversizes heavy gates relative to the constant-sensitivity method.
SizingResult size_equal_effort(const timing::BoundedPath& path,
                               const timing::DelayModel& dm, double tc_ps,
                               const SensitivityOptions& opt = {});

}  // namespace pops::core
