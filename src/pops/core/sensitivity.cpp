#include "pops/core/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "pops/obs/metrics.hpp"

namespace pops::core {

using timing::BoundedPath;
using timing::DelayModel;

namespace {

/// One symmetric Gauss-Seidel sweep of eq. (6) at sensitivity `a`
/// (forward then backward, see bounds.cpp); returns max relative CIN
/// change. A non-positive denominator means the wanted sensitivity cannot
/// be reached at finite size — clamp to the maximum.
double sensitivity_sweep(BoundedPath& path, const DelayModel& dm, double a) {
  double worst = 0.0;
  const std::size_t n = path.size();
  auto update = [&](std::size_t i) {
    if (!path.sizable(i)) return;
    const double a_prev = path.stage_coefficient(dm, i - 1);
    const double a_own = path.stage_coefficient(dm, i);
    const double load = path.load_ff(i);
    const double denom = a_prev / path.cin(i - 1) - a;
    const double before = path.cin(i);
    if (denom <= 0.0) {
      path.set_cin(i, path.cin_max(i));
    } else {
      path.set_cin(i, std::sqrt(a_own * load / denom));
    }
    worst = std::max(worst,
                     std::abs(path.cin(i) - before) / std::max(before, 1e-12));
  };
  for (std::size_t i = 1; i < n; ++i) update(i);
  for (std::size_t i = n; i-- > 1;) update(i);
  return worst;
}

}  // namespace

std::vector<std::string> SensitivityOptions::problems() const {
  std::vector<std::string> out;
  if (max_sweeps <= 0) out.push_back("max_sweeps must be > 0");
  if (!(tol > 0.0)) out.push_back("tol must be > 0");
  if (max_bisect <= 0) out.push_back("max_bisect must be > 0");
  if (!(tc_rel_tol > 0.0)) out.push_back("tc_rel_tol must be > 0");
  return out;
}

void SensitivityOptions::validate() const { throw_if_any(problems()); }

BoundedPath size_at_sensitivity(BoundedPath path, const DelayModel& dm,
                                double a, const SensitivityOptions& opt,
                                int* sweeps_used) {
  if (a > 0.0)
    throw std::invalid_argument("size_at_sensitivity: a must be <= 0");
  int sweeps = 0;
  double prev_delay = path.delay_ps(dm);
  int delay_stable = 0;
  for (; sweeps < opt.max_sweeps; ++sweeps) {
    if (sensitivity_sweep(path, dm, a) < opt.tol) {
      ++sweeps;
      break;
    }
    // Delay-stabilisation early stop (see bounds.cpp).
    const double delay = path.delay_ps(dm);
    delay_stable =
        std::abs(delay - prev_delay) < 1e-9 * delay ? delay_stable + 1 : 0;
    prev_delay = delay;
    if (delay_stable >= 3) {
      ++sweeps;
      break;
    }
  }
  if (sweeps_used) *sweeps_used = sweeps;
  return path;
}

double sensitivity_floor(const BoundedPath& path, const DelayModel& dm) {
  BoundedPath at_min = path;
  at_min.set_all_min_drive();
  double floor = 0.0;
  for (std::size_t i = 1; i < at_min.size(); ++i) {
    if (!at_min.sizable(i)) continue;
    const double cmin = at_min.cin_min(i);
    floor = std::min(floor, at_min.stage_coefficient(dm, i - 1) /
                                    at_min.cin(i - 1) -
                                at_min.stage_coefficient(dm, i) *
                                    at_min.load_ff(i) / (cmin * cmin));
  }
  // Pull the binding stage a few ulps past its boundary so the sweep's
  // sqrt rounds to (and clamps at) the minimum instead of just above it.
  return floor * (1.0 + 1e-12);
}

SizingResult size_for_constraint(const BoundedPath& path, const DelayModel& dm,
                                 double tc_ps, const SensitivityOptions& opt) {
  opt.validate();
  if (!(tc_ps > 0.0))
    throw std::invalid_argument("size_for_constraint: Tc must be > 0");

  static const obs::Registry::Counter solves_total =
      obs::Registry::global().counter("protocol.solves");
  static const obs::Registry::Counter sweeps_total =
      obs::Registry::global().counter("protocol.sweeps");

  SizingResult res{path, 0.0, 0.0, 0.0, false, 0};
  int solves = 0;
  auto solve = [&](BoundedPath start, double a) {
    int sw = 0;
    BoundedPath p = size_at_sensitivity(std::move(start), dm, a, opt, &sw);
    res.sweeps += sw;
    ++solves;
    return p;
  };
  auto finish = [&](BoundedPath p, double delay, double a, bool feasible) {
    res.path = std::move(p);
    res.delay_ps = delay;
    res.area_um = res.path.area_um();
    res.a = a;
    res.feasible = feasible;
    solves_total.add(solves);
    sweeps_total.add(res.sweeps);
    return std::move(res);
  };

  // a = 0: the Tmin end of the curve.
  BoundedPath at0 = solve(path, 0.0);
  const double tmin = at0.delay_ps(dm);
  if (tc_ps <= tmin * (1.0 + opt.tc_rel_tol)) {
    // Infeasible (or exactly Tmin): best effort is the Tmin sizing.
    return finish(std::move(at0), tmin, 0.0,
                  tc_ps >= tmin * (1.0 - opt.tc_rel_tol));
  }

  // All-minimum end (T(a) = Tmax for every a <= a_floor).
  BoundedPath at_min = path;
  at_min.set_all_min_drive();
  const double tmax = at_min.delay_ps(dm);
  if (tc_ps >= tmax) {
    return finish(std::move(at_min), tmax,
                  -std::numeric_limits<double>::infinity(), true);
  }

  // Root search for T(a) = target on the bracket [a_lo, a_hi], T
  // decreasing in a: a_hi is the feasible end (T <= target, larger
  // area), a_lo the infeasible one. Aim at the middle of the accepted
  // window [Tc*(1 - tc_rel_tol), Tc] so either side of the root stops.
  const double t_accept = tc_ps * (1.0 - opt.tc_rel_tol);
  const double target = tc_ps * (1.0 - 0.5 * opt.tc_rel_tol);
  double a_hi = 0.0, f_hi = tmin - target;
  double a_lo = sensitivity_floor(path, dm), f_lo = tmax - target;
  // The smallest-area feasible fit so far: always the feasible end.
  BoundedPath best = at0;
  double best_delay = tmin;
  double best_a = 0.0;
  BoundedPath warm = std::move(at0);
  int moved = 0;  // which end the last step replaced: +1 a_hi, -1 a_lo
  for (int it = 0; it < opt.max_bisect; ++it) {
    // Regula falsi in a while the feasible end sits at a = 0, then in
    // log(-a), where T(a) is close to linear over the trade-off curve.
    const bool log_axis = a_hi < 0.0;
    const double x_hi = log_axis ? std::log(-a_hi) : a_hi;
    const double x_lo = log_axis ? std::log(-a_lo) : a_lo;
    double x = x_hi - f_hi * (x_lo - x_hi) / (f_lo - f_hi);
    if (!(x > std::min(x_lo, x_hi) && x < std::max(x_lo, x_hi)))
      x = 0.5 * (x_lo + x_hi);  // safeguard: bisect
    const double a = log_axis ? -std::exp(x) : x;
    if (!(a < a_hi && a > a_lo)) break;  // bracket exhausted (or empty)

    warm = solve(std::move(warm), a);
    const double t = warm.delay_ps(dm);
    if (t <= tc_ps) {
      best = warm;
      best_delay = t;
      best_a = a;
      if (t >= t_accept) break;
    }
    // Illinois: an end kept twice in a row has its value halved, so the
    // next interpolant moves it instead of creeping up on the other end.
    if (t <= target) {
      a_hi = a;
      f_hi = t - target;
      if (moved > 0) f_lo *= 0.5;
      moved = 1;
    } else {
      a_lo = a;
      f_lo = t - target;
      if (moved < 0) f_hi *= 0.5;
      moved = -1;
    }
  }
  return finish(std::move(best), best_delay, best_a, true);
}

SizingResult size_equal_effort(const BoundedPath& path, const DelayModel& dm,
                               double tc_ps, const SensitivityOptions& opt) {
  if (!(tc_ps > 0.0))
    throw std::invalid_argument("size_equal_effort: Tc must be > 0");

  const std::size_t n = path.size();
  // The analytic inner solve below exploits the eq. (1) decomposition
  // (slope + Miller terms); when the backend is not the closed form, the
  // same two quantities are estimated through the generic contract — the
  // slope term as delay(tin) - delay(0), and the effort coefficient as the
  // zero-slew delay per unit CL/CIN (the secant through the origin, which
  // for the closed form reproduces miller/2 * S * tau up to rounding).
  const timing::ClosedFormModel* cf = dm.closed_form();

  // Given a per-stage delay budget d, solve backward for the CINs: stage
  // i's delay is (slope term) + miller/2 * S * tau * (CL+Cpar)/CIN, and the
  // slope term depends on the previous stage's output transition, so we
  // iterate the slew profile a few times per budget evaluation.
  auto size_for_budget = [&](BoundedPath p, double budget) {
    for (int round = 0; round < 6; ++round) {
      // Current slews along the path (eq. 2 — independent of input slew).
      std::vector<double> slews(n);
      for (std::size_t i = 0; i < n; ++i)
        slews[i] = dm.transition_ps(p.cell(i), p.out_edge(i), p.cin(i),
                                    p.total_load_ff(i));
      // Backward pass: choose CIN(i) so that stage i's delay == budget.
      for (std::size_t ri = 0; ri + 1 < n; ++ri) {
        const std::size_t i = n - 1 - ri;
        const double tin_i = i == 0 ? p.input_slew_ps() : slews[i - 1];
        // Slope term and effort coefficient k_eff with
        // delay_own = k_eff * (CLext + cpar_coeff*CIN)/CIN,
        // both frozen at the current iterate.
        double slope, k_eff;
        if (cf) {
          slope = 0.5 * cf->reduced_vt(p.out_edge(i)) * tin_i;
          const double miller = cf->miller_factor(
              p.cell(i), p.out_edge(i), p.cin(i), p.total_load_ff(i));
          const double s = cf->symmetry_factor(p.cell(i), p.out_edge(i));
          const double tau = cf->lib().tech().tau_ps;
          k_eff = 0.5 * miller * s * tau;
        } else {
          const double tl = p.total_load_ff(i);
          const double d_full =
              dm.delay_ps(p.cell(i), p.out_edge(i), tin_i, p.cin(i), tl);
          const double d_zero =
              dm.delay_ps(p.cell(i), p.out_edge(i), 0.0, p.cin(i), tl);
          slope = d_full - d_zero;
          k_eff = d_zero * p.cin(i) / std::max(tl, 1e-12);
        }
        const double own_budget = budget - slope;
        if (own_budget <= 0.0) {
          p.set_cin(i, p.cin_max(i));
          continue;
        }
        const double cpar_per_cin = p.cpar_ff(i) / std::max(p.cin(i), 1e-12);
        const double denom = own_budget - k_eff * cpar_per_cin;
        if (denom <= 0.0) {
          p.set_cin(i, p.cin_max(i));
        } else {
          p.set_cin(i, k_eff * p.load_ff(i) / denom);
        }
      }
    }
    return p;
  };

  // Bisect the per-stage budget to meet Tc.
  BoundedPath fastest = size_for_budget(path, 1e-3);
  const double t_fast = fastest.delay_ps(dm);
  BoundedPath slowest = path;
  slowest.set_all_min_drive();
  const double t_slow = slowest.delay_ps(dm);

  SizingResult res{path, 0.0, 0.0, 0.0, false, 0};
  if (tc_ps >= t_slow) {
    res.path = std::move(slowest);
  } else if (tc_ps <= t_fast) {
    res.path = std::move(fastest);
  } else {
    double lo = 1e-3, hi = tc_ps;  // per-stage budget bracket
    BoundedPath best = fastest;
    for (int it = 0; it < opt.max_bisect; ++it) {
      const double mid = 0.5 * (lo + hi);
      BoundedPath p = size_for_budget(path, mid);
      const double t = p.delay_ps(dm);
      if (t <= tc_ps) {
        lo = mid;
        best = std::move(p);
        if (std::abs(t - tc_ps) <= opt.tc_rel_tol * tc_ps) break;
      } else {
        hi = mid;
      }
    }
    res.path = std::move(best);
  }
  res.delay_ps = res.path.delay_ps(dm);
  res.area_um = res.path.area_um();
  res.feasible = res.delay_ps <= tc_ps * (1.0 + opt.tc_rel_tol);
  return res;
}

}  // namespace pops::core
