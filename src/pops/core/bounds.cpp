#include "pops/core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace pops::core {

using timing::BoundedPath;
using timing::DelayModel;

void throw_if_any(const std::vector<std::string>& problems) {
  if (problems.empty()) return;
  std::string msg = "invalid options:";
  for (const std::string& p : problems) msg += "\n  - " + p;
  throw std::invalid_argument(msg);
}

std::vector<std::string> BoundsOptions::problems() const {
  std::vector<std::string> out;
  if (max_sweeps <= 0) out.push_back("max_sweeps must be > 0");
  if (!(tol > 0.0)) out.push_back("tol must be > 0");
  if (!(init_scale > 0.0)) out.push_back("init_scale must be > 0");
  return out;
}

void BoundsOptions::validate() const { throw_if_any(problems()); }

double tmax_ps(BoundedPath path, const DelayModel& dm) {
  path.set_all_min_drive();
  return path.delay_ps(dm);
}

namespace {

/// One symmetric Gauss-Seidel sweep of the link equations at a = 0:
///   CIN(i) <- sqrt( (A_i/A_(i-1)) * CIN(i-1) * (Coff(i) + CIN(i+1)) )
/// applied forward then backward (input information propagates one stage
/// per forward pass, terminal information one stage per backward pass —
/// symmetric sweeps keep the iteration count flat in the path length).
/// Returns the maximum relative change over the sweep.
double link_sweep(BoundedPath& path, const DelayModel& dm) {
  double worst = 0.0;
  const std::size_t n = path.size();
  auto update = [&](std::size_t i) {
    if (!path.sizable(i)) return;
    const double a_prev = path.stage_coefficient(dm, i - 1);
    const double a_own = path.stage_coefficient(dm, i);
    const double load = path.load_ff(i);  // Coff(i) + CIN(i+1) / terminal
    const double target = std::sqrt(a_own / a_prev * path.cin(i - 1) * load);
    const double before = path.cin(i);
    path.set_cin(i, target);
    worst = std::max(worst,
                     std::abs(path.cin(i) - before) / std::max(before, 1e-12));
  };
  for (std::size_t i = 1; i < n; ++i) update(i);
  for (std::size_t i = n; i-- > 1;) update(i);
  return worst;
}

}  // namespace

BoundedPath size_for_tmin(BoundedPath path, const DelayModel& dm,
                          const BoundsOptions& opt, IterationTrace* trace,
                          int* sweeps_used) {
  opt.validate();
  const std::size_t n = path.size();

  // Paper's initial solution: process backward from the output (where the
  // terminal load is known) with CIN(i-1) pinned at CREF — i.e. eq. (4)
  // with CIN(i-1) := init_scale * CREF.
  const double cref = path.lib().cref_ff() * opt.init_scale;
  for (std::size_t ri = 0; ri < n - 1; ++ri) {
    const std::size_t i = n - 1 - ri;  // n-1 .. 1
    if (!path.sizable(i)) continue;
    const double a_prev = path.stage_coefficient(dm, i - 1);
    const double a_own = path.stage_coefficient(dm, i);
    const double load = path.load_ff(i);
    path.set_cin(i, std::sqrt(a_own / a_prev * cref * load));
  }
  if (trace) {
    trace->delay_ps.push_back(path.delay_ps(dm));
    trace->normalized_size.push_back(path.normalized_size());
  }

  // Converged when the sizes are stable OR the delay has stopped moving
  // (very long chains keep micro-adjusting sizes long after the delay —
  // the quantity of interest — has settled).
  int sweeps = 0;
  double prev_delay = path.delay_ps(dm);
  int delay_stable = 0;
  while (sweeps < opt.max_sweeps) {
    const double change = link_sweep(path, dm);
    ++sweeps;
    const double delay = path.delay_ps(dm);
    if (trace) {
      trace->delay_ps.push_back(delay);
      trace->normalized_size.push_back(path.normalized_size());
    }
    if (change < opt.tol) break;
    delay_stable =
        std::abs(delay - prev_delay) < 1e-9 * delay ? delay_stable + 1 : 0;
    prev_delay = delay;
    if (delay_stable >= 3) break;
  }
  if (sweeps_used) *sweeps_used = sweeps;
  return path;
}

PathBounds compute_bounds(const BoundedPath& path, const DelayModel& dm,
                          const BoundsOptions& opt, IterationTrace* trace) {
  BoundedPath at_max = path;
  at_max.set_all_min_drive();

  int sweeps = 0;
  BoundedPath at_min = size_for_tmin(path, dm, opt, trace, &sweeps);

  PathBounds b{/*tmin_ps=*/at_min.delay_ps(dm),
               /*tmax_ps=*/at_max.delay_ps(dm),
               /*sweeps=*/sweeps,
               /*at_tmin=*/std::move(at_min),
               /*at_tmax=*/std::move(at_max)};
  return b;
}

}  // namespace pops::core
