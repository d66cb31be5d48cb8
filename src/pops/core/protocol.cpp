#include "pops/core/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "pops/obs/trace.hpp"

namespace pops::core {

using liberty::CellKind;
using timing::BoundedPath;
using timing::DelayModel;

const char* to_string(ConstraintDomain d) noexcept {
  switch (d) {
    case ConstraintDomain::Infeasible: return "infeasible";
    case ConstraintDomain::Hard: return "hard";
    case ConstraintDomain::Medium: return "medium";
    case ConstraintDomain::Weak: return "weak";
  }
  return "?";
}

const char* to_string(Method m) noexcept {
  switch (m) {
    case Method::Sizing: return "sizing";
    case Method::LocalBufferSizing: return "local-buffer+sizing";
    case Method::GlobalBufferSizing: return "global-buffer+sizing";
    case Method::Restructure: return "restructure+sizing";
  }
  return "?";
}

std::vector<std::string> ProtocolOptions::problems() const {
  std::vector<std::string> out;
  if (!(hard_ratio >= 1.0))
    out.push_back("hard_ratio must be >= 1 (got " +
                  std::to_string(hard_ratio) + ")");
  if (!(hard_ratio < weak_ratio))
    out.push_back(
        "hard_ratio must be < weak_ratio or the Medium domain is empty "
        "(got hard_ratio=" + std::to_string(hard_ratio) +
        ", weak_ratio=" + std::to_string(weak_ratio) + ")");
  for (const std::string& p : bounds.problems()) out.push_back("bounds." + p);
  for (const std::string& p : sensitivity.problems())
    out.push_back("sensitivity." + p);
  return out;
}

void ProtocolOptions::validate() const { throw_if_any(problems()); }

std::vector<std::string> CircuitOptions::problems() const {
  std::vector<std::string> out;
  if (max_paths == 0) out.push_back("max_paths must be > 0");
  if (max_rounds <= 0) out.push_back("max_rounds must be > 0");
  if (!(tc_margin > 0.0 && tc_margin <= 1.0))
    out.push_back("tc_margin must be in (0, 1] (got " +
                  std::to_string(tc_margin) + ")");
  for (std::string& p : protocol.problems()) out.push_back(std::move(p));
  return out;
}

void CircuitOptions::validate() const { throw_if_any(problems()); }

ConstraintDomain classify_constraint(double tc_ps, double tmin_ps,
                                     const ProtocolOptions& opt) {
  opt.validate();
  if (tc_ps < tmin_ps) return ConstraintDomain::Infeasible;
  if (tc_ps < opt.hard_ratio * tmin_ps) return ConstraintDomain::Hard;
  if (tc_ps <= opt.weak_ratio * tmin_ps) return ConstraintDomain::Medium;
  return ConstraintDomain::Weak;
}

namespace {

/// The Flimit-guided insertions (shields / in-path, see buffer.hpp) on the
/// implementation as given, as the two Fig. 8 variants of one insertion:
/// `global` leaves the inserted in-path buffers free for the sizing sweeps
/// ("Global Buff"), `local` freezes them at their locally optimal size
/// ("Local Buff"). Both carry the same shield bookkeeping.
struct Buffered {
  BoundedPath global;
  BoundedPath local;
  std::size_t n_buffers;
  std::size_t n_in_path;
  double shield_area_um;
};

Buffered with_buffers(const BoundedPath& path, const DelayModel& dm,
                      const FlimitTable& table) {
  obs::Span span("protocol/buffers");
  BufferInsertionResult r = insert_buffers_local(path, dm, table);
  BoundedPath local = r.path;
  for (std::size_t i = 0; i < local.size(); ++i)
    if (local.stage(i).kind == CellKind::Buf &&
        local.stage(i).node == netlist::kNoNode)
      local.set_sizable(i, false);
  return Buffered{std::move(r.path), std::move(local), r.buffers_inserted,
                  r.buffers_inserted - r.shield_buffers, r.shield_area_um};
}

/// One traced constant-sensitivity solve of the protocol.
SizingResult size_path(const BoundedPath& path, const DelayModel& dm,
                       double tc_ps, const ProtocolOptions& opt) {
  obs::Span span("protocol/size");
  SizingResult r = size_for_constraint(path, dm, tc_ps, opt.sensitivity);
  span.arg("sweeps", r.sweeps);
  return r;
}

}  // namespace

SizingResult optimize_with_method(const BoundedPath& path,
                                  const DelayModel& dm,
                                  const FlimitTable& table, double tc_ps,
                                  Method method,
                                  const ProtocolOptions& opt) {
  switch (method) {
    case Method::Sizing:
      return size_for_constraint(path, dm, tc_ps, opt.sensitivity);
    case Method::LocalBufferSizing:
    case Method::GlobalBufferSizing: {
      const Buffered b = with_buffers(path, dm, table);
      SizingResult sr = size_for_constraint(
          method == Method::LocalBufferSizing ? b.local : b.global, dm, tc_ps,
          opt.sensitivity);
      sr.area_um += b.shield_area_um;
      return sr;
    }
    case Method::Restructure: {
      RestructureResult rr = restructure_path(path, dm, table);
      SizingResult sr = size_for_constraint(rr.path, dm, tc_ps, opt.sensitivity);
      sr.area_um += rr.off_path_area_um;
      return sr;
    }
  }
  throw std::logic_error("optimize_with_method: unreachable");
}

ProtocolResult optimize_path(const BoundedPath& path, const DelayModel& dm,
                             const FlimitTable& table, double tc_ps,
                             const ProtocolOptions& opt) {
  if (!(tc_ps > 0.0))
    throw std::invalid_argument("optimize_path: Tc must be > 0");

  ProtocolResult res(SizingResult{path, 0.0, 0.0, 0.0, false, 0});

  // --- Characterise the optimisation space (bounds) -------------------------
  const PathBounds bounds = [&] {
    obs::Span span("protocol/bounds");
    return compute_bounds(path, dm, opt.bounds);
  }();
  res.tmin_ps = bounds.tmin_ps;
  res.tmax_ps = bounds.tmax_ps;
  res.domain = classify_constraint(tc_ps, bounds.tmin_ps, opt);

  // --- Infeasible: structure modification required ---------------------------
  if (res.domain == ConstraintDomain::Infeasible) {
    const Buffered b = with_buffers(path, dm, table);
    SizingResult best = size_path(b.global, dm, tc_ps, opt);
    double best_extra = b.shield_area_um;
    res.method = Method::GlobalBufferSizing;
    res.buffers_inserted = b.n_buffers;

    if (!best.feasible && opt.allow_restructuring) {
      // Try restructuring the path's inefficient NOR stages, buffers on top.
      RestructureResult rr = restructure_path(path, dm, table);
      const Buffered b2 = with_buffers(rr.path, dm, table);
      SizingResult alt = size_path(b2.global, dm, tc_ps, opt);
      const double alt_extra = rr.off_path_area_um + b2.shield_area_um;
      if ((alt.feasible && !best.feasible) ||
          (alt.feasible == best.feasible &&
           alt.area_um + alt_extra < best.area_um + best_extra)) {
        best = std::move(alt);
        best_extra = alt_extra;
        res.method = Method::Restructure;
        res.buffers_inserted = b2.n_buffers;
        res.gates_restructured = rr.gates_restructured;
      }
    }
    res.extra_area_um = best_extra;
    res.sizing = std::move(best);
    return res;
  }

  // --- Feasible domains -------------------------------------------------------
  // Weak: sizing is enough and cheapest (buffers only add area). Seeded
  // with the Tmin sizing, so the solver's a = 0 end is already converged.
  SizingResult sizing_only = size_path(bounds.at_tmin, dm, tc_ps, opt);
  if (res.domain == ConstraintDomain::Weak) {
    res.method = Method::Sizing;
    res.sizing = std::move(sizing_only);
    return res;
  }

  // Medium: buffer insertion is "not necessary, but allows path
  // implementation with area reduction" — evaluate and keep the smaller.
  // Alternatives whose paths coincide share one solve: with nothing
  // inserted Local is the plain path (its sizing-only fit, which an equal
  // area never displaces), and without an in-path buffer Global is Local.
  const Buffered buffered = with_buffers(path, dm, table);
  SizingResult local_sized = buffered.n_buffers == 0
                                 ? sizing_only
                                 : size_path(buffered.local, dm, tc_ps, opt);
  const double local_total = local_sized.area_um + buffered.shield_area_um;

  if (res.domain == ConstraintDomain::Medium) {
    if (local_sized.feasible &&
        (!sizing_only.feasible || local_total < sizing_only.area_um)) {
      res.method = Method::LocalBufferSizing;
      res.buffers_inserted = buffered.n_buffers;
      res.extra_area_um = buffered.shield_area_um;
      res.sizing = std::move(local_sized);
    } else {
      res.method = Method::Sizing;
      res.sizing = std::move(sizing_only);
    }
    return res;
  }

  // Hard: buffer insertion & global sizing; pick the best feasible of the
  // three alternatives.
  SizingResult global_sized = buffered.n_in_path == 0
                                  ? local_sized
                                  : size_path(buffered.global, dm, tc_ps, opt);

  struct Candidate {
    Method method;
    SizingResult* sizing;
    std::size_t buffers;
    double extra_area;
  };
  Candidate candidates[] = {
      {Method::Sizing, &sizing_only, 0, 0.0},
      {Method::LocalBufferSizing, &local_sized, buffered.n_buffers,
       buffered.shield_area_um},
      {Method::GlobalBufferSizing, &global_sized, buffered.n_buffers,
       buffered.shield_area_um},
  };
  Candidate* best = nullptr;
  for (Candidate& c : candidates) {
    if (!c.sizing->feasible) continue;
    if (!best || c.sizing->area_um + c.extra_area <
                     best->sizing->area_um + best->extra_area)
      best = &c;
  }
  if (!best) best = &candidates[2];  // none feasible: global buffering is
                                     // the strongest fallback
  res.method = best->method;
  res.buffers_inserted = best->buffers;
  res.extra_area_um = best->extra_area;
  res.sizing = std::move(*best->sizing);
  return res;
}

}  // namespace pops::core
