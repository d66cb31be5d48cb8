#pragma once
// Delay-model backends.
//
// DelayModel is the polymorphic evaluation contract every timing consumer
// (Sta, BoundedPath, the core solvers, the liberty writer) is written
// against: transition time and delay of one stage given the cell, the
// output edge, the input slew and the (CIN, CL) operating point. Two
// backends implement it:
//
//   * ClosedFormModel — the paper's closed-form CMOS timing model
//     (eq. 1-3), after Maurine/Rezzoug/Azemard/Auvergne, IEEE TCAD 21(11),
//     2002 and Jeppson, JSSC 29, 1994 for the input-to-output coupling:
//
//       Transition time (eq. 2-3):
//         tau_outHL = S_HL * tau * CL/CIN      S_HL = (1+k) * DW_HL
//         tau_outLH = S_LH * tau * CL/CIN      S_LH = R * (1+k)/k * DW_LH
//
//       Delay (eq. 1) for a falling output (rising input), and dually:
//         t_HL = (v_TN/2) * tau_inLH + (1/2) * (1 + 2*CM/(CM+CL)) * tau_outHL
//
//       CM is the input-output coupling capacitance, evaluated as one half
//       of the input capacitance of the P (resp. N) transistor for a
//       rising (resp. falling) input edge. The model is valid in the *fast
//       input control range*.
//
//   * TableModel (table_model.hpp) — an NLDM-style lookup-table backend:
//     per cell per edge, delay and transition over an (input-slew x
//     normalized-load) grid with bilinear interpolation, characterized
//     from any other backend.
//
// The generic contract is deliberately small; the closed-form-only
// queries the protocol's link equations exploit (symmetry_factor,
// miller_factor, reduced_vt, coupling_ff) live on ClosedFormModel, and
// consumers that want them ask for the downcast via closed_form() —
// falling back to the numeric estimates the base class provides when the
// backend is not closed-form.

#include <cstdint>
#include <string>
#include <string_view>

#include "pops/liberty/library.hpp"

namespace pops::timing {

class ClosedFormModel;

/// Signal transition direction at a gate *output*.
enum class Edge { Rise, Fall };

/// The opposite edge; for an inverting cell, the input edge that causes an
/// output `e` is flip(e).
constexpr Edge flip(Edge e) noexcept {
  return e == Edge::Rise ? Edge::Fall : Edge::Rise;
}

const char* to_string(Edge e) noexcept;

/// Delay and output transition of one evaluated stage.
struct StageTiming {
  double delay_ps = 0.0;  ///< 50%-to-50% propagation delay
  double tout_ps = 0.0;   ///< output transition time
};

/// Polymorphic delay-model backend over a Library.
///
/// Lifetime: a backend keeps a non-owning pointer to the library it was
/// built over; the library must outlive the backend. api::OptContext
/// builds its backends over the interned library of its technology, which
/// lives for the whole process.
class DelayModel {
 public:
  explicit DelayModel(const liberty::Library& lib) : lib_(&lib) {}
  virtual ~DelayModel() = default;

  const liberty::Library& lib() const noexcept { return *lib_; }

  // ----- backend identity -----------------------------------------------------

  /// Stable backend family name ("closed-form", "table"); reported in
  /// sweep records and folded into result-cache keys.
  virtual std::string_view name() const noexcept = 0;

  /// Hash of everything (beyond the shared library/technology) that
  /// determines this backend's numbers — for a table backend, the grid and
  /// every tabulated value. Two backends with equal (name, content_hash)
  /// over the same library evaluate identically, so result caches key on
  /// the pair to keep backends from ever aliasing.
  virtual std::uint64_t content_hash() const noexcept = 0;

  /// Identity of the *selection* that produced this backend (family name
  /// plus construction parameters); equal to the
  /// OptimizerConfig::delay_model_selector() that built it.
  virtual std::string selector() const { return std::string(name()); }

  /// Downcast query: non-null iff this backend is the closed-form model,
  /// giving consumers access to the eq. (1-3)-only queries. Callers must
  /// handle nullptr by using the generic numeric fallbacks.
  virtual const ClosedFormModel* closed_form() const noexcept {
    return nullptr;
  }

  // ----- generic evaluation contract ------------------------------------------

  /// Output transition time (ps) of `cell` at drive `cin_ff` discharging
  /// `cload_ff`. Requires cin_ff > 0 (std::invalid_argument otherwise).
  virtual double transition_ps(const liberty::Cell& cell, Edge out_edge,
                               double cin_ff, double cload_ff) const = 0;

  /// Gate delay (ps). `tin_ps` is the transition time of the *input*
  /// signal (the output transition of the previous stage); negative slews
  /// throw std::invalid_argument.
  virtual double delay_ps(const liberty::Cell& cell, Edge out_edge,
                          double tin_ps, double cin_ff,
                          double cload_ff) const = 0;

  /// Delay and output transition together.
  StageTiming stage(const liberty::Cell& cell, Edge out_edge, double tin_ps,
                    double cin_ff, double cload_ff) const;

  /// Multiplicative timing derate of a gate on Vt class `vt_class`
  /// (Technology::vt_classes index) for the given output edge: the
  /// alpha-power-law drive-current ratio
  ///   ((VDD - Vt_base) / (VDD - Vt_class))^alpha
  /// with the NMOS (vtn, alpha_n) pair for a falling output and the PMOS
  /// (vtp, alpha_p) pair for a rising one. Exactly 1.0 for the default
  /// class 0, so single-Vt netlists are timed bit-identically. Sta applies
  /// it uniformly on every backend's transition/delay numbers — a table
  /// backend characterized at base Vt is derated the same way the closed
  /// form is. Throws std::out_of_range for a class the technology lacks.
  double vt_derate(int vt_class, Edge out_edge) const;

  /// Default input transition (ps) assumed at a path input: the output
  /// transition of a reference inverter driving an equal-size load (FO1),
  /// i.e. the latch/driver is neither very fast nor degraded. The base
  /// implementation measures it through transition_ps.
  virtual double default_input_slew_ps() const;

  /// Sensitivity d(delay)/d(input slew) of a downstream stage whose output
  /// makes `next_out_edge`, measured on the reference inverter at FO1. For
  /// the closed form this is exactly v_T/2 — the slope coefficient of
  /// eq. (1); the base implementation differentiates delay_ps numerically
  /// so any backend supplies a consistent estimate.
  virtual double slope_sensitivity(Edge next_out_edge) const;

  /// The stage weight A_i of the link equations (eq. 4/6): with the path
  /// delay written as  T = sum_i A_i * CL_i / CIN_i + const,  stage i's
  /// output transition contributes to its own delay through the Miller
  /// term and to stage i+1's delay through the slope term. The closed form
  /// overrides this with the analytic
  ///   A_i = tau * S_i(edge) * [ miller_factor/2 + v_T(i+1)/2 ]
  /// (Miller factor frozen at the current sizes, re-evaluated between
  /// fixed-point sweeps, exactly as the paper's "A_i correspond to the
  /// design parameters involved in (1,2)"). The base implementation is the
  /// numeric fallback for non-closed-form backends: a central difference
  /// of [own delay + slope coupling into the next stage] in the load at
  /// fixed CIN.
  virtual double stage_coefficient(const liberty::Cell& cell, Edge out_edge,
                                   double cin_ff, double cload_ff,
                                   bool has_successor,
                                   Edge next_out_edge) const;

 private:
  const liberty::Library* lib_;
};

/// Evaluator for eq. (1-3) over a Library. Stateless and cheap to copy.
class ClosedFormModel final : public DelayModel {
 public:
  explicit ClosedFormModel(const liberty::Library& lib) : DelayModel(lib) {}

  // ----- DelayModel -----------------------------------------------------------

  std::string_view name() const noexcept override { return "closed-form"; }
  std::uint64_t content_hash() const noexcept override;
  const ClosedFormModel* closed_form() const noexcept override {
    return this;
  }

  double transition_ps(const liberty::Cell& cell, Edge out_edge, double cin_ff,
                       double cload_ff) const override;
  double delay_ps(const liberty::Cell& cell, Edge out_edge, double tin_ps,
                  double cin_ff, double cload_ff) const override;
  double default_input_slew_ps() const override;
  double slope_sensitivity(Edge next_out_edge) const override;
  double stage_coefficient(const liberty::Cell& cell, Edge out_edge,
                           double cin_ff, double cload_ff, bool has_successor,
                           Edge next_out_edge) const override;

  // ----- closed-form-only queries (eq. 1-3 structure) -------------------------

  /// Symmetry factor S_edge of eq. (3) for `cell`.
  double symmetry_factor(const liberty::Cell& cell,
                         Edge out_edge) const noexcept;

  /// Input-to-output coupling capacitance CM (fF): half the input
  /// capacitance of the transistor that is being driven through —
  /// P for a rising input (falling output), N for a falling input.
  double coupling_ff(const liberty::Cell& cell, Edge out_edge,
                     double cin_ff) const noexcept;

  /// Miller amplification factor (1 + 2*CM/(CM+CL)) of eq. (1).
  double miller_factor(const liberty::Cell& cell, Edge out_edge, double cin_ff,
                       double cload_ff) const noexcept;

  /// Reduced threshold voltage entering the slope term of eq. (1):
  /// v_TN for a falling output (rising input), v_TP for a rising output.
  double reduced_vt(Edge out_edge) const noexcept;
};

}  // namespace pops::timing
