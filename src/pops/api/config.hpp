#pragma once
// Unified optimizer configuration — the single options surface of the
// pops::api layer.
//
// The seed exposed five scattered options structs (ProtocolOptions,
// CircuitOptions, ShieldOptions, BoundsOptions, SensitivityOptions), each
// consumed by a different free function and none validated: a config with
// hard_ratio >= weak_ratio silently collapses the Medium domain and the
// Fig. 7 protocol misclassifies every path. OptimizerConfig subsumes all
// five behind one builder-style object, validates every invariant up
// front, and projects back onto the legacy structs so the core kernels
// are driven unchanged.

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pops/core/netopt.hpp"
#include "pops/core/protocol.hpp"
#include "pops/power/power_model.hpp"
#include "pops/timing/table_model.hpp"

namespace pops::api {

/// Thrown when a configuration violates an invariant. The message lists
/// *every* violated invariant, not just the first.
class ConfigError : public std::invalid_argument {
 public:
  explicit ConfigError(const std::vector<std::string>& problems);
  const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }

 private:
  std::vector<std::string> problems_;
};

/// One configuration object for the whole optimization pipeline.
///
/// Builder-style: setters return *this so configs compose in one
/// expression; `validate()` reports every violated invariant and
/// `ensure_valid()` throws a ConfigError carrying the same list. The
/// Optimizer validates at construction, so a misconfigured run fails with
/// a diagnostic instead of silently misclassifying constraint domains.
struct OptimizerConfig {
  // --- Fig. 6 constraint-domain thresholds -----------------------------------
  double hard_ratio = 1.2;  ///< Tc < hard_ratio*Tmin  -> hard
  double weak_ratio = 2.5;  ///< Tc > weak_ratio*Tmin  -> weak
  bool allow_restructuring = true;

  // --- circuit-level protocol driver -----------------------------------------
  std::size_t max_paths = 24;  ///< K most critical paths per round
  int max_rounds = 6;          ///< STA re-verification rounds
  double tc_margin = 0.97;     ///< per-path tightening, in (0, 1]
  double pi_slew_ps = -1.0;    ///< forwarded to STA; <= 0 = model default

  /// Ignored; kept only because the benchmark harness assigns it.
  std::size_t sta_workers = 1;
  /// Ignored; kept only because the benchmark harness assigns it.
  std::size_t sta_parallel_min_nodes = 50000;

  // --- circuit-wide shielding pass -------------------------------------------
  double shield_margin = 1.0;          ///< flag nets with F > margin*Flimit
  std::size_t max_shield_buffers = 64; ///< insertion budget
  double shield_fanout = 4.0;          ///< shield buffer drive rule

  // --- which standard passes run ---------------------------------------------
  bool enable_shielding = true;  ///< shield_high_fanout_nets pass
  bool enable_cleanup = true;    ///< cancel_inverter_pairs + sweep_dead
  bool enable_protocol = true;   ///< the Fig. 7 circuit protocol

  // --- numerical solver knobs -------------------------------------------------
  core::BoundsOptions bounds;
  core::SensitivityOptions sensitivity;

  // --- delay-model backend ----------------------------------------------------
  /// Backend name: "closed-form" (eq. 1-3) or "table" (NLDM-style lookup
  /// tables characterized from the closed form over table_model's grid).
  /// api::Optimizer resolves the selected backend from its OptContext at
  /// construction (see OptContext::backend).
  std::string delay_model = "closed-form";
  /// Characterization grid used when delay_model == "table".
  timing::TableModelOptions table_model;

  // --- power-model backend ----------------------------------------------------
  /// Backend name: "proxy" (the paper's ΣW proxy + flat leakage) or
  /// "state" (state-dependent sub-threshold + gate leakage per Vt class).
  std::string power_model = "proxy";
  /// Junction temperature power is evaluated at (degC). The default is
  /// the reference every leakage calibration is stated at.
  double temperature_c = power::kDefaultTemperatureC;
  /// Vt classes (by Technology::vt_classes name) passes may assign.
  /// The first entry is the default class every gate starts in; the
  /// multi-vt pass moves slack-rich cells into the lowest-leakage other
  /// enabled class.
  std::vector<std::string> vt_library{"svt", "hvt"};
  bool enable_multi_vt = false;  ///< slack-driven high-Vt assignment pass

  // --- builder-style setters ---------------------------------------------------
  OptimizerConfig& with_domain_ratios(double hard, double weak) {
    hard_ratio = hard;
    weak_ratio = weak;
    return *this;
  }
  OptimizerConfig& with_restructuring(bool allow) {
    allow_restructuring = allow;
    return *this;
  }
  OptimizerConfig& with_max_paths(std::size_t k) {
    max_paths = k;
    return *this;
  }
  OptimizerConfig& with_max_rounds(int rounds) {
    max_rounds = rounds;
    return *this;
  }
  OptimizerConfig& with_tc_margin(double margin) {
    tc_margin = margin;
    return *this;
  }
  OptimizerConfig& with_pi_slew_ps(double slew) {
    pi_slew_ps = slew;
    return *this;
  }
  OptimizerConfig& with_shielding(bool on) {
    enable_shielding = on;
    return *this;
  }
  OptimizerConfig& with_shield_budget(std::size_t max_buffers) {
    max_shield_buffers = max_buffers;
    return *this;
  }
  OptimizerConfig& with_cleanup(bool on) {
    enable_cleanup = on;
    return *this;
  }
  OptimizerConfig& with_protocol(bool on) {
    enable_protocol = on;
    return *this;
  }
  OptimizerConfig& with_bounds(const core::BoundsOptions& b) {
    bounds = b;
    return *this;
  }
  OptimizerConfig& with_sensitivity(const core::SensitivityOptions& s) {
    sensitivity = s;
    return *this;
  }
  OptimizerConfig& with_delay_model(std::string name) {
    delay_model = std::move(name);
    return *this;
  }
  OptimizerConfig& with_table_model(timing::TableModelOptions opt) {
    table_model = std::move(opt);
    return *this;
  }
  OptimizerConfig& with_power_model(std::string name) {
    power_model = std::move(name);
    return *this;
  }
  OptimizerConfig& with_temperature(double celsius) {
    temperature_c = celsius;
    return *this;
  }
  OptimizerConfig& with_vt_library(std::vector<std::string> classes) {
    vt_library = std::move(classes);
    return *this;
  }
  OptimizerConfig& with_multi_vt(bool on) {
    enable_multi_vt = on;
    return *this;
  }

  // --- validation --------------------------------------------------------------

  /// Every violated invariant, as human-readable diagnostics. Empty when
  /// the config is usable.
  std::vector<std::string> validate() const;

  /// Throws ConfigError listing every problem; no-op when valid.
  void ensure_valid() const;

  // --- projections onto the legacy options structs -----------------------------

  core::ProtocolOptions protocol_options() const;
  core::CircuitOptions circuit_options() const;
  core::ShieldOptions shield_options() const;

  // --- delay-model backend construction ----------------------------------------

  /// Build a fresh instance of the backend this config selects, over
  /// `lib`. Throws ConfigError when the selection is invalid.
  std::unique_ptr<timing::DelayModel> make_delay_model(
      const liberty::Library& lib) const;

  /// Identity of the selected backend (name + construction parameters),
  /// equal to timing::DelayModel::selector() of the backend it builds;
  /// OptContext keys its backend table by it.
  std::string delay_model_selector() const;

  // --- power-model backend construction -----------------------------------------

  /// Build a fresh instance of the power backend this config selects,
  /// over `lib`. Throws ConfigError when the selection is invalid.
  std::unique_ptr<power::PowerModel> make_power_model(
      const liberty::Library& lib) const;

  /// Identity of the selected power backend, comparable against
  /// power::PowerModel::selector().
  std::string power_model_selector() const;
};

}  // namespace pops::api
