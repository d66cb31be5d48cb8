#pragma once
// Technology node description.
//
// The paper evaluates on a 0.25µm CMOS foundry process. The proprietary kit
// is not available, so `Technology::cmos025()` provides a generic parameter
// set with textbook-accurate magnitudes for that node (VDD 2.5 V,
// VTN ~ 0.5 V, tau ~ 18 ps, N/P mobility ratio ~ 2.4). The 0.18µm and
// 0.13µm sets support scaling studies beyond the paper.
//
// Unit discipline (used across the whole code base):
//   time          picoseconds (ps)
//   capacitance   femtofarads (fF)
//   width/length  micrometers (µm)
//   voltage       volts (V)
//   current       milliamperes (mA)   [note: fF*V/mA = ps, so units close]

#include <cstddef>
#include <string>
#include <vector>

namespace pops::process {

/// One threshold-voltage implant option of the process. Multi-Vt
/// fabrication offers the same cell layouts at several thresholds: a
/// higher Vt cuts sub-threshold leakage by orders of magnitude at the
/// cost of drive current (and therefore speed). Class 0 is always the
/// standard-Vt device the base `vtn`/`vtp` fields describe — every
/// netlist node defaults to it, which keeps single-Vt flows bit-identical.
struct VtClass {
  std::string name;       ///< "svt", "hvt", "lvt"
  double vtn;             ///< NMOS threshold of this class (V, positive)
  double vtp;             ///< PMOS threshold magnitude (V, positive)
  double ioff_na_per_um;  ///< sub-threshold off current at 25 degC (nA/µm)

  friend bool operator==(const VtClass&, const VtClass&) = default;
};

/// Process parameters consumed by the delay model (eq. 1-3 of the paper),
/// the cell library, and the alpha-power transient simulator.
struct Technology {
  std::string name;        ///< e.g. "generic-cmos025"
  double feature_um;       ///< drawn feature size, e.g. 0.25

  // Supply and thresholds.
  double vdd;              ///< supply voltage (V)
  double vtn;              ///< NMOS threshold (V, positive)
  double vtp;              ///< PMOS threshold magnitude (V, positive)

  // First-order timing calibration (eq. 2-3).
  double tau_ps;           ///< process metric time unit tau (ps)
  double r_ratio;          ///< N/P current ratio at equal width (R in eq. 3)

  // Capacitance calibration.
  double cgate_ff_per_um;  ///< gate capacitance per µm of transistor width
  double cdiff_ff_per_um;  ///< drain junction + overlap cap per µm of width

  // Geometry limits.
  double wmin_um;          ///< minimum transistor width (defines CREF drive)
  double wmax_um;          ///< maximum realistic transistor width

  // Alpha-power-law MOSFET parameters for the transient simulator
  // (Sakurai-Newton model), per µm of width.
  double alpha_n;          ///< velocity saturation index, NMOS (~1.3 at 0.25µm)
  double alpha_p;          ///< velocity saturation index, PMOS (~1.45)
  double idsat_n_ma_um;    ///< NMOS saturation current at VGS=VDD (mA/µm)
  double idsat_p_ma_um;    ///< PMOS saturation current magnitude (mA/µm)

  // Threshold-voltage implant options (multi-Vt) and leakage calibration,
  // consumed by pops::power. An empty vt_classes vector means the process
  // offers only the base device (legacy single-Vt description); the
  // factories below always populate svt/hvt/lvt triples.
  std::vector<VtClass> vt_classes;
  /// Sub-threshold leakage doubles every this many degC above 25 degC
  /// (the classic ~8-12 degC/decade-of-e rule of thumb).
  double ioff_doubling_c = 10.0;
  /// Gate (tunnelling) leakage per µm of transistor width (nA/µm);
  /// temperature-insensitive to first order. Negligible at 0.25µm, grows
  /// steeply as oxides thin toward 0.13µm.
  double igate_na_per_um = 0.0;

  /// Reduced thresholds v_T = V_T / V_DD used directly in eq. (1).
  double vtn_reduced() const noexcept { return vtn / vdd; }
  double vtp_reduced() const noexcept { return vtp / vdd; }

  /// Number of Vt classes (at least 1: a legacy description without
  /// vt_classes still has the implicit base device).
  std::size_t n_vt_classes() const noexcept {
    return vt_classes.empty() ? 1 : vt_classes.size();
  }

  /// The Vt class at `idx`. Index 0 works for any Technology (it
  /// synthesizes the base device when vt_classes is empty); other indices
  /// throw std::out_of_range when absent.
  VtClass vt_class(std::size_t idx) const;

  /// Index of the class named `name`, or -1 when the process has no such
  /// implant option.
  int find_vt_class(const std::string& name) const noexcept;

  /// Throws std::invalid_argument if any parameter is non-physical
  /// (non-positive, thresholds above VDD/2, wmin >= wmax, ...).
  void validate() const;

  /// Field-by-field equality: liberty::Library::intern shares one library
  /// between contexts built over equal technologies.
  friend bool operator==(const Technology&, const Technology&) = default;

  /// Generic 0.25µm process — the node used throughout the paper.
  static Technology cmos025();
  /// Generic 0.18µm process (extension / scaling studies).
  static Technology cmos018();
  /// Generic 0.13µm process (extension / scaling studies).
  static Technology cmos013();
};

}  // namespace pops::process
