#pragma once
// The POPS standard-cell library for a given technology node.
//
// The library owns the Technology and the calibrated Cell set, and supplies
// the two quantities every optimisation metric is written in terms of:
//   CREF  — the minimum available drive, expressed as the input capacitance
//           of the minimum-width inverter (paper §3.1);
//   the symmetry factors S_HL/S_LH of eq. (3), which fold the technology's
//   R ratio together with each cell's k and logical weight.

#include <vector>

#include "pops/liberty/cell.hpp"
#include "pops/process/technology.hpp"

namespace pops::liberty {

class Library {
 public:
  /// Build the default calibrated library for `tech`.
  explicit Library(process::Technology tech);

  /// The process-lifetime library for `tech`: built on the first request
  /// for a technology, then shared by every caller passing an equal one
  /// (thread-safe). A library is read-only once built, so netlists and
  /// cached results that point into it stay valid for any context over
  /// the same technology — the "characterize once" library of the flow.
  static const Library& intern(process::Technology tech);

  const process::Technology& tech() const noexcept { return tech_; }

  /// Cell lookup by kind; always succeeds for kinds in all_cell_kinds().
  const Cell& cell(CellKind kind) const;

  /// Cell lookup by canonical name; throws std::invalid_argument if unknown.
  const Cell& cell(const std::string& name) const;

  /// All cells, in all_cell_kinds() order.
  const std::vector<Cell>& cells() const noexcept { return cells_; }

  /// Minimum available drive: input capacitance (fF) of a minimum-width
  /// inverter. The paper normalises path sizes as ΣCIN/CREF (Fig. 1).
  double cref_ff() const noexcept { return cref_ff_; }

  /// Minimum drive (NMOS width, µm) — the same for all cells.
  double wmin_um() const noexcept { return tech_.wmin_um; }
  /// Maximum realistic drive (µm).
  double wmax_um() const noexcept { return tech_.wmax_um; }

  /// Symmetry factor of the falling output edge, S_HL = (1+k) * DW_HL
  /// (eq. 3). Dimensionless multiplier of tau * CL/CIN.
  double s_hl(const Cell& c) const noexcept {
    return (1.0 + c.k_ratio) * c.dw_hl;
  }

  /// Symmetry factor of the rising output edge,
  /// S_LH = R * (1+k)/k * DW_LH (eq. 3).
  double s_lh(const Cell& c) const noexcept {
    return tech_.r_ratio * (1.0 + c.k_ratio) / c.k_ratio * c.dw_lh;
  }

 private:
  process::Technology tech_;
  std::vector<Cell> cells_;
  double cref_ff_;
};

}  // namespace pops::liberty
