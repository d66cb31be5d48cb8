#pragma once
// Standard-cell descriptions for the POPS library.
//
// A cell is characterised exactly by the quantities the paper's delay model
// (eq. 1-3, from Maurine et al., TCAD 2002) needs:
//   * DW_HL / DW_LH — the "logical weights": ratio of the current available
//     in an inverter to that of the serial transistor array of this gate,
//     for the falling / rising output edge;
//   * k — the P/N configuration (width) ratio of the cell;
//   * capacitance coefficients mapping the drive (NMOS width Wn) to the
//     input capacitance and output parasitic capacitance.
//
// A gate's *size* throughout the code base is its drive `wn` (µm of NMOS
// width); the input capacitance is CIN = (1+k) * wn * Cgate.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "pops/process/technology.hpp"

namespace pops::liberty {

/// The cell kinds the library provides. All are static CMOS.
enum class CellKind {
  Inv,
  Buf,    ///< non-inverting; modelled as two cascaded inverter stages
  Nand2,
  Nand3,
  Nand4,
  Nor2,
  Nor3,
  Nor4,
  Aoi21,  ///< out = !(a&b | c)
  Oai21,  ///< out = !((a|b) & c)
  Xor2,   ///< non-inverting two-input XOR (composite, for adders)
  Xnor2,  ///< inverting two-input XNOR (composite)
};

/// Number of distinct kinds (for iteration in characterisation sweeps).
inline constexpr std::size_t kCellKindCount = 12;

/// All kinds in declaration order.
std::span<const CellKind> all_cell_kinds() noexcept;

/// Canonical lowercase cell name ("inv", "nand2", ...).
const char* to_string(CellKind kind) noexcept;

/// Parse a canonical name; throws std::invalid_argument on unknown names.
CellKind cell_kind_from_string(const std::string& name);

/// Static description of one library cell.
struct Cell {
  CellKind kind;
  std::string name;     ///< canonical name
  int fanin;            ///< number of logic inputs
  bool inverting;       ///< true if output = NOT(f(inputs))

  double dw_hl;         ///< logical weight, output falling (NMOS array)
  double dw_lh;         ///< logical weight, output rising (PMOS array)
  double k_ratio;       ///< P/N width ratio of the cell
  double stack_factor;  ///< parasitic multiplier for internal diffusion nodes

  /// Input capacitance (fF) of one input pin at drive `wn` (µm).
  double cin_ff(const process::Technology& t, double wn) const noexcept {
    return (1.0 + k_ratio) * wn * t.cgate_ff_per_um;
  }

  /// Output parasitic (drain) capacitance (fF) at drive `wn` (µm).
  double cpar_ff(const process::Technology& t, double wn) const noexcept {
    return stack_factor * (1.0 + k_ratio) * wn * t.cdiff_ff_per_um;
  }

  /// Drive `wn` (µm) that realises the input capacitance `cin` (fF).
  double wn_for_cin(const process::Technology& t, double cin) const noexcept {
    return cin / ((1.0 + k_ratio) * t.cgate_ff_per_um);
  }

  /// Total transistor width (µm) of the cell at drive `wn` — the paper's
  /// area/power metric is the sum of these over the path (ΣW).
  /// Every input pin contributes a P/N pair of total width (1+k)*wn.
  double total_width_um(double wn) const noexcept {
    return static_cast<double>(fanin) * (1.0 + k_ratio) * wn;
  }

  /// Boolean function of the cell. `inputs.size()` must equal `fanin`.
  /// Throws std::invalid_argument on arity mismatch.
  bool eval(std::span<const bool> inputs) const;

  /// Word-parallel form of eval(): bit j of the result is the function of
  /// bit j of every input word, so one call evaluates 64 input vectors.
  /// Same arity contract and diagnostic as eval().
  std::uint64_t eval_word(std::span<const std::uint64_t> inputs) const;
};

}  // namespace pops::liberty
