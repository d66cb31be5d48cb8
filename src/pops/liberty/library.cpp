#include "pops/liberty/library.hpp"

#include <deque>
#include <stdexcept>
#include <utility>

#include "pops/util/thread_annotations.hpp"

namespace pops::liberty {

namespace {

/// Series-stack current derating: the logical weight of an n-transistor
/// serial array. Velocity saturation at 0.25µm makes the penalty milder
/// than the long-channel factor n (Maurine et al., TCAD 2002): an NMOS
/// stack of n devices behaves like ~1 + 0.75(n-1) inverters, a PMOS stack
/// (less velocity-saturated) like ~1 + 0.85(n-1).
double series_n(int n) { return 1.0 + 0.75 * (n - 1); }
double series_p(int n) { return 1.0 + 0.85 * (n - 1); }

Cell make(CellKind kind, int fanin, bool inverting, double dw_hl, double dw_lh,
          double k_ratio, double stack_factor) {
  Cell c;
  c.kind = kind;
  c.name = to_string(kind);
  c.fanin = fanin;
  c.inverting = inverting;
  c.dw_hl = dw_hl;
  c.dw_lh = dw_lh;
  c.k_ratio = k_ratio;
  c.stack_factor = stack_factor;
  return c;
}

std::vector<Cell> default_cells() {
  std::vector<Cell> cells;
  cells.reserve(kCellKindCount);
  // kind                fi inv    DW_HL        DW_LH        k     stack
  cells.push_back(make(CellKind::Inv,   1, true,  1.0,          1.0,          2.0, 1.00));
  // Buf is two cascaded inverters; its single-stage abstraction carries the
  // same weights as Inv but a doubled parasitic for the internal node.
  cells.push_back(make(CellKind::Buf,   1, false, 1.0,          1.0,          2.0, 1.60));
  cells.push_back(make(CellKind::Nand2, 2, true,  series_n(2),  1.0,          1.5, 1.25));
  cells.push_back(make(CellKind::Nand3, 3, true,  series_n(3),  1.0,          1.3, 1.50));
  cells.push_back(make(CellKind::Nand4, 4, true,  series_n(4),  1.0,          1.2, 1.75));
  cells.push_back(make(CellKind::Nor2,  2, true,  1.0,          series_p(2),  2.5, 1.25));
  cells.push_back(make(CellKind::Nor3,  3, true,  1.0,          series_p(3),  3.0, 1.50));
  cells.push_back(make(CellKind::Nor4,  4, true,  1.0,          series_p(4),  3.3, 1.75));
  cells.push_back(make(CellKind::Aoi21, 3, true,  series_n(2),  series_p(2),  1.8, 1.40));
  cells.push_back(make(CellKind::Oai21, 3, true,  series_n(2),  series_p(2),  2.0, 1.40));
  // XOR/XNOR are composite (transmission-gate or 4-NAND realisations);
  // their single-stage weights approximate the worst internal 2-stack.
  cells.push_back(make(CellKind::Xor2,  2, false, series_n(2),  series_p(2),  1.8, 1.80));
  cells.push_back(make(CellKind::Xnor2, 2, true,  series_n(2),  series_p(2),  1.8, 1.80));
  return cells;
}

}  // namespace

Library::Library(process::Technology tech)
    : tech_(std::move(tech)), cells_(default_cells()) {
  tech_.validate();
  cref_ff_ = cell(CellKind::Inv).cin_ff(tech_, tech_.wmin_um);
}

const Library& Library::intern(process::Technology tech) {
  // deque: references handed out stay valid as the registry grows. Never
  // shrinks — a process touches a handful of technologies.
  struct Registry {
    util::Mutex mu;
    std::deque<Library> libraries POPS_GUARDED_BY(mu);
  };
  static Registry registry;
  util::MutexLock lock(registry.mu);
  for (const Library& lib : registry.libraries)
    if (lib.tech() == tech) return lib;
  return registry.libraries.emplace_back(std::move(tech));
}

const Cell& Library::cell(CellKind kind) const {
  for (const Cell& c : cells_)
    if (c.kind == kind) return c;
  throw std::logic_error("Library: kind not populated");
}

const Cell& Library::cell(const std::string& name) const {
  return cell(cell_kind_from_string(name));
}

}  // namespace pops::liberty
