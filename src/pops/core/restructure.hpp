#pragma once
// Logic structure modification by De Morgan's theorem — paper §4.2.
//
// A NOR gate has the worst Flimit of the library (Table 2): its serial
// PMOS array makes it the least efficient gate. Instead of buffering it,
// replace it by its De Morgan dual:
//
//     NOR(a, b) = INV( NAND( INV(a), INV(b) ) )
//
// The inverter on the on-path input and the output inverter become *path
// stages* (sizable, and providing the same beneficial load dilution as a
// buffer); the inverters on off-path inputs are an area overhead that is
// charged to the result. Adjacent inverter pairs created by the rewrite
// are cancelled (peephole). The dual NAND -> NOR rewrite is provided for
// completeness; the metric never selects it.
//
// Two levels:
//   * path level  — used by the optimisation protocol and Table 4;
//   * netlist level — a real DAG rewrite with functional-equivalence
//     guarantees (tested exhaustively), used by examples and tests.

#include <vector>

#include "pops/core/buffer.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/timing/path.hpp"

namespace pops::core {

/// Result of a path-level restructuring pass.
struct RestructureResult {
  timing::BoundedPath path;        ///< rewritten path
  std::size_t gates_restructured = 0;
  std::size_t off_path_inverters = 0;
  double off_path_area_um = 0.0;   ///< fixed area of off-path input inverters
  double delay_ps = 0.0;
  double area_um = 0.0;            ///< path area + off_path_area_um
};

/// Rewrite every *critical* NOR stage (fanout above its Flimit, i.e. the
/// stages buffer insertion would target) as INV + NAND + INV. On-path
/// inverters are sizable stages; off-path inputs are charged one
/// minimum-size inverter each. Cancels INV-INV pairs the rewrite creates.
RestructureResult restructure_path(const timing::BoundedPath& path,
                                   const timing::DelayModel& dm,
                                   const FlimitTable& table);

/// Netlist-level De Morgan rewrite of gate `id` (must be a NOR2/3/4):
/// inserts inverters on every fanin, swaps the cell for the same-arity
/// NAND, and inserts an output inverter that takes over the fanouts (and
/// PO role, preserving the node's public name). Returns the new output
/// inverter's id. Throws std::invalid_argument for non-NOR gates.
netlist::NodeId demorgan_nor_to_nand(netlist::Netlist& nl, netlist::NodeId id);

/// Dual rewrite NAND -> NOR (for completeness and for tests showing the
/// metric rejects it). Same contract as demorgan_nor_to_nand.
netlist::NodeId demorgan_nand_to_nor(netlist::Netlist& nl, netlist::NodeId id);

}  // namespace pops::core
