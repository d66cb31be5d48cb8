#include "pops/core/restructure.hpp"

#include <algorithm>
#include <stdexcept>

namespace pops::core {

using liberty::CellKind;
using netlist::Netlist;
using netlist::NodeId;
using timing::BoundedPath;
using timing::DelayModel;
using timing::PathStage;

namespace {

bool is_nor(CellKind k) {
  return k == CellKind::Nor2 || k == CellKind::Nor3 || k == CellKind::Nor4;
}
bool is_nand(CellKind k) {
  return k == CellKind::Nand2 || k == CellKind::Nand3 || k == CellKind::Nand4;
}

CellKind nand_of_arity(int n) {
  switch (n) {
    case 2: return CellKind::Nand2;
    case 3: return CellKind::Nand3;
    case 4: return CellKind::Nand4;
    default: throw std::logic_error("nand_of_arity: bad arity");
  }
}
CellKind nor_of_arity(int n) {
  switch (n) {
    case 2: return CellKind::Nor2;
    case 3: return CellKind::Nor3;
    case 4: return CellKind::Nor4;
    default: throw std::logic_error("nor_of_arity: bad arity");
  }
}

}  // namespace

RestructureResult restructure_path(const BoundedPath& path,
                                   const DelayModel& dm,
                                   const FlimitTable& table) {
  const liberty::Library& lib = path.lib();
  const double cin_inv_min =
      lib.cell(CellKind::Inv).cin_ff(lib.tech(), lib.wmin_um());

  // Critical stages at the current sizing that are NOR gates.
  const std::vector<std::size_t> crit = critical_nodes(path, dm, table);
  std::vector<std::size_t> targets;
  for (std::size_t i : crit)
    if (is_nor(path.stage(i).kind) && i > 0) targets.push_back(i);

  // Rebuild the stage list with the rewrites applied (left to right;
  // explicit rebuild keeps the index bookkeeping simple and allows the
  // INV-INV cancellation to look at neighbours).
  std::vector<PathStage> stages;
  std::vector<double> cins;
  std::size_t restructured = 0;
  std::size_t off_inverters = 0;
  double off_area = 0.0;

  const liberty::Cell& inv = lib.cell(CellKind::Inv);

  for (std::size_t i = 0; i < path.size(); ++i) {
    const PathStage& st = path.stage(i);
    const bool rewrite =
        std::find(targets.begin(), targets.end(), i) != targets.end();
    if (!rewrite) {
      stages.push_back(st);
      cins.push_back(path.cin(i));
      continue;
    }

    const int arity = lib.cell(st.kind).fanin;
    ++restructured;
    // Off-path *input* inverters: one minimum-size INV per side input.
    off_inverters += static_cast<std::size_t>(arity - 1);
    off_area += static_cast<double>(arity - 1) *
                inv.total_width_um(lib.wmin_um());

    // INV on the on-path input — unless the previous emitted stage is an
    // inverter, in which case the pair cancels. Never cancel the path's
    // first stage: its input capacitance is the fixed latch constraint.
    if (stages.size() > 1 && stages.back().kind == CellKind::Inv &&
        stages.back().off_path_ff == 0.0) {
      cins.pop_back();
      stages.pop_back();
    } else {
      PathStage inv_in;
      inv_in.kind = CellKind::Inv;
      inv_in.node = netlist::kNoNode;
      inv_in.off_path_ff = 0.0;
      stages.push_back(inv_in);
      cins.push_back(std::max(cin_inv_min, 0.5 * path.cin(i)));
    }

    // The NAND replacement keeps the NOR's position and size. The NOR's
    // off-path fanout needs the inverted (original) polarity, so it hangs
    // behind its own conservation inverter on the NAND output — this is
    // exactly the "beneficial load dilution" of §4.2: the off-path load
    // leaves the critical path. The NAND sees that inverter's input cap.
    PathStage nand;
    nand.kind = nand_of_arity(arity);
    nand.node = st.node;
    nand.off_path_ff = 0.0;
    double nand_cin = path.cin(i);
    if (st.off_path_ff > 0.0) {
      const double off_inv_cin =
          std::clamp(st.off_path_ff / 4.0, cin_inv_min,
                     inv.cin_ff(lib.tech(), lib.wmax_um()));
      nand.off_path_ff = off_inv_cin;
      nand.shielded = true;
      ++off_inverters;
      off_area += inv.total_width_um(inv.wn_for_cin(lib.tech(), off_inv_cin));
    }
    stages.push_back(nand);
    cins.push_back(nand_cin);

    // On-path conservation inverter: restores the NOR polarity for the
    // downstream path; carries no off-path load (shielded above).
    PathStage inv_out;
    inv_out.kind = CellKind::Inv;
    inv_out.node = netlist::kNoNode;
    inv_out.off_path_ff = 0.0;
    stages.push_back(inv_out);
    cins.push_back(std::max(cin_inv_min, 0.5 * path.cin(i)));
  }

  // Stage 0 may not have been rewritten (targets exclude i==0), so cins[0]
  // is still the fixed input capacitance.
  BoundedPath rebuilt(lib, stages, cins.front(), path.terminal_ff(),
                      path.input_edge(), path.input_slew_ps());
  for (std::size_t i = 1; i < cins.size(); ++i) rebuilt.set_cin(i, cins[i]);

  RestructureResult res{std::move(rebuilt), restructured, off_inverters,
                        off_area, 0.0, 0.0};
  res.delay_ps = res.path.delay_ps(dm);
  res.area_um = res.path.area_um() + res.off_path_area_um;
  return res;
}

namespace {

/// Shared implementation of the two netlist-level De Morgan rewrites.
NodeId demorgan_rewrite(Netlist& nl, NodeId id, bool from_nor) {
  // Copy everything needed out of the node up front: add_gate below
  // appends to the netlist's node vector, which may reallocate and leave a
  // Node reference dangling.
  const std::string base_name = nl.node(id).name;
  const std::vector<NodeId> fanins = nl.node(id).fanins;
  const liberty::CellKind kind = nl.node(id).kind;
  if (nl.node(id).is_input)
    throw std::invalid_argument("demorgan: " + base_name + " is a PI");
  if (from_nor ? !is_nor(kind) : !is_nand(kind))
    throw std::invalid_argument("demorgan: " + base_name +
                                " is not of the expected kind");
  const int arity = nl.lib().cell(kind).fanin;

  // 1. Inverters on every fanin. (A fanin that is itself an inverter could
  //    be bypassed, but only when it keeps another fanout — left to a
  //    separate peephole pass to keep this rewrite always-legal.)
  for (NodeId f : fanins) {
    const NodeId inv =
        nl.add_gate(CellKind::Inv, nl.fresh_name(base_name + "_din"), {f});
    nl.rewire_fanin(id, f, inv);
  }

  // 2. Swap the cell for its dual.
  nl.replace_cell(id, from_nor ? nand_of_arity(arity) : nor_of_arity(arity));

  // 3. Output inverter capturing all sinks and the PO role.
  const std::string public_name = nl.node(id).name;
  const NodeId out_inv = nl.insert_buffer(id, CellKind::Inv,
                                          nl.fresh_name(public_name + "_dout"));
  // Preserve the public name on the node that now carries the function.
  const std::string temp = nl.fresh_name(public_name + "_core");
  nl.rename(id, temp);
  const std::string inv_name = nl.node(out_inv).name;
  nl.rename(out_inv, public_name);
  (void)inv_name;
  return out_inv;
}

}  // namespace

NodeId demorgan_nor_to_nand(Netlist& nl, NodeId id) {
  return demorgan_rewrite(nl, id, /*from_nor=*/true);
}

NodeId demorgan_nand_to_nor(Netlist& nl, NodeId id) {
  return demorgan_rewrite(nl, id, /*from_nor=*/false);
}

}  // namespace pops::core
