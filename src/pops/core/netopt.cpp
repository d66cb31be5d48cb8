#include "pops/core/netopt.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "pops/obs/metrics.hpp"
#include "pops/timing/incremental_sta.hpp"
#include "pops/timing/sta.hpp"

namespace pops::core {

using liberty::CellKind;
using netlist::Netlist;
using netlist::NodeId;

std::size_t cancel_inverter_pairs(Netlist& nl,
                                  std::vector<NodeId>* dirty) {
  std::size_t rewired = 0;
  // Iterate over a snapshot: rewiring invalidates fanout caches but ids
  // are stable.
  for (NodeId g : nl.gates()) {
    const netlist::Node& gn = nl.node(g);
    if (gn.kind != CellKind::Inv) continue;
    const NodeId d = gn.fanins.front();
    const netlist::Node& dn = nl.node(d);
    if (dn.is_input || dn.kind != CellKind::Inv) continue;
    const NodeId x = dn.fanins.front();
    // g computes exactly x; repoint g's sinks to x. Keep g itself if it
    // is a PO (its net name is the interface).
    const std::vector<NodeId> sinks = nl.fanouts(g);
    for (NodeId s : sinks) {
      nl.rewire_fanin(s, g, x);
      ++rewired;
      if (dirty != nullptr) {
        // s's fanin list changed; g lost a sink and x gained one (their
        // loads moved) — the full dirty neighbourhood of one rewire.
        dirty->push_back(s);
        dirty->push_back(g);
        dirty->push_back(x);
      }
    }
  }
  return rewired;
}

Netlist sweep_dead(const Netlist& nl) {
  const std::size_t n = nl.size();
  // Mark backwards from POs.
  std::vector<bool> live(n, false);
  std::vector<NodeId> stack;
  for (NodeId po : nl.outputs()) {
    live[static_cast<std::size_t>(po)] = true;
    stack.push_back(po);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId f : nl.node(id).fanins) {
      if (!live[static_cast<std::size_t>(f)]) {
        live[static_cast<std::size_t>(f)] = true;
        stack.push_back(f);
      }
    }
  }

  Netlist out(nl.lib(), nl.name());
  std::vector<NodeId> remap(n, netlist::kNoNode);
  // PIs first (all preserved: the module interface is not ours to shrink).
  for (NodeId pi : nl.inputs())
    remap[static_cast<std::size_t>(pi)] = out.add_input(nl.node(pi).name);
  // Gates in topological order so fanins are already remapped.
  for (NodeId id : nl.topo_order()) {
    const netlist::Node& node = nl.node(id);
    if (node.is_input || !live[static_cast<std::size_t>(id)]) continue;
    std::vector<NodeId> fanins;
    fanins.reserve(node.fanins.size());
    for (NodeId f : node.fanins)
      fanins.push_back(remap[static_cast<std::size_t>(f)]);
    const NodeId nid = out.add_gate(node.kind, node.name, fanins);
    out.set_drive(nid, node.wn_um);
    out.set_wire_cap(nid, node.wire_cap_ff);
    if (node.is_output) out.mark_output(nid, node.po_load_ff);
    remap[static_cast<std::size_t>(id)] = nid;
  }
  return out;
}

ShieldReport shield_high_fanout_nets(Netlist& nl,
                                     const timing::DelayModel& dm,
                                     const FlimitTable& table,
                                     const ShieldOptions& opt,
                                     timing::IncrementalSta* shared) {
  ShieldReport report;
  // One full STA up front (reused from `shared` when it already holds a
  // current result); every buffer insertion afterwards re-times only the
  // affected cone (the edit touches the driver, the new buffer and the
  // re-pointed sinks — a local neighbourhood).
  std::optional<timing::IncrementalSta> local;
  if (shared == nullptr) local.emplace(nl, dm);
  timing::IncrementalSta& sta = shared != nullptr ? *shared : *local;
  report.delay_before_ps = (sta.has_result() ? sta.result() : sta.run_full())
                               .critical_delay_ps;

  struct Candidate {
    NodeId net;
    double overload;  // F / Flimit
  };

  // Collect overloaded nets at the current sizes.
  std::vector<Candidate> candidates;
  for (NodeId g : nl.gates()) {
    if (nl.node(g).kind == CellKind::Buf) continue;
    const auto& sinks = nl.fanouts(g);
    if (sinks.size() < 2) continue;  // shielding needs somebody to offload
    double limit = std::numeric_limits<double>::infinity();
    for (NodeId s : sinks)
      limit = std::min(limit, table.get(dm, nl.node(g).kind, nl.node(s).kind));
    const double f = nl.load_ff(g) / nl.cin_ff(g);
    if (f > opt.margin * limit)
      candidates.push_back({g, f / limit});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.overload > b.overload;
            });

  // Budget visibility: counts passes whose insertion budget stopped them
  // with overloaded candidates left.
  static const obs::Registry::Counter budget_hit =
      obs::Registry::global().counter("shield.max_buffers_hit");

  const double area_before = nl.total_width_um();
  for (const Candidate& cand : candidates) {
    if (report.buffers_inserted >= opt.max_buffers) {
      budget_hit.add();
      break;
    }
    const NodeId g = cand.net;

    // Keep the most timing-critical sink direct: smallest slack w.r.t.
    // the current critical delay — the pass's historical definition,
    // preserved bit for bit (the parity regression in test_netopt.cpp
    // pins it). The engine's slack cache is keyed on the tc bit pattern,
    // so this costs O(dirty cone) for every candidate whose preceding
    // edits left the critical delay unchanged, and one full backward
    // re-materialization only when the delay actually moved.
    const std::vector<double>& slack =
        sta.slacks(sta.result().critical_delay_ps);
    const std::vector<NodeId> sinks = nl.fanouts(g);
    if (sinks.size() < 2) continue;  // may have changed since collection
    NodeId keep = sinks.front();
    for (NodeId s : sinks)
      if (slack[static_cast<std::size_t>(s)] <
          slack[static_cast<std::size_t>(keep)])
        keep = s;

    std::vector<NodeId> moved;
    for (NodeId s : sinks)
      if (s != keep) moved.push_back(s);
    if (moved.empty()) continue;

    const NodeId buf = nl.insert_buffer(g, CellKind::Buf,
                                        nl.fresh_name(nl.node(g).name + "_sh"),
                                        moved);
    // Drive rule: the shield serves its own load at ~shield_fanout.
    const liberty::Cell& bufc = nl.lib().cell(CellKind::Buf);
    const double load = nl.load_ff(buf);
    nl.set_drive(buf, bufc.wn_for_cin(nl.lib().tech(),
                                      load / opt.shield_fanout));
    ++report.buffers_inserted;

    // Dirty set of the edit: the unloaded driver, the sized new buffer,
    // and every re-pointed sink (their fanin lists changed).
    std::vector<NodeId> dirty = moved;
    dirty.push_back(g);
    dirty.push_back(buf);
    sta.update(dirty, /*structure_changed=*/true);
  }

  report.delay_after_ps = sta.result().critical_delay_ps;
  report.area_added_um = nl.total_width_um() - area_before;
  return report;
}

}  // namespace pops::core
