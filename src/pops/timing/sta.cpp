#include "pops/timing/sta.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <stdexcept>

namespace pops::timing {

using netlist::kClassInput;
using netlist::kClassOutput;
using netlist::Netlist;
using netlist::NodeClass;
using netlist::NodeId;

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// The first pin of a gate driven by `driver`, from the gate's recorded
/// fanins. The delay model is pin-blind, so every pin `driver` feeds holds
/// the same arcs; the backward queries read this one. Without a branch:
/// which pin matches is data, and a mispredicted scan costs the backward
/// kernels about as much as the rest of their per-fanout work. The result
/// stays in bounds (the last pin) even on a result older than the netlist
/// (see the query contract).
std::size_t first_pin(const std::array<NodeId, kMaxFanin>& fanin,
                      NodeId driver) {
  static_assert(kMaxFanin == 4, "one match bit per pin but the last");
  const unsigned match = static_cast<unsigned>(fanin[0] == driver) |
                         static_cast<unsigned>(fanin[1] == driver) << 1 |
                         static_cast<unsigned>(fanin[2] == driver) << 2 | 8u;
  return static_cast<std::size_t>(std::countr_zero(match));
}

/// Max-plus of one output edge over every (pin, causing in-edge): the
/// latest fanin arrival plus its arc `arc(pin, ein)`, and the (fanin,
/// edge) realising it. `arc` is called for every arc, reachable or not.
template <class Arc>
std::pair<double, PathPoint> latest_arrival(const StaResult& r,
                                            std::span<const NodeId> fanins,
                                            std::span<const Edge> causes,
                                            Arc&& arc) {
  double best = kNegInf;
  PathPoint best_prev;
  for (std::size_t pin = 0; pin < fanins.size(); ++pin) {
    const NodeId f = fanins[pin];
    for (Edge ein : causes) {
      const double d = arc(pin, ein);
      const double at_f = r.arrival(f, ein);
      if (at_f == kNegInf) continue;
      if (at_f + d > best) {
        best = at_f + d;
        best_prev = {f, ein};
      }
    }
  }
  return {best, best_prev};
}
}  // namespace

Sta::Sta(const Netlist& nl, const DelayModel& dm, StaOptions opt)
    : nl_(&nl), dm_(&dm), opt_(opt) {
  if (opt_.pi_slew_ps <= 0.0) opt_.pi_slew_ps = dm_->default_input_slew_ps();
  for (liberty::CellKind kind : liberty::all_cell_kinds())
    arcs_of_[static_cast<std::size_t>(kind)] = arcs_for(nl.lib().cell(kind));
}

Sta::KindArcs Sta::arcs_for(const liberty::Cell& cell) {
  using liberty::CellKind;
  return {static_cast<std::uint8_t>(cell.fanin),
          cell.kind == CellKind::Xor2 || cell.kind == CellKind::Xnor2,
          cell.inverting};
}

std::span<const Edge> Sta::causes(const KindArcs& k, Edge out) {
  static constexpr Edge kEdges[] = {Edge::Rise, Edge::Fall};
  if (k.non_unate) return kEdges;
  const Edge in = k.inverting ? flip(out) : out;
  return std::span<const Edge>(kEdges).subspan(StaResult::idx(in), 1);
}

template <class Fn>
void Sta::for_each_arc(const KindArcs& k, std::size_t pin, Fn&& fn) {
  const std::size_t n = k.non_unate ? 2 : 1;
  for (Edge out : {Edge::Rise, Edge::Fall})
    for (Edge in : causes(k, out))
      fn(out, in, StaResult::arc_slot(n, pin, out, in));
}

std::span<const Edge> Sta::cause_edges(const liberty::Cell& cell, Edge out) {
  return causes(arcs_for(cell), out);
}

void Sta::compute_node(NodeId id, StaResult& r) const {
  const Netlist& nl = *nl_;
  const netlist::Node& node = nl.node(id);
  const liberty::Cell& cell = nl.cell_of(id);
  const KindArcs& kind = arcs_of(nl.classes()[static_cast<std::size_t>(id)]);
  const double cin = nl.cin_ff(id);
  const double cload = nl.load_ff(id) + nl.cpar_ff(id);
  const auto i = static_cast<std::size_t>(id);

  // Every slot is rewritten (unused ones with 0 / kNoNode), so a cell swap
  // leaves no stale arc behind.
  std::array<NodeId, kMaxFanin>& fanin = r.arc_fanin[i];
  fanin = kNoFanins;
  std::copy(node.fanins.begin(), node.fanins.end(), fanin.begin());
  std::array<double, kArcSlots>& arcs = r.arc_ps[i];
  arcs.fill(0.0);
  for (Edge out : {Edge::Rise, Edge::Fall}) {
    // High-Vt cells switch slower; the derate (exactly 1.0 on the default
    // class) scales both the stage's slew and its delays uniformly.
    const double derate = dm_->vt_derate(node.vt, out);
    // Slew is a property of the stage alone (eq. 2).
    r.slew_ps[i][StaResult::idx(out)] =
        dm_->transition_ps(cell, out, cin, cload) * derate;
    const auto ins = causes(kind, out);
    const auto [best, best_prev] = latest_arrival(
        r, node.fanins, ins, [&](std::size_t pin, Edge ein) {
          double& arc = arcs[StaResult::arc_slot(ins.size(), pin, out, ein)];
          arc = dm_->delay_ps(cell, out, r.slew(node.fanins[pin], ein), cin,
                              cload) *
                derate;
          return arc;
        });
    r.arrival_ps[i][StaResult::idx(out)] = best;
    r.prev[i][StaResult::idx(out)] = best_prev;
  }
}

void Sta::compute_arrival(NodeId id, StaResult& r) const {
  const auto i = static_cast<std::size_t>(id);
  const KindArcs& kind = arcs_of(nl_->classes()[i]);
  const std::array<double, kArcSlots>& arcs = r.arc_ps[i];
  const std::span<const NodeId> fanins(r.arc_fanin[i].data(), kind.fanin);
  for (Edge out : {Edge::Rise, Edge::Fall}) {
    const auto ins = causes(kind, out);
    const auto [best, best_prev] = latest_arrival(
        r, fanins, ins, [&](std::size_t pin, Edge ein) {
          return arcs[StaResult::arc_slot(ins.size(), pin, out, ein)];
        });
    r.arrival_ps[i][StaResult::idx(out)] = best;
    r.prev[i][StaResult::idx(out)] = best_prev;
  }
}

void Sta::finalize_critical(StaResult& r) const {
  r.critical_delay_ps = kNegInf;
  r.critical_endpoint = PathPoint{};
  for (NodeId po : nl_->outputs()) {
    for (Edge e : {Edge::Rise, Edge::Fall}) {
      if (r.arrival(po, e) > r.critical_delay_ps) {
        r.critical_delay_ps = r.arrival(po, e);
        r.critical_endpoint = {po, e};
      }
    }
  }
  if (r.critical_delay_ps == kNegInf)
    throw std::logic_error("Sta: no PO reachable from any PI");
}

StaResult Sta::run() const {
  const Netlist& nl = *nl_;
  const std::size_t n = nl.size();

  StaResult r;
  r.arrival_ps.assign(n, {kNegInf, kNegInf});
  r.slew_ps.assign(n, {opt_.pi_slew_ps, opt_.pi_slew_ps});
  r.prev.assign(n, {PathPoint{}, PathPoint{}});
  r.arc_ps.assign(n, {});
  r.arc_fanin.assign(n, kNoFanins);

  for (NodeId pi : nl.inputs()) {
    r.arrival_ps[static_cast<std::size_t>(pi)] = {0.0, 0.0};
  }

  const std::vector<NodeClass>& cls = nl.classes();
  for (NodeId id : nl.topo_order()) {
    if (cls[static_cast<std::size_t>(id)] & kClassInput) continue;
    compute_node(id, r);
  }

  finalize_critical(r);
  return r;
}

TimedPath Sta::critical_path(const StaResult& result) const {
  TimedPath path;
  path.delay_ps = result.critical_delay_ps;
  PathPoint p = result.critical_endpoint;
  while (p.node != netlist::kNoNode) {
    path.points.push_back(p);
    if (nl_->classes()[static_cast<std::size_t>(p.node)] & kClassInput) break;
    p = result.prev[static_cast<std::size_t>(p.node)][StaResult::idx(p.edge)];
  }
  std::reverse(path.points.begin(), path.points.end());
  return path;
}

std::array<double, 2> Sta::compute_down(
    NodeId id, const StaResult& result, const std::vector<double>& down) const {
  const Netlist& nl = *nl_;
  const std::vector<NodeClass>& cls = nl.classes();
  auto vid = [](NodeId node, Edge edge) {
    return 2 * static_cast<std::size_t>(node) + StaResult::idx(edge);
  };
  const double init =
      cls[static_cast<std::size_t>(id)] & kClassOutput ? 0.0 : kNegInf;
  std::array<double, 2> best{init, init};
  for (NodeId g : nl.fanouts(id)) {
    const auto gi = static_cast<std::size_t>(g);
    const KindArcs& kind = arcs_of(cls[gi]);
    const std::size_t pin = first_pin(result.arc_fanin[gi], id);
    const auto& arcs = result.arc_ps[gi];
    for_each_arc(kind, pin, [&](Edge eout, Edge e, std::size_t slot) {
      const double cand = arcs[slot] + down[vid(g, eout)];
      best[StaResult::idx(e)] = std::max(best[StaResult::idx(e)], cand);
    });
  }
  return best;
}

std::vector<double> Sta::downstream_delays(const StaResult& result) const {
  const Netlist& nl = *nl_;

  // Longest remaining delay from each vertex to any PO (0 at a PO vertex
  // itself, since paths terminate there; -inf if no PO is reachable).
  std::vector<double> down(2 * nl.size(), kNegInf);
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    const std::array<double, 2> d = compute_down(id, result, down);
    down[2 * static_cast<std::size_t>(id)] = d[0];
    down[2 * static_cast<std::size_t>(id) + 1] = d[1];
  }
  return down;
}

std::vector<TimedPath> Sta::k_critical_paths(const StaResult& result,
                                             std::size_t k) const {
  return k_critical_paths(result, k, downstream_delays(result));
}

std::vector<TimedPath> Sta::k_critical_paths(
    const StaResult& result, std::size_t k,
    const std::vector<double>& down) const {
  const Netlist& nl = *nl_;
  const std::vector<NodeClass>& cls = nl.classes();
  const std::size_t n = nl.size();

  // Timing-graph vertex v = 2*node + idx(edge). Static edge weight
  // w((f,ein) -> (g,eout)) = the arc of g recorded at slew(f,ein).
  auto vid = [](NodeId node, Edge e) {
    return 2 * static_cast<std::size_t>(node) + StaResult::idx(e);
  };

  // Best-first (A*-style) enumeration: items are popped in non-increasing
  // bound order; a *terminal* item's bound equals its exact path delay, so
  // complete paths are emitted in exact non-increasing delay order.
  constexpr std::size_t kTerminal = static_cast<std::size_t>(-1);
  struct Item {
    double bound;       // prefix + down(vertex); == prefix for terminals
    double prefix;      // accumulated delay up to (and including) vertex
    std::size_t vertex; // kTerminal marks a completed path
    int chain;          // arena index of this item's own vertex entry
  };
  struct ArenaEntry {
    std::size_t vertex;
    int parent;
  };
  auto cmp = [](const Item& a, const Item& b) { return a.bound < b.bound; };
  std::priority_queue<Item, std::vector<Item>, decltype(cmp)> heap(cmp);
  std::vector<ArenaEntry> arena;

  for (NodeId pi : nl.inputs()) {
    for (Edge e : {Edge::Rise, Edge::Fall}) {
      const std::size_t v = vid(pi, e);
      if (down[v] == kNegInf) continue;
      arena.push_back({v, -1});
      heap.push({down[v], 0.0, v, static_cast<int>(arena.size()) - 1});
    }
  }

  std::vector<TimedPath> out;
  // Guard against pathological blowup: each pop does O(fanout) work.
  std::size_t pops = 0;
  const std::size_t pop_limit = 4096 * std::max<std::size_t>(k, 1) + 16 * n;

  while (!heap.empty() && out.size() < k && pops++ < pop_limit) {
    const Item item = heap.top();
    heap.pop();

    if (item.vertex == kTerminal) {
      TimedPath path;
      path.delay_ps = item.prefix;
      for (int a = item.chain; a != -1;
           a = arena[static_cast<std::size_t>(a)].parent) {
        const auto& entry = arena[static_cast<std::size_t>(a)];
        path.points.push_back(
            {static_cast<NodeId>(entry.vertex / 2),
             entry.vertex % 2 == 0 ? Edge::Rise : Edge::Fall});
      }
      std::reverse(path.points.begin(), path.points.end());
      out.push_back(std::move(path));
      continue;
    }

    const NodeId node = static_cast<NodeId>(item.vertex / 2);
    const Edge e = item.vertex % 2 == 0 ? Edge::Rise : Edge::Fall;

    // Terminating at a PO is one of the item's continuations.
    if (cls[static_cast<std::size_t>(node)] & kClassOutput)
      heap.push({item.prefix, item.prefix, kTerminal, item.chain});

    // A gate that consumes `node` on two pins appears twice in fanouts();
    // expand it once or the enumeration emits duplicate paths. The list is
    // ascending, so the repeats are neighbours.
    const std::vector<NodeId>& sinks = nl.fanouts(node);
    for (std::size_t s = 0; s < sinks.size(); ++s) {
      const NodeId g = sinks[s];
      if (s > 0 && sinks[s - 1] == g) continue;
      const auto gi = static_cast<std::size_t>(g);
      const KindArcs& kind = arcs_of(cls[gi]);
      const std::size_t pin = first_pin(result.arc_fanin[gi], node);
      const auto& arcs = result.arc_ps[gi];
      for_each_arc(kind, pin, [&](Edge eout, Edge ein, std::size_t slot) {
        if (ein != e) return;
        const std::size_t v2 = vid(g, eout);
        if (down[v2] == kNegInf) return;
        const double w = arcs[slot];
        arena.push_back({v2, item.chain});
        heap.push({item.prefix + w + down[v2], item.prefix + w, v2,
                   static_cast<int>(arena.size()) - 1});
      });
    }
  }
  return out;
}

void Sta::compute_required(NodeId id, const StaResult& result, double tc_ps,
                           std::vector<std::array<double, 2>>& required)
    const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Netlist& nl = *nl_;
  const std::vector<NodeClass>& cls = nl.classes();

  // Init, then min-accumulate over the fanouts' finalized values — the
  // exact operation order (fanouts, then eout, then causing ein, one
  // chained std::min per term) of the historical monolithic backward
  // sweep, so IncrementalSta can replay this kernel bit-identically.
  auto& req = required[static_cast<std::size_t>(id)];
  req = cls[static_cast<std::size_t>(id)] & kClassOutput
            ? std::array<double, 2>{tc_ps, tc_ps}
            : std::array<double, 2>{kInf, kInf};
  for (NodeId g : nl.fanouts(id)) {
    const auto gi = static_cast<std::size_t>(g);
    const KindArcs& kind = arcs_of(cls[gi]);
    const std::size_t pin = first_pin(result.arc_fanin[gi], id);
    const auto& arcs = result.arc_ps[gi];
    const std::array<double, 2>& req_g = required[gi];
    for_each_arc(kind, pin, [&](Edge eout, Edge ein, std::size_t slot) {
      double& cell_req = req[StaResult::idx(ein)];
      cell_req = std::min(cell_req, req_g[StaResult::idx(eout)] - arcs[slot]);
    });
  }
}

double Sta::compute_slack(
    NodeId id, const StaResult& result,
    const std::vector<std::array<double, 2>>& required) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto i = static_cast<std::size_t>(id);
  double slack = kInf;
  for (Edge e : {Edge::Rise, Edge::Fall}) {
    const double at = result.arrival_ps[i][StaResult::idx(e)];
    if (at == kNegInf) continue;
    slack = std::min(slack, required[i][StaResult::idx(e)] - at);
  }
  return slack;
}

std::vector<std::array<double, 2>> Sta::required_times(const StaResult& result,
                                                       double tc_ps) const {
  const Netlist& nl = *nl_;
  std::vector<std::array<double, 2>> required(nl.size());
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it)
    compute_required(*it, result, tc_ps, required);
  return required;
}

std::vector<double> Sta::slacks(const StaResult& result, double tc_ps) const {
  const std::size_t n = nl_->size();
  const std::vector<std::array<double, 2>> required =
      required_times(result, tc_ps);
  std::vector<double> slack(n);
  for (std::size_t i = 0; i < n; ++i)
    slack[i] = compute_slack(static_cast<NodeId>(i), result, required);
  return slack;
}

}  // namespace pops::timing
