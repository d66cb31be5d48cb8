#include "pops/timing/sta.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "pops/obs/trace.hpp"
#include "pops/util/parallel.hpp"

namespace pops::timing {

using netlist::Netlist;
using netlist::NodeId;

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

Sta::Sta(const Netlist& nl, const DelayModel& dm, StaOptions opt)
    : nl_(&nl), dm_(&dm), opt_(opt) {
  if (opt_.pi_slew_ps <= 0.0) opt_.pi_slew_ps = dm_->default_input_slew_ps();
}

std::span<const Edge> Sta::cause_edges(const liberty::Cell& cell, Edge out) {
  using liberty::CellKind;
  static constexpr Edge kEdges[] = {Edge::Rise, Edge::Fall};
  if (cell.kind == CellKind::Xor2 || cell.kind == CellKind::Xnor2)
    return kEdges;
  const Edge in = cell.inverting ? flip(out) : out;
  return std::span<const Edge>(kEdges).subspan(StaResult::idx(in), 1);
}

void Sta::compute_node(NodeId id, StaResult& r) const {
  const Netlist& nl = *nl_;
  const netlist::Node& node = nl.node(id);
  const liberty::Cell& cell = nl.cell_of(id);
  const double cin = nl.cin_ff(id);
  const double cload = nl.load_ff(id) + nl.cpar_ff(id);
  r.stage[static_cast<std::size_t>(id)] = {cin, cload};

  for (Edge out : {Edge::Rise, Edge::Fall}) {
    // High-Vt cells switch slower; the derate (exactly 1.0 on the default
    // class) scales both the stage's slew and its delays uniformly.
    const double derate = dm_->vt_derate(node.vt, out);
    // Slew is a property of the stage alone (eq. 2).
    r.slew_ps[static_cast<std::size_t>(id)][StaResult::idx(out)] =
        dm_->transition_ps(cell, out, cin, cload) * derate;

    double best = kNegInf;
    PathPoint best_prev;
    for (NodeId f : node.fanins) {
      for (Edge ein : cause_edges(cell, out)) {
        const double at_f = r.arrival(f, ein);
        if (at_f == kNegInf) continue;
        const double d =
            dm_->delay_ps(cell, out, r.slew(f, ein), cin, cload) * derate;
        if (at_f + d > best) {
          best = at_f + d;
          best_prev = {f, ein};
        }
      }
    }
    r.arrival_ps[static_cast<std::size_t>(id)][StaResult::idx(out)] = best;
    r.prev[static_cast<std::size_t>(id)][StaResult::idx(out)] = best_prev;
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

bool Sta::level_parallel() const noexcept {
  return opt_.level_parallel_workers > 1 &&
         nl_->size() >= opt_.level_parallel_min_nodes;
}

std::vector<std::vector<NodeId>> Sta::depth_levels() const {
  const Netlist& nl = *nl_;
  const std::vector<int> depth = nl.depths();
  int max_depth = 0;
  for (int d : depth) max_depth = std::max(max_depth, d);
  std::vector<std::vector<NodeId>> levels(
      static_cast<std::size_t>(max_depth) + 1);
  // Bucket in topo order: level construction (and therefore chunking) is
  // a pure function of the netlist, independent of worker scheduling.
  for (NodeId id : nl.topo_order())
    levels[static_cast<std::size_t>(depth[static_cast<std::size_t>(id)])]
        .push_back(id);
  return levels;
}

StaResult Sta::run() const {
  const Netlist& nl = *nl_;
  const std::size_t n = nl.size();

  StaResult r;
  r.arrival_ps.assign(n, {kNegInf, kNegInf});
  r.slew_ps.assign(n, {opt_.pi_slew_ps, opt_.pi_slew_ps});
  r.prev.assign(n, {PathPoint{}, PathPoint{}});
  r.stage.assign(n, StageLoad{});

  for (NodeId pi : nl.inputs()) {
    r.arrival_ps[static_cast<std::size_t>(pi)] = {0.0, 0.0};
  }

  if (!level_parallel()) {
    for (NodeId id : nl.topo_order()) {
      if (nl.node(id).is_input) continue;
      compute_node(id, r);
    }
  } else {
    // Nodes of one level have disjoint outputs and read only arrivals /
    // slews of strictly shallower levels (a gate's depth exceeds every
    // fanin's), all finalized by the preceding level barriers — so the
    // fan-out is bitwise-equal to the sequential loop at any worker
    // count. depth_levels() walked topo_order() above, which also
    // materialized the netlist's lazy fanout/topo caches before any
    // worker can race to build them.
    const std::vector<std::vector<NodeId>> levels = depth_levels();
    obs::Span span("sta/level_sweep");
    span.arg("nodes", static_cast<double>(n));
    span.arg("levels", static_cast<double>(levels.size()));
    span.arg("workers", static_cast<double>(opt_.level_parallel_workers));
    util::ThreadPool& pool = util::ThreadPool::global();
    for (const std::vector<NodeId>& level : levels) {
      pool.for_chunks(level.size(), opt_.level_parallel_workers,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          const NodeId id = level[i];
                          if (nl.node(id).is_input) continue;
                          compute_node(id, r);
                        }
                      });
    }
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
    if (nl_->node(p.node).is_input) break;
    p = result.prev[static_cast<std::size_t>(p.node)][StaResult::idx(p.edge)];
  }
  std::reverse(path.points.begin(), path.points.end());
  return path;
}

double Sta::compute_down(NodeId id, Edge e, const StaResult& result,
                         const std::vector<double>& down) const {
  const Netlist& nl = *nl_;
  auto vid = [](NodeId node, Edge edge) {
    return 2 * static_cast<std::size_t>(node) + StaResult::idx(edge);
  };
  double best = nl.node(id).is_output ? 0.0 : kNegInf;
  for (NodeId g : nl.fanouts(id)) {
    const liberty::Cell& cell = nl.cell_of(g);
    const auto [cin, cload] = result.stage[static_cast<std::size_t>(g)];
    for (Edge eout : {Edge::Rise, Edge::Fall}) {
      const auto causes = cause_edges(cell, eout);
      if (std::find(causes.begin(), causes.end(), e) == causes.end())
        continue;
      const double w = dm_->delay_ps(cell, eout, result.slew(id, e), cin,
                                     cload) *
                       dm_->vt_derate(nl.node(g).vt, eout);
      const double cand = w + down[vid(g, eout)];
      best = std::max(best, cand);
    }
  }
  return best;
}

std::vector<double> Sta::downstream_delays(const StaResult& result) const {
  const Netlist& nl = *nl_;

  // Longest remaining delay from each vertex to any PO (0 at a PO vertex
  // itself, since paths terminate there; -inf if no PO is reachable).
  std::vector<double> down(2 * nl.size(), kNegInf);
  if (!level_parallel()) {
    const auto& topo = nl.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId id = *it;
      for (Edge e : {Edge::Rise, Edge::Fall}) {
        down[2 * static_cast<std::size_t>(id) + StaResult::idx(e)] =
            compute_down(id, e, result, down);
      }
    }
  } else {
    // Backward mirror of run()'s level fan-out: a vertex reads only its
    // fanouts' `down` values, all at strictly deeper levels, finalized
    // by the preceding (descending) level barriers.
    const std::vector<std::vector<NodeId>> levels = depth_levels();
    obs::Span span("sta/level_sweep");
    span.arg("nodes", static_cast<double>(nl.size()));
    span.arg("levels", static_cast<double>(levels.size()));
    span.arg("workers", static_cast<double>(opt_.level_parallel_workers));
    util::ThreadPool& pool = util::ThreadPool::global();
    for (auto lit = levels.rbegin(); lit != levels.rend(); ++lit) {
      const std::vector<NodeId>& level = *lit;
      pool.for_chunks(level.size(), opt_.level_parallel_workers,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          const NodeId id = level[i];
                          for (Edge e : {Edge::Rise, Edge::Fall}) {
                            down[2 * static_cast<std::size_t>(id) +
                                 StaResult::idx(e)] =
                                compute_down(id, e, result, down);
                          }
                        }
                      });
    }
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
  const std::size_t n = nl.size();

  // Timing-graph vertex v = 2*node + idx(edge). Static edge weight
  // w((f,ein) -> (g,eout)) = delay(g, eout, slew(f,ein)).
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
    if (nl.node(node).is_output)
      heap.push({item.prefix, item.prefix, kTerminal, item.chain});

    // A gate that consumes `node` on two pins appears twice in fanouts();
    // expand it once or the enumeration emits duplicate paths.
    std::vector<NodeId> sinks = nl.fanouts(node);
    std::sort(sinks.begin(), sinks.end());
    sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
    for (NodeId g : sinks) {
      const liberty::Cell& cell = nl.cell_of(g);
      const auto [cin, cload] = result.stage[static_cast<std::size_t>(g)];
      for (Edge eout : {Edge::Rise, Edge::Fall}) {
        const auto causes = cause_edges(cell, eout);
        if (std::find(causes.begin(), causes.end(), e) == causes.end())
          continue;
        const std::size_t v2 = vid(g, eout);
        if (down[v2] == kNegInf) continue;
        const double w =
            dm_->delay_ps(cell, eout, result.slew(node, e), cin, cload) *
            dm_->vt_derate(nl.node(g).vt, eout);
        arena.push_back({v2, item.chain});
        heap.push({item.prefix + w + down[v2], item.prefix + w, v2,
                   static_cast<int>(arena.size()) - 1});
      }
    }
  }
  return out;
}

void Sta::compute_required(NodeId id, const StaResult& result, double tc_ps,
                           std::vector<std::array<double, 2>>& required)
    const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Netlist& nl = *nl_;

  // Init, then min-accumulate over the fanouts' finalized values — the
  // exact operation order (fanouts, then eout, then causing ein, one
  // chained std::min per term) of the historical monolithic backward
  // sweep, so IncrementalSta can replay this kernel bit-identically.
  auto& req = required[static_cast<std::size_t>(id)];
  req = nl.node(id).is_output ? std::array<double, 2>{tc_ps, tc_ps}
                              : std::array<double, 2>{kInf, kInf};
  for (NodeId g : nl.fanouts(id)) {
    const liberty::Cell& cell = nl.cell_of(g);
    const auto [cin, cload] = result.stage[static_cast<std::size_t>(g)];
    for (Edge eout : {Edge::Rise, Edge::Fall}) {
      for (Edge ein : cause_edges(cell, eout)) {
        const double w =
            dm_->delay_ps(cell, eout, result.slew(id, ein), cin, cload) *
            dm_->vt_derate(nl.node(g).vt, eout);
        double& cell_req = req[StaResult::idx(ein)];
        cell_req = std::min(
            cell_req,
            required[static_cast<std::size_t>(g)][StaResult::idx(eout)] - w);
      }
    }
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
  if (!level_parallel()) {
    const auto& topo = nl.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it)
      compute_required(*it, result, tc_ps, required);
  } else {
    // Same descending-level fan-out as downstream_delays(): a node reads
    // only its fanouts' required times, all strictly deeper.
    const std::vector<std::vector<NodeId>> levels = depth_levels();
    obs::Span span("sta/level_sweep");
    span.arg("nodes", static_cast<double>(nl.size()));
    span.arg("levels", static_cast<double>(levels.size()));
    span.arg("workers", static_cast<double>(opt_.level_parallel_workers));
    util::ThreadPool& pool = util::ThreadPool::global();
    for (auto lit = levels.rbegin(); lit != levels.rend(); ++lit) {
      const std::vector<NodeId>& level = *lit;
      pool.for_chunks(level.size(), opt_.level_parallel_workers,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                          compute_required(level[i], result, tc_ps, required);
                      });
    }
  }
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
