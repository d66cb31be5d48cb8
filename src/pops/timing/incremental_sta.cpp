#include "pops/timing/incremental_sta.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"

namespace pops::timing {

using netlist::kClassInput;
using netlist::kClassOutput;
using netlist::Netlist;
using netlist::NodeId;

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// IncrementalSta::mark_ bits: a seed of the current update, and a node
/// with a fanin whose slew moved in it (both re-evaluate their arcs).
constexpr std::uint8_t kSeed = 1;
constexpr std::uint8_t kSlewIn = 2;

/// Spacing of freshly numbered topological positions, and the marker of a
/// not-yet-placed node (above every position).
constexpr std::uint64_t kGap = std::uint64_t{1} << 20;
constexpr std::uint64_t kUnplaced = std::numeric_limits<std::uint64_t>::max();

/// Bitwise double comparison: the identity guarantee is "same bits as a
/// cold run", so the change test must distinguish what == would conflate
/// (±0.0) and not conflate what == would split (NaN never propagates as
/// "unchanged").
inline bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Calls `fn` on each fanin of `id` recorded in r.arc_fanin — the
/// netlist's fanins at every node once update()'s forward pass has run
/// (a node whose fanins changed is a seed and re-recorded them), read
/// from one small table instead of the node record.
template <class Fn>
void for_each_fanin(const StaResult& r, NodeId id, Fn&& fn) {
  for (NodeId f : r.arc_fanin[static_cast<std::size_t>(id)]) {
    if (f == netlist::kNoNode) break;
    fn(f);
  }
}

}  // namespace

IncrementalSta::IncrementalSta(const Netlist& nl, const DelayModel& dm,
                               StaOptions opt)
    : nl_(&nl), dm_(&dm), sta_(nl, dm, opt) {
  // Sta's constructor resolved a non-positive pi_slew to the model
  // default; mirror the resolved value for array initialization.
  pi_slew_ps_ = sta_.opt_.pi_slew_ps;
}

const StaResult& IncrementalSta::result() const {
  if (!valid_)
    throw std::logic_error("IncrementalSta: no result yet (call run_full)");
  return res_;
}

void IncrementalSta::invalidate() noexcept {
  valid_ = false;
  down_valid_ = false;
  drop_required();
  paths_valid_ = false;
  ++revision_;
}

const std::vector<TimedPath>& IncrementalSta::k_critical_paths(
    std::size_t k) const {
  static const obs::Registry::Counter enumerated =
      obs::Registry::global().counter("sta.kpaths_enumerated");
  static const obs::Registry::Counter cached =
      obs::Registry::global().counter("sta.kpaths_cached");
  // Exact gate: update()/run_full() drop paths_valid_; between reports
  // the netlist is untouched (dirty-set contract), so the enumeration
  // inputs — structure, arcs, bounds — are bit-identical and the
  // previous list IS the enumeration result. A different k is not
  // servable from the cache: the enumeration's pop budget scales with k,
  // so a k-prefix of a larger enumeration is not provably the k-run.
  if (paths_valid_ && paths_k_ == k) {
    cached.add();
    return paths_;
  }
  paths_ = sta_.k_critical_paths(result(), k, downstream());
  paths_k_ = k;
  paths_valid_ = true;
  enumerated.add();
  return paths_;
}

void IncrementalSta::drop_required() const {
  // Voids every stamp in O(1): the next epoch matches no stored stamp
  // (stamps restart from 0 in the rare wrap-around).
  drop_pending();
  if (!req_any_) return;
  req_any_ = false;
  if (++req_epoch_ == 0) {
    std::fill(req_stamp_.begin(), req_stamp_.end(), 0u);
    req_epoch_ = 1;
  }
}

void IncrementalSta::select_tc(double tc_ps) const {
  // Stamps are keyed on the tc bit pattern.
  if (!same_bits(tc_ps, req_tc_ps_)) drop_required();
  req_tc_ps_ = tc_ps;
}

void IncrementalSta::drop_pending() const {
  for (NodeId id : pend_req_) pend_mark_[static_cast<std::size_t>(id)] = 0;
  pend_req_.clear();
  pend_updates_ = 0;
}

void IncrementalSta::repair_required() const {
  // req[id] reads, per fanout g: the arcs of g from id's pin (moved only
  // where g ∈ seeds ⇒ readers ⊆ fanins(seeds), or id ∈ slew_changed),
  // id's own PO flag / fanout set (dirty ⊆ seeds), and req[g]
  // (propagated) — so the union of every pending update's seeds ∪
  // fanins(seeds) ∪ slew_changed covers each node whose own inputs moved
  // since the last repair, and one reverse-topological pass over the
  // current state repairs them all. Only stamped nodes matter: an
  // unstamped node's fanins are unstamped too (closure under fanout), so
  // the walk stops there. A node whose fanouts are all stamped is
  // (re)computed and stamped — this also stamps appended nodes such as a
  // shield buffer in front of stamped sinks; a stamped node with an
  // unstamped fanout (a new sink) loses its stamp, and so, transitively,
  // do its stamped fanins.
  if (pend_req_.empty()) {
    pend_updates_ = 0;
    return;
  }
  obs::Span span("sta/slack_update");
  span.arg("updates", static_cast<double>(pend_updates_));

  std::priority_queue<Pos> bwd;  // max position first = reverse topo
  auto push_bwd = [&](NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    if (in_heap_[i]) return;
    in_heap_[i] = 1;
    bwd.emplace(pos_[i], id);
  };
  auto push_stamped_fanins = [&](NodeId id) {
    for_each_fanin(res_, id, [&](NodeId f) {
      if (stamped(f)) push_bwd(f);
    });
  };
  for (NodeId id : pend_req_) push_bwd(id);

  std::size_t changed = 0;
  std::size_t unstamped = 0;
  while (!bwd.empty()) {
    const NodeId id = bwd.top().second;
    bwd.pop();
    const auto i = static_cast<std::size_t>(id);
    in_heap_[i] = 0;

    const bool was = stamped(id);
    bool ready = true;
    for (NodeId g : nl_->fanouts(id)) ready = ready && stamped(g);
    if (!ready) {
      if (!was) continue;
      req_stamp_[i] = 0;
      ++unstamped;
      push_stamped_fanins(id);
      continue;
    }
    const std::array<double, 2> old_req = req_[i];
    sta_.compute_required(id, res_, req_tc_ps_, req_);
    req_stamp_[i] = req_epoch_;
    if (!was || !same_bits(req_[i][0], old_req[0]) ||
        !same_bits(req_[i][1], old_req[1])) {
      ++changed;
      push_stamped_fanins(id);
    }
  }
  span.arg("req_changed", static_cast<double>(changed));
  span.arg("unstamped", static_cast<double>(unstamped));
  drop_pending();
}

std::size_t IncrementalSta::demand_required(NodeId root) const {
  // Post-order over the unstamped part of root's fanout cone: a node is
  // computed once every fanout is stamped, so each kernel reads final
  // values — the same bits as a full reverse-topological sweep. The
  // netlist is a DAG, so a fanout met again is either stamped or new.
  std::size_t computed = 0;
  if (stamped(root)) return computed;
  auto open = [&](NodeId id) {
    const std::vector<NodeId>& fo = nl_->fanouts(id);
    dfs_.push_back({id, fo.data(), fo.data() + fo.size()});
  };
  dfs_.clear();
  open(root);
  while (!dfs_.empty()) {
    DfsFrame& top = dfs_.back();
    while (top.next != top.end && stamped(*top.next)) ++top.next;
    if (top.next != top.end) {
      open(*top.next);  // revisited stamped once it is done
      continue;
    }
    const NodeId id = top.id;
    dfs_.pop_back();
    sta_.compute_required(id, res_, req_tc_ps_, req_);
    req_stamp_[static_cast<std::size_t>(id)] = req_epoch_;
    ++computed;
  }
  req_any_ = true;
  return computed;
}

double IncrementalSta::slack(NodeId id, double tc_ps) const {
  (void)result();  // throws before the first run
  select_tc(tc_ps);
  repair_required();
  if (!stamped(id)) {
    static const obs::Registry::Counter required_nodes =
        obs::Registry::global().counter("sta.required_nodes");
    obs::Span span("sta/required_cone");
    const std::size_t computed = demand_required(id);
    span.arg("nodes", static_cast<double>(computed));
    required_nodes.add(static_cast<double>(computed));
  }
  return sta_.compute_slack(id, res_, req_);
}

const std::vector<std::array<double, 2>>& IncrementalSta::required_times(
    double tc_ps) const {
  (void)result();  // throws before the first run
  select_tc(tc_ps);
  repair_required();
  // Every node, over the engine's own order: the stamped set is closed
  // under fanout, so reverse-topologically each unstamped node's fanouts
  // are final when it is computed.
  obs::Span span("sta/slack_full");
  std::size_t computed = 0;
  const std::vector<NodeId>& ord = order();
  for (auto it = ord.rbegin(); it != ord.rend(); ++it) {
    if (stamped(*it)) continue;
    sta_.compute_required(*it, res_, req_tc_ps_, req_);
    req_stamp_[static_cast<std::size_t>(*it)] = req_epoch_;
    ++computed;
  }
  span.arg("nodes", static_cast<double>(computed));
  req_any_ = true;
  return req_;
}

const std::vector<double>& IncrementalSta::slacks(double tc_ps) const {
  (void)required_times(tc_ps);
  const std::size_t n = nl_->size();
  slack_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    slack_[i] = sta_.compute_slack(static_cast<NodeId>(i), res_, req_);
  return slack_;
}

const std::vector<double>& IncrementalSta::downstream() const {
  if (!valid_)
    throw std::logic_error("IncrementalSta: no result yet (call run_full)");
  // Lazily computed on first query: consumers that never enumerate paths
  // (the shield pass, initial-delay measurements) skip the O(E) bound
  // sweep entirely; once queried, update() maintains the vector. Like
  // required_times(), the sweep walks the engine's own order.
  if (!down_valid_) {
    down_.assign(2 * nl_->size(), kNegInf);
    const std::vector<NodeId>& ord = order();
    for (auto it = ord.rbegin(); it != ord.rend(); ++it) {
      const std::array<double, 2> d = sta_.compute_down(*it, res_, down_);
      down_[2 * static_cast<std::size_t>(*it)] = d[0];
      down_[2 * static_cast<std::size_t>(*it) + 1] = d[1];
    }
    down_valid_ = true;
  }
  return down_;
}

void IncrementalSta::rebuild_positions() {
  // Positions kGap apart leave room to place appended nodes between any
  // two neighbours without renumbering.
  const std::vector<NodeId>& topo = nl_->topo_order();
  order_.assign(topo.begin(), topo.end());
  order_tail_.clear();
  pos_.resize(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i)
    pos_[static_cast<std::size_t>(topo[i])] = (i + 1) * kGap;
}

bool IncrementalSta::patch_positions(std::size_t old_n,
                                     std::span<const NodeId> dirty) {
  // Appended nodes, in id order: midway between the highest fanin and
  // the lowest already-placed fanout (kUnplaced compares above every
  // position, so unplaced fanouts — later appended nodes — drop out of
  // the min and are placed above this one by their own fanin bound).
  const std::size_t n = nl_->size();
  pos_.resize(n, kUnplaced);
  for (std::size_t i = old_n; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    std::uint64_t lo = 0;
    for (NodeId f : nl_->node(id).fanins) {
      const std::uint64_t p = pos_[static_cast<std::size_t>(f)];
      if (p == kUnplaced) return false;  // reads a later-appended node
      lo = std::max(lo, p);
    }
    std::uint64_t hi = kUnplaced;
    for (NodeId g : nl_->fanouts(id))
      hi = std::min(hi, pos_[static_cast<std::size_t>(g)]);
    if (hi == kUnplaced) {
      if (lo >= kUnplaced - 2 * kGap) return false;
      pos_[i] = lo + kGap;
    } else {
      if (hi <= lo || hi - lo < 2) return false;  // gap used up
      pos_[i] = lo + (hi - lo) / 2;
    }
    order_tail_.push_back(id);
  }
  // Every other changed edge ends at a dirty node (the contract lists both
  // endpoints of every rewire); check both directions around each.
  for (NodeId d : dirty) {
    const std::uint64_t p = pos_[static_cast<std::size_t>(d)];
    for (NodeId f : nl_->node(d).fanins)
      if (pos_[static_cast<std::size_t>(f)] >= p) return false;
    for (NodeId g : nl_->fanouts(d))
      if (pos_[static_cast<std::size_t>(g)] <= p) return false;
  }
  return true;
}

bool IncrementalSta::before(NodeId a, NodeId b) const noexcept {
  const std::uint64_t pa = pos_[static_cast<std::size_t>(a)];
  const std::uint64_t pb = pos_[static_cast<std::size_t>(b)];
  return pa != pb ? pa < pb : a < b;
}

const std::vector<NodeId>& IncrementalSta::order() const {
  if (order_tail_.empty()) return order_;
  auto less = [&](NodeId a, NodeId b) { return before(a, b); };
  std::sort(order_tail_.begin(), order_tail_.end(), less);
  const auto mid = static_cast<std::ptrdiff_t>(order_.size());
  order_.insert(order_.end(), order_tail_.begin(), order_tail_.end());
  std::inplace_merge(order_.begin(), order_.begin() + mid, order_.end(), less);
  order_tail_.clear();
  return order_;
}

void IncrementalSta::grow_arrays(std::size_t n) {
  // Appended nodes start exactly like run_full initializes them: gates
  // get computed before they are read (they are in the dirty set), and an
  // appended PI gets the zero arrival a cold run assigns to inputs.
  const std::size_t old = res_.arrival_ps.size();
  res_.arrival_ps.resize(n, {kNegInf, kNegInf});
  res_.slew_ps.resize(n, {pi_slew_ps_, pi_slew_ps_});
  res_.prev.resize(n, {PathPoint{}, PathPoint{}});
  res_.arc_ps.resize(n, {});
  res_.arc_fanin.resize(n, kNoFanins);
  const std::vector<netlist::NodeClass>& cls = nl_->classes();
  for (std::size_t i = old; i < n; ++i)
    if (cls[i] & kClassInput) res_.arrival_ps[i] = {0.0, 0.0};
  if (down_valid_) down_.resize(2 * n, kNegInf);
  // Appended nodes start unstamped.
  req_.resize(n);
  req_stamp_.resize(n, 0);
  in_heap_.resize(n, 0);
  mark_.resize(n, 0);
  pend_mark_.resize(n, 0);
}

const StaResult& IncrementalSta::run_full() {
  static const obs::Registry::Counter full_runs =
      obs::Registry::global().counter("sta.full_runs");
  full_runs.add();
  obs::Span span("sta/full");
  // Exactly a cold Sta::run(); the bound vector and the slacks are
  // materialized on first use, so one-shot consumers (initial-delay
  // measurements) pay only an O(N) copy of the order run() just walked.
  res_ = sta_.run();
  const std::size_t n = nl_->size();
  rebuild_positions();
  drop_required();
  pend_mark_.assign(n, 0);
  req_.resize(n);
  req_stamp_.resize(n, 0);
  in_heap_.assign(n, 0);
  mark_.assign(n, 0);
  down_valid_ = false;
  paths_valid_ = false;
  valid_ = true;
  ++revision_;
  return res_;
}

const StaResult& IncrementalSta::update(std::span<const NodeId> dirty,
                                        bool structure_changed) {
  if (!valid_) return run_full();

  // Cold-vs-incremental visibility: every update is counted, and the size
  // of the cone its forward pass re-timed is binned and split by kernel,
  // so a daemon's metrics snapshot shows how much of the hot loop the
  // incremental engine actually absorbs. One add per counter per update
  // (each takes the registry mutex), never one per node.
  static const obs::Registry::Counter updates =
      obs::Registry::global().counter("sta.updates");
  static const obs::Registry::Counter order_rebuilds =
      obs::Registry::global().counter("sta.order_rebuilds");
  static const obs::Registry::Counter nodes_full =
      obs::Registry::global().counter("sta.nodes_full");
  static const obs::Registry::Counter nodes_arrival_only =
      obs::Registry::global().counter("sta.nodes_arrival_only");
  static const obs::Registry::Histogram cone = obs::Registry::global()
      .histogram("sta.dirty_cone",
                 {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  updates.add();
  obs::Span span("sta/update");
  span.arg("dirty", static_cast<double>(dirty.size()));

  // Any reported edit can move an enumeration edge weight (through a
  // dirty sink's arcs) even when no maintained value changes bits, so the
  // path cache gates exactly on "a report happened".
  paths_valid_ = false;
  ++revision_;

  const std::size_t old_n = res_.arrival_ps.size();
  const std::size_t n = nl_->size();
  const bool structural = n != old_n || structure_changed;
  if (n != old_n) grow_arrays(n);
  if (structural && !patch_positions(old_n, dirty)) {
    order_rebuilds.add();
    rebuild_positions();
  }

  // ----- seed set F = dirty ∪ fanins(dirty) ---------------------------------
  // A resize of d changes cin(d) and cpar(d); cin(d) loads every fanin
  // driver (their slew AND delay change), cpar(d) is part of d's own
  // load. So the nodes whose stage inputs (cin, cload) may have moved are
  // exactly F. Structural edits are covered by the dirty-set contract
  // (both endpoints of every rewire are listed).
  seeds_.clear();
  auto add_seed = [&](NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    if (mark_[i] & kSeed) return;
    mark_[i] |= kSeed;
    seeds_.push_back(id);
  };
  for (NodeId d : dirty) {
    add_seed(d);
    for (NodeId f : nl_->node(d).fanins) add_seed(f);
  }
  const std::vector<netlist::NodeClass>& cls = nl_->classes();

  // ----- forward pass: arcs / slews / arrivals / prev -----------------------
  // Worklist ordered by topological position, so every recomputed node
  // reads fanin values that are final for this update. An arc of g reads
  // g's own loads, cell and Vt (which move only at seeds) and one fanin
  // slew; a slew reads only its own stage, so it too moves only at seeds.
  // Seeds and fanouts of slew-changed nodes (mark kSlewIn) therefore
  // replay Sta::compute_node; every other node reached here only saw a
  // fanin arrival move, and Sta::compute_arrival re-times it from its
  // still-exact recorded arcs without the delay model.
  //
  // The heap serves cones of up to a sixty-fourth of the netlist. A cone
  // that outgrows that (a multi-Vt trial run from its seeds on, a shield
  // buffer that moves a critical arrival on the way) finishes as one walk
  // of order() that visits the queued nodes: the same nodes in the same
  // (position, id) order.
  const std::size_t budget = n / 64;
  bool walk = false;
  auto push_fwd = [&](NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    if (in_heap_[i] || (cls[i] & kClassInput)) return;
    in_heap_[i] = 1;
    if (!walk) {
      fwd_.emplace_back(pos_[i], id);
      std::push_heap(fwd_.begin(), fwd_.end(), std::greater<Pos>{});
    }
  };
  for (NodeId id : seeds_) push_fwd(id);

  // The critical delay/endpoint read only the PO list and PO arrivals:
  // rescan only when the list may have changed (structure, or a dirty
  // node's PO flag — dirty ⊆ seeds) or a PO's arrival moved.
  bool po_touched = structural;
  for (NodeId id : seeds_)
    po_touched = po_touched || (cls[static_cast<std::size_t>(id)] & kClassOutput);

  slew_changed_.clear();
  std::size_t full = 0;
  std::size_t arrival_only = 0;
  auto visit = [&](NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    in_heap_[i] = 0;

    const std::array<double, 2> old_arrival = res_.arrival_ps[i];
    bool slew_diff = false;
    if (mark_[i] != 0) {
      mark_[i] &= kSeed;
      const std::array<double, 2> old_slew = res_.slew_ps[i];
      sta_.compute_node(id, res_);
      ++full;
      slew_diff = !same_bits(res_.slew_ps[i][0], old_slew[0]) ||
                  !same_bits(res_.slew_ps[i][1], old_slew[1]);
    } else {
      sta_.compute_arrival(id, res_);
      ++arrival_only;
    }
    const bool arrival_diff =
        !same_bits(res_.arrival_ps[i][0], old_arrival[0]) ||
        !same_bits(res_.arrival_ps[i][1], old_arrival[1]);
    if (slew_diff) slew_changed_.push_back(id);
    if (arrival_diff) po_touched = po_touched || (cls[i] & kClassOutput);
    if (slew_diff || arrival_diff) {
      for (NodeId g : nl_->fanouts(id)) {
        if (slew_diff) mark_[static_cast<std::size_t>(g)] |= kSlewIn;
        push_fwd(g);
      }
    }
  };
  // The walk starts at the heap's least (position, id): every queued node
  // sits at or after it, and everything queued later sits after its queuer.
  for (std::size_t popped = 0; !fwd_.empty() && popped + fwd_.size() <= budget;
       ++popped) {
    std::pop_heap(fwd_.begin(), fwd_.end(), std::greater<Pos>{});
    const NodeId id = fwd_.back().second;
    fwd_.pop_back();
    visit(id);
  }
  if (!fwd_.empty()) {
    const NodeId least = fwd_.front().second;
    fwd_.clear();
    walk = true;
    const std::vector<NodeId>& ord = order();
    auto it = std::lower_bound(ord.begin(), ord.end(), least,
                               [&](NodeId a, NodeId b) { return before(a, b); });
    for (; it != ord.end(); ++it)
      if (in_heap_[static_cast<std::size_t>(*it)]) visit(*it);
  }
  if (po_touched) sta_.finalize_critical(res_);
  nodes_full.add(static_cast<double>(full));
  nodes_arrival_only.add(static_cast<double>(arrival_only));
  cone.observe(static_cast<double>(full + arrival_only));

  // ----- backward pass: downstream bounds -----------------------------------
  // down[f] reads, per fanout g of f: the arcs of g from f's pin (moved
  // only where g ∈ F or f ∈ slew_changed, so the readers are fanins(F)
  // and slew_changed), f's own fanout set / PO flag (changed nodes are in
  // the dirty set ⊆ F), and down[g] (propagated below). Only maintained
  // once a consumer has asked for the bounds (down_valid_);
  // never-enumerating users skip it.
  if (down_valid_) {
    std::priority_queue<Pos> bwd;  // max position first = reverse topo
    auto push_bwd = [&](NodeId id) {
      const auto i = static_cast<std::size_t>(id);
      if (in_heap_[i]) return;
      in_heap_[i] = 1;
      bwd.emplace(pos_[i], id);
    };
    for (NodeId id : seeds_) {
      push_bwd(id);
      for_each_fanin(res_, id, push_bwd);
    }
    for (NodeId id : slew_changed_) push_bwd(id);

    while (!bwd.empty()) {
      const NodeId id = bwd.top().second;
      bwd.pop();
      const auto i = static_cast<std::size_t>(id);
      in_heap_[i] = 0;

      const std::array<double, 2> fresh = sta_.compute_down(id, res_, down_);
      const bool changed = !same_bits(fresh[0], down_[2 * i]) ||
                           !same_bits(fresh[1], down_[2 * i + 1]);
      down_[2 * i] = fresh[0];
      down_[2 * i + 1] = fresh[1];
      if (changed) for_each_fanin(res_, id, push_bwd);
    }
  }

  // ----- required times: recorded, repaired when read ----------------------
  // The required-time repair reads the same seed set as the bound pass
  // above; repair_required() runs it for all updates since the last
  // query. Only recorded while some node holds a stamp.
  if (req_any_) {
    ++pend_updates_;
    auto pend = [&](NodeId id) {
      std::uint8_t& mark = pend_mark_[static_cast<std::size_t>(id)];
      if (mark) return;
      mark = 1;
      pend_req_.push_back(id);
    };
    for (NodeId id : seeds_) {
      pend(id);
      for_each_fanin(res_, id, pend);
    }
    for (NodeId id : slew_changed_) pend(id);
  }

  for (NodeId id : seeds_) mark_[static_cast<std::size_t>(id)] = 0;

#ifndef NDEBUG
  check_against_full();  // the exactness guarantee, paid only in debug
#endif
  return res_;
}

void IncrementalSta::compact(std::span<const NodeId> remap,
                             std::span<const NodeId> seeds) {
  bool identity = true;
  for (std::size_t i = 0; i < remap.size() && identity; ++i)
    identity = remap[i] == static_cast<NodeId>(i);
  if (identity) return;

  // Ids moved: every view keyed on them goes. The downstream bounds
  // re-materialize on their next query (one sweep, as after run_full) and
  // every required-time stamp is voided (a new epoch, O(1)), pending
  // repairs with it; queries recompute what they read.
  ++revision_;
  paths_valid_ = false;
  down_valid_ = false;
  drop_required();
  if (!valid_) return;  // the next query runs cold
  const std::size_t n = nl_->size();
  pend_mark_.assign(n, 0);
  req_.resize(n);
  req_stamp_.resize(n, 0);
  in_heap_.assign(n, 0);
  mark_.assign(n, 0);

  static const obs::Registry::Counter nodes_full =
      obs::Registry::global().counter("sta.nodes_full");
  static const obs::Registry::Counter nodes_arrival_only =
      obs::Registry::global().counter("sta.nodes_arrival_only");
  obs::Span span("sta/compact");
  span.arg("seeds", static_cast<double>(seeds.size()));

  // Carry what a gate's re-timing reads over to the new ids: its slews and
  // recorded arcs, with the fanin ids they were recorded against remapped.
  {
    std::vector<std::array<double, 2>> slew(n);
    std::vector<std::array<double, kArcSlots>> arcs(n);
    std::vector<std::array<NodeId, kMaxFanin>> fanin(n);
    for (std::size_t i = 0; i < remap.size(); ++i) {
      if (remap[i] == netlist::kNoNode) continue;
      const auto k = static_cast<std::size_t>(remap[i]);
      slew[k] = res_.slew_ps[i];
      arcs[k] = res_.arc_ps[i];
      for (std::size_t p = 0; p < kMaxFanin; ++p) {
        const NodeId f = res_.arc_fanin[i][p];
        fanin[k][p] =
            f == netlist::kNoNode ? f : remap[static_cast<std::size_t>(f)];
      }
    }
    res_.slew_ps = std::move(slew);
    res_.arc_ps = std::move(arcs);
    res_.arc_fanin = std::move(fanin);
  }
  res_.arrival_ps.assign(n, {kNegInf, kNegInf});
  res_.prev.assign(n, {PathPoint{}, PathPoint{}});
  for (NodeId pi : nl_->inputs())
    res_.arrival_ps[static_cast<std::size_t>(pi)] = {0.0, 0.0};

  // Netlist::compact numbers PIs first and gates in a topological order,
  // so the ids are the engine's order.
  order_.resize(n);
  order_tail_.clear();
  pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order_[i] = static_cast<NodeId>(i);
    pos_[i] = (i + 1) * kGap;
  }

  // One forward sweep: the seeds (their load sums moved) and the fanouts
  // of a node whose slew moved replay Sta::compute_node; every other gate
  // keeps its arcs and re-derives arrival and backtracking from them. The
  // PO list was renumbered, so the critical endpoint is rescanned.
  const std::vector<netlist::NodeClass>& cls = nl_->classes();
  for (NodeId id : seeds)
    if (!(cls[static_cast<std::size_t>(id)] & kClassInput))
      mark_[static_cast<std::size_t>(id)] = kSeed;
  std::size_t full = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<NodeId>(i);
    if (cls[i] & kClassInput) continue;
    if (mark_[i] == 0) {
      sta_.compute_arrival(id, res_);
      continue;
    }
    mark_[i] = 0;
    const std::array<double, 2> old_slew = res_.slew_ps[i];
    sta_.compute_node(id, res_);
    ++full;
    if (!same_bits(res_.slew_ps[i][0], old_slew[0]) ||
        !same_bits(res_.slew_ps[i][1], old_slew[1]))
      for (NodeId g : nl_->fanouts(id))
        mark_[static_cast<std::size_t>(g)] |= kSlewIn;
  }
  sta_.finalize_critical(res_);
  nodes_full.add(static_cast<double>(full));
  nodes_arrival_only.add(static_cast<double>(n - nl_->inputs().size() - full));

#ifndef NDEBUG
  check_against_full();  // the exactness guarantee, paid only in debug
#endif
}

void IncrementalSta::check_against_full() const {
  if (!valid_)
    throw std::logic_error("IncrementalSta: no result to check");
  repair_required();
  const StaResult cold = sta_.run();
  // The bound vector and required times only exist once a consumer
  // queried them; compare them only then, the required times at every
  // stamped node (the forward state is always checked).
  const std::vector<double> cold_down =
      down_valid_ ? sta_.downstream_delays(cold) : std::vector<double>{};
  const std::vector<std::array<double, 2>> cold_req =
      req_any_ ? sta_.required_times(cold, req_tc_ps_)
               : std::vector<std::array<double, 2>>{};

  auto fail = [&](const std::string& what, NodeId id) {
    throw std::logic_error(
        "IncrementalSta: incremental state diverged from cold run (" + what +
        " at node " +
        (id == netlist::kNoNode ? std::string("<global>") : nl_->node(id).name) +
        ")");
  };

  const std::size_t n = nl_->size();
  if (res_.arrival_ps.size() != n || cold.arrival_ps.size() != n)
    fail("result size", netlist::kNoNode);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t e = 0; e < 2; ++e) {
      const NodeId id = static_cast<NodeId>(i);
      if (!same_bits(res_.arrival_ps[i][e], cold.arrival_ps[i][e]))
        fail("arrival", id);
      if (!same_bits(res_.slew_ps[i][e], cold.slew_ps[i][e])) fail("slew", id);
      if (!(res_.prev[i][e] == cold.prev[i][e])) fail("prev", id);
      if (down_valid_ && !same_bits(down_[2 * i + e], cold_down[2 * i + e]))
        fail("downstream", id);
      if (req_any_ && stamped(id) && !same_bits(req_[i][e], cold_req[i][e]))
        fail("required", id);
    }
    for (std::size_t a = 0; a < kArcSlots; ++a)
      if (!same_bits(res_.arc_ps[i][a], cold.arc_ps[i][a]))
        fail("arc delay", static_cast<NodeId>(i));
    if (res_.arc_fanin[i] != cold.arc_fanin[i])
      fail("arc fanin", static_cast<NodeId>(i));
    if (req_any_ && stamped(static_cast<NodeId>(i)))
      for (NodeId g : nl_->fanouts(static_cast<NodeId>(i)))
        if (!stamped(g)) fail("required stamp closure", static_cast<NodeId>(i));
  }
  if (!same_bits(res_.critical_delay_ps, cold.critical_delay_ps) ||
      !(res_.critical_endpoint == cold.critical_endpoint))
    fail("critical delay/endpoint", netlist::kNoNode);
}

}  // namespace pops::timing
