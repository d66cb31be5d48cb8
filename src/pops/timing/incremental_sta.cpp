#include "pops/timing/incremental_sta.hpp"

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

using netlist::Netlist;
using netlist::NodeId;

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Bitwise double comparison: the identity guarantee is "same bits as a
/// cold run", so the change test must distinguish what == would conflate
/// (±0.0) and not conflate what == would split (NaN never propagates as
/// "unchanged").
inline bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
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
  slack_valid_ = false;
  paths_valid_ = false;
  positions_valid_ = false;
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
  // inputs — structure, cin/cload, slews, bounds — are bit-identical and
  // the previous list IS the enumeration result. A different k is not
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

void IncrementalSta::materialize_slacks(double tc_ps) const {
  // One full backward sweep (the historical per-query cost), after which
  // update() maintains both vectors over dirty cones.
  obs::Span span("sta/slack_full");
  req_ = sta_.required_times(res_, tc_ps);
  const std::size_t n = nl_->size();
  slack_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    slack_[i] = sta_.compute_slack(static_cast<NodeId>(i), res_, req_);
  slack_valid_ = true;
  slack_tc_ps_ = tc_ps;
}

const std::vector<double>& IncrementalSta::slacks(double tc_ps) const {
  (void)result();  // throws before the first run
  if (!slack_valid_ || !same_bits(tc_ps, slack_tc_ps_))
    materialize_slacks(tc_ps);
  return slack_;
}

const std::vector<std::array<double, 2>>& IncrementalSta::required_times(
    double tc_ps) const {
  (void)result();
  if (!slack_valid_ || !same_bits(tc_ps, slack_tc_ps_))
    materialize_slacks(tc_ps);
  return req_;
}

const std::vector<double>& IncrementalSta::downstream() const {
  if (!valid_)
    throw std::logic_error("IncrementalSta: no result yet (call run_full)");
  // Lazily computed on first query: consumers that never enumerate paths
  // (the shield pass, initial-delay measurements) skip the O(E) bound
  // sweep entirely; once queried, update() maintains the vector.
  if (!down_valid_) {
    down_ = sta_.downstream_delays(res_);
    down_valid_ = true;
  }
  return down_;
}

void IncrementalSta::rebuild_positions() {
  const auto& topo = nl_->topo_order();
  topo_pos_.assign(nl_->size(), 0);
  for (std::size_t i = 0; i < topo.size(); ++i)
    topo_pos_[static_cast<std::size_t>(topo[i])] = i;
}

void IncrementalSta::grow_arrays(std::size_t n) {
  // Appended nodes start exactly like run_full initializes them: gates
  // get computed before they are read (they are in the dirty set), and an
  // appended PI gets the zero arrival a cold run assigns to inputs.
  const std::size_t old = res_.arrival_ps.size();
  res_.arrival_ps.resize(n, {kNegInf, kNegInf});
  res_.slew_ps.resize(n, {pi_slew_ps_, pi_slew_ps_});
  res_.prev.resize(n, {PathPoint{}, PathPoint{}});
  res_.stage.resize(n, StageLoad{});
  for (std::size_t i = old; i < n; ++i)
    if (nl_->node(static_cast<NodeId>(i)).is_input)
      res_.arrival_ps[i] = {0.0, 0.0};
  if (down_valid_) down_.resize(2 * n, kNegInf);
  if (slack_valid_) {
    // The "unconstrained" defaults; appended nodes are in the dirty set,
    // so the backward worklist computes their real values below — these
    // inits only show through for vertices a cold sweep leaves at +inf.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    req_.resize(n, {kInf, kInf});
    slack_.resize(n, kInf);
  }
  // in_heap_/seed_mark_ are re-assigned by update() whenever the netlist
  // grew (the positions_valid_ branch), so they are not resized here.
}

const StaResult& IncrementalSta::run_full() {
  static const obs::Registry::Counter full_runs =
      obs::Registry::global().counter("sta.full_runs");
  full_runs.add();
  obs::Span span("sta/full");
  // Exactly a cold Sta::run(): the bound vector and the worklist
  // bookkeeping (positions, scratch flags) are materialized on first use,
  // so one-shot consumers (initial-delay measurements) pay nothing extra.
  res_ = sta_.run();
  down_valid_ = false;
  slack_valid_ = false;
  paths_valid_ = false;
  positions_valid_ = false;
  valid_ = true;
  ++revision_;
  return res_;
}

const StaResult& IncrementalSta::update(std::span<const NodeId> dirty,
                                        bool structure_changed) {
  if (!valid_) return run_full();

  // Cold-vs-incremental visibility: every update is counted and its
  // dirty-cone size binned, so a daemon's metrics snapshot shows how
  // much of the hot loop the incremental engine actually absorbs.
  static const obs::Registry::Counter updates =
      obs::Registry::global().counter("sta.updates");
  static const obs::Registry::Histogram cone = obs::Registry::global()
      .histogram("sta.dirty_cone",
                 {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  updates.add();
  cone.observe(static_cast<double>(dirty.size()));
  obs::Span span("sta/update");
  span.arg("dirty", static_cast<double>(dirty.size()));

  // Any reported edit can move an enumeration edge weight (through a
  // dirty sink's cin/cload) even when no maintained value changes bits,
  // so the path cache gates exactly on "a report happened".
  paths_valid_ = false;
  ++revision_;

  const std::size_t n = nl_->size();
  const bool grew = res_.arrival_ps.size() != n;
  if (grew) grow_arrays(n);
  if (grew || structure_changed || !positions_valid_) {
    rebuild_positions();
    in_heap_.assign(n, 0);
    seed_mark_.assign(n, 0);
    positions_valid_ = true;
  }

  // ----- seed set F = dirty ∪ fanins(dirty) ---------------------------------
  // A resize of d changes cin(d) and cpar(d); cin(d) loads every fanin
  // driver (their slew AND delay change), cpar(d) is part of d's own
  // load. So the nodes whose stage inputs (cin, cload) may have moved are
  // exactly F. Structural edits are covered by the dirty-set contract
  // (both endpoints of every rewire are listed). Every gate of F is
  // recomputed below, which re-records its res_.stage entry — the loads
  // the backward passes read — so no stage entry outside F can be stale.
  std::vector<NodeId> seeds;
  auto add_seed = [&](NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    if (seed_mark_[i]) return;
    seed_mark_[i] = 1;
    seeds.push_back(id);
  };
  for (NodeId d : dirty) {
    add_seed(d);
    for (NodeId f : nl_->node(d).fanins) add_seed(f);
  }

  // ----- forward pass: stage loads / arrivals / slews / prev ----------------
  // Worklist ordered by topological position, so every recomputed node
  // reads fanin values that are final for this update — recomputation
  // then replays Sta::compute_node on bit-identical inputs.
  using Pos = std::pair<std::size_t, NodeId>;
  std::priority_queue<Pos, std::vector<Pos>, std::greater<Pos>> fwd;
  auto push_fwd = [&](NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    if (in_heap_[i] || nl_->node(id).is_input) return;
    in_heap_[i] = 1;
    fwd.emplace(topo_pos_[i], id);
  };
  for (NodeId id : seeds) push_fwd(id);

  std::vector<NodeId> slew_changed;
  std::vector<NodeId> arrival_changed;  // slack(n) reads arrival(n)
  while (!fwd.empty()) {
    const NodeId id = fwd.top().second;
    fwd.pop();
    const auto i = static_cast<std::size_t>(id);
    in_heap_[i] = 0;

    const std::array<double, 2> old_arrival = res_.arrival_ps[i];
    const std::array<double, 2> old_slew = res_.slew_ps[i];
    sta_.compute_node(id, res_);

    const bool slew_diff = !same_bits(res_.slew_ps[i][0], old_slew[0]) ||
                           !same_bits(res_.slew_ps[i][1], old_slew[1]);
    const bool arrival_diff =
        !same_bits(res_.arrival_ps[i][0], old_arrival[0]) ||
        !same_bits(res_.arrival_ps[i][1], old_arrival[1]);
    if (slew_diff) slew_changed.push_back(id);
    if (arrival_diff) arrival_changed.push_back(id);
    if (slew_diff || arrival_diff)
      for (NodeId g : nl_->fanouts(id)) push_fwd(g);
  }
  sta_.finalize_critical(res_);

  // ----- backward pass: downstream bounds -----------------------------------
  // down[f] reads, per fanout g of f: cin(g), cload(g) (changed ⊆ F, so
  // the readers are fanins(F)), slew(f) (changed = slew_changed), f's own
  // fanout set / PO flag (changed nodes are in the dirty set ⊆ F), and
  // down[g] (propagated below). Only maintained once a consumer has asked
  // for the bounds (down_valid_); never-enumerating users skip it.
  if (down_valid_) {
    std::priority_queue<Pos> bwd;  // max position first = reverse topo
    auto push_bwd = [&](NodeId id) {
      const auto i = static_cast<std::size_t>(id);
      if (in_heap_[i]) return;
      in_heap_[i] = 1;
      bwd.emplace(topo_pos_[i], id);
    };
    for (NodeId id : seeds) {
      push_bwd(id);
      for (NodeId f : nl_->node(id).fanins) push_bwd(f);
    }
    for (NodeId id : slew_changed) push_bwd(id);

    while (!bwd.empty()) {
      const NodeId id = bwd.top().second;
      bwd.pop();
      const auto i = static_cast<std::size_t>(id);
      in_heap_[i] = 0;

      bool changed = false;
      for (Edge e : {Edge::Rise, Edge::Fall}) {
        const std::size_t v = 2 * i + StaResult::idx(e);
        const double fresh = sta_.compute_down(id, e, res_, down_);
        if (!same_bits(fresh, down_[v])) {
          down_[v] = fresh;
          changed = true;
        }
      }
      if (changed)
        for (NodeId f : nl_->node(id).fanins) push_bwd(f);
    }
  }

  // ----- backward pass: required times + slacks -----------------------------
  // req[id] reads, per fanout g: cin(g)/cload(g) (changed g ∈ seeds ⇒
  // readers ⊆ fanins(seeds)), slew(id) (slew_changed), id's own PO flag /
  // fanout set (dirty ⊆ seeds), and req[g] (propagated) — the same seed
  // set as the bound pass above. slack(id) then reads only (arrival(id),
  // req(id)), so recomputing it for the union of arrival-changed and
  // req-changed nodes is exhaustive. Only maintained once a consumer has
  // queried slacks()/required_times() at some tc.
  if (slack_valid_) {
    obs::Span slack_span("sta/slack_update");
    std::priority_queue<Pos> bwd;  // max position first = reverse topo
    auto push_bwd = [&](NodeId id) {
      const auto i = static_cast<std::size_t>(id);
      if (in_heap_[i]) return;
      in_heap_[i] = 1;
      bwd.emplace(topo_pos_[i], id);
    };
    for (NodeId id : seeds) {
      push_bwd(id);
      for (NodeId f : nl_->node(id).fanins) push_bwd(f);
    }
    for (NodeId id : slew_changed) push_bwd(id);

    std::vector<NodeId> req_changed;
    while (!bwd.empty()) {
      const NodeId id = bwd.top().second;
      bwd.pop();
      const auto i = static_cast<std::size_t>(id);
      in_heap_[i] = 0;

      const std::array<double, 2> old_req = req_[i];
      sta_.compute_required(id, res_, slack_tc_ps_, req_);
      if (!same_bits(req_[i][0], old_req[0]) ||
          !same_bits(req_[i][1], old_req[1])) {
        req_changed.push_back(id);
        for (NodeId f : nl_->node(id).fanins) push_bwd(f);
      }
    }

    slack_span.arg("req_changed", static_cast<double>(req_changed.size()));
    for (NodeId id : arrival_changed)
      slack_[static_cast<std::size_t>(id)] =
          sta_.compute_slack(id, res_, req_);
    for (NodeId id : req_changed)
      slack_[static_cast<std::size_t>(id)] =
          sta_.compute_slack(id, res_, req_);
  }

  for (NodeId id : seeds) seed_mark_[static_cast<std::size_t>(id)] = 0;

#ifndef NDEBUG
  check_against_full();  // the exactness guarantee, paid only in debug
#endif
  return res_;
}

void IncrementalSta::check_against_full() const {
  if (!valid_)
    throw std::logic_error("IncrementalSta: no result to check");
  const StaResult cold = sta_.run();
  // The bound / required / slack vectors only exist once a consumer
  // queried them; compare them only then (the forward state is always
  // checked).
  const std::vector<double> cold_down =
      down_valid_ ? sta_.downstream_delays(cold) : std::vector<double>{};
  const std::vector<std::array<double, 2>> cold_req =
      slack_valid_ ? sta_.required_times(cold, slack_tc_ps_)
                   : std::vector<std::array<double, 2>>{};
  const std::vector<double> cold_slack =
      slack_valid_ ? sta_.slacks(cold, slack_tc_ps_) : std::vector<double>{};

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
      if (slack_valid_ && !same_bits(req_[i][e], cold_req[i][e]))
        fail("required", id);
    }
    if (!same_bits(res_.stage[i].cin_ff, cold.stage[i].cin_ff) ||
        !same_bits(res_.stage[i].cload_ff, cold.stage[i].cload_ff))
      fail("stage load", static_cast<NodeId>(i));
    if (slack_valid_ && !same_bits(slack_[i], cold_slack[i]))
      fail("slack", static_cast<NodeId>(i));
  }
  if (!same_bits(res_.critical_delay_ps, cold.critical_delay_ps) ||
      !(res_.critical_endpoint == cold.critical_endpoint))
    fail("critical delay/endpoint", netlist::kNoNode);
}

}  // namespace pops::timing
