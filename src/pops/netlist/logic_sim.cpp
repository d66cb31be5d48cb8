#include "pops/netlist/logic_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace pops::netlist {

std::vector<bool> LogicSimulator::eval_all(const std::vector<bool>& pi_values) const {
  const Netlist& nl = *nl_;
  if (pi_values.size() != nl.inputs().size())
    throw std::invalid_argument("LogicSimulator: expected " +
                                std::to_string(nl.inputs().size()) +
                                " PI values, got " +
                                std::to_string(pi_values.size()));
  std::vector<bool> value(nl.size(), false);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    value[static_cast<std::size_t>(nl.inputs()[i])] = pi_values[i];

  bool scratch[8];  // library arity is at most 4
  for (NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    if (n.is_input) continue;
    const std::size_t arity = n.fanins.size();
    if (arity > std::size(scratch))
      throw std::logic_error("eval_all: gate arity exceeds library maximum");
    for (std::size_t k = 0; k < arity; ++k)
      scratch[k] = value[static_cast<std::size_t>(n.fanins[k])];
    value[static_cast<std::size_t>(id)] =
        nl.cell_of(id).eval({scratch, arity});
  }
  return value;
}

std::vector<bool> LogicSimulator::eval_outputs(const std::vector<bool>& pi_values) const {
  const std::vector<bool> all = eval_all(pi_values);
  std::vector<bool> out;
  for (NodeId id : nl_->outputs()) out.push_back(all[static_cast<std::size_t>(id)]);
  return out;
}

namespace {

/// PI index mapping of `b` onto the PI order of `a`, matched by name.
std::vector<std::size_t> match_inputs(const Netlist& a, const Netlist& b) {
  if (a.inputs().size() != b.inputs().size())
    throw std::invalid_argument("equivalent: PI count mismatch");
  std::vector<std::size_t> map(b.inputs().size());
  for (std::size_t i = 0; i < b.inputs().size(); ++i) {
    const std::string& name = b.node(b.inputs()[i]).name;
    NodeId in_a = a.find(name);
    bool found = false;
    for (std::size_t j = 0; j < a.inputs().size(); ++j) {
      if (a.inputs()[j] == in_a) {
        map[i] = j;
        found = true;
        break;
      }
    }
    if (!found)
      throw std::invalid_argument("equivalent: PI " + name + " missing in lhs");
  }
  return map;
}

/// PO name list of `nl`, sorted for stable comparison order.
std::vector<std::string> sorted_po_names(const Netlist& nl) {
  std::vector<std::string> names;
  for (NodeId id : nl.outputs()) names.push_back(nl.node(id).name);
  std::sort(names.begin(), names.end());
  return names;
}

/// Fill `pi` with the next `lanes` vectors from `rng`: vector-major, one
/// bernoulli(0.5) draw per PI — the order the scalar simulator always drew
/// in — with vector j packed into lane j.
void draw_lanes(util::Rng& rng, int lanes, std::vector<std::uint64_t>& pi) {
  std::fill(pi.begin(), pi.end(), 0ull);
  for (int lane = 0; lane < lanes; ++lane)
    for (std::uint64_t& word : pi)
      word |= static_cast<std::uint64_t>(rng.bernoulli(0.5)) << lane;
}

/// Word-parallel zero-delay evaluator: lane j (bit j) of every word is an
/// independent input vector, so one pass over topo_order() evaluates 64
/// vectors. Cells are resolved and gate arities checked once, at
/// construction. Holds a pointer; the netlist must outlive it.
class WordSimulator {
 public:
  static constexpr int kLanes = 64;

  explicit WordSimulator(const Netlist& nl);

  /// Evaluate every node. `pi_words[i]` carries the lanes of
  /// `nl.inputs()[i]`. Returns one word per NodeId, valid until the next
  /// call.
  const std::vector<std::uint64_t>& eval(
      const std::vector<std::uint64_t>& pi_words);

 private:
  /// Widest fanin the gather buffer holds (the library's widest is 4).
  static constexpr std::size_t kMaxArity = 8;

  struct Gate {
    NodeId id;
    const liberty::Cell* cell;
    std::uint32_t first_fanin;  ///< offset into fanins_
    std::uint32_t arity;
  };

  const Netlist* nl_;
  std::vector<Gate> gates_;     ///< in topo_order()
  std::vector<NodeId> fanins_;  ///< flattened fanin lists of gates_
  std::vector<std::uint64_t> value_;
};

/// Mask of the low `lanes` lanes of a word, 1 <= lanes <= 64.
std::uint64_t lane_mask(int lanes) {
  return lanes == WordSimulator::kLanes ? ~0ull : (1ull << lanes) - 1;
}

WordSimulator::WordSimulator(const Netlist& nl)
    : nl_(&nl), value_(nl.size(), 0ull) {
  for (NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    if (n.is_input) continue;
    const liberty::Cell& cell = nl.cell_of(id);
    if (n.fanins.size() > kMaxArity)
      throw std::logic_error(
          "WordSimulator: gate arity exceeds library maximum");
    if (static_cast<int>(n.fanins.size()) != cell.fanin)
      throw std::invalid_argument(
          std::string("Cell::eval arity mismatch for ") + cell.name +
          ": got " + std::to_string(n.fanins.size()));
    gates_.push_back({id, &cell, static_cast<std::uint32_t>(fanins_.size()),
                      static_cast<std::uint32_t>(n.fanins.size())});
    fanins_.insert(fanins_.end(), n.fanins.begin(), n.fanins.end());
  }
}

const std::vector<std::uint64_t>& WordSimulator::eval(
    const std::vector<std::uint64_t>& pi_words) {
  const std::vector<NodeId>& inputs = nl_->inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    value_[static_cast<std::size_t>(inputs[i])] = pi_words[i];

  std::uint64_t in[kMaxArity] = {};
  for (const Gate& g : gates_) {
    const NodeId* fanin = fanins_.data() + g.first_fanin;
    for (std::uint32_t k = 0; k < g.arity; ++k)
      in[k] = value_[static_cast<std::size_t>(fanin[k])];
    value_[static_cast<std::size_t>(g.id)] = g.cell->eval_word({in, g.arity});
  }
  return value_;
}

}  // namespace

bool equivalent(const Netlist& a, const Netlist& b, util::Rng& rng,
                int n_random_vectors, int exhaustive_limit) {
  if (exhaustive_limit < 0 || exhaustive_limit >= WordSimulator::kLanes)
    throw std::invalid_argument(
        "equivalent: exhaustive_limit must be in [0, 63], got " +
        std::to_string(exhaustive_limit));
  if (n_random_vectors <= 0)
    throw std::invalid_argument(
        "equivalent: n_random_vectors must be positive, got " +
        std::to_string(n_random_vectors));
  const std::vector<std::size_t> pi_map = match_inputs(a, b);
  const std::vector<std::string> po_a = sorted_po_names(a);
  const std::vector<std::string> po_b = sorted_po_names(b);
  if (po_a != po_b)
    throw std::invalid_argument("equivalent: PO name sets differ");
  std::vector<std::pair<std::size_t, std::size_t>> po_pairs;
  for (const std::string& name : po_b) {
    const NodeId ia = a.find(name);
    const NodeId ib = b.find(name);
    if (ia == kNoNode || ib == kNoNode)
      throw std::invalid_argument("equivalent: PO lookup failed for " + name);
    po_pairs.emplace_back(static_cast<std::size_t>(ia),
                          static_cast<std::size_t>(ib));
  }

  WordSimulator sim_a(a), sim_b(b);
  const std::size_t n_pi = a.inputs().size();
  std::vector<std::uint64_t> words_a(n_pi), words_b(n_pi);

  // Compare the first `lanes` vectors held in words_a.
  auto word_matches = [&](int lanes) {
    for (std::size_t i = 0; i < n_pi; ++i) words_b[i] = words_a[pi_map[i]];
    const std::vector<std::uint64_t>& va = sim_a.eval(words_a);
    const std::vector<std::uint64_t>& vb = sim_b.eval(words_b);
    const std::uint64_t mask = lane_mask(lanes);
    for (const auto& [ia, ib] : po_pairs)
      if ((va[ia] ^ vb[ib]) & mask) return false;
    return true;
  };

  if (n_pi <= static_cast<std::size_t>(exhaustive_limit)) {
    // Pattern p sets PI i to bit i of p; lane j of a word holds base + j.
    const std::uint64_t total = 1ull << n_pi;
    for (std::uint64_t base = 0; base < total; base += WordSimulator::kLanes) {
      const int lanes = static_cast<int>(
          std::min<std::uint64_t>(WordSimulator::kLanes, total - base));
      std::fill(words_a.begin(), words_a.end(), 0ull);
      for (int lane = 0; lane < lanes; ++lane)
        for (std::size_t i = 0; i < n_pi; ++i)
          words_a[i] |=
              (((base + static_cast<std::uint64_t>(lane)) >> i) & 1ull) << lane;
      if (!word_matches(lanes)) return false;
    }
    return true;
  }

  for (int left = n_random_vectors; left > 0; left -= WordSimulator::kLanes) {
    const int lanes = std::min(WordSimulator::kLanes, left);
    draw_lanes(rng, lanes, words_a);
    if (!word_matches(lanes)) return false;
  }
  return true;
}

ActivityReport estimate_activity(const Netlist& nl, util::Rng& rng,
                                 int n_vectors) {
  if (n_vectors < 2)
    throw std::invalid_argument("estimate_activity: need at least 2 vectors");
  WordSimulator sim(nl);
  std::vector<std::uint64_t> pi(nl.inputs().size());

  // Vector v sits in lane v % 64 of word v / 64. Toggles inside a word are
  // adjacent-lane differences; the pair straddling two words compares the
  // previous word's last lane (`carry`) with this word's first.
  std::vector<int> toggles(nl.size(), 0);
  std::vector<int> ones(nl.size(), 0);
  std::vector<std::uint64_t> carry(nl.size(), 0ull);
  for (int left = n_vectors; left > 0; left -= WordSimulator::kLanes) {
    const int lanes = std::min(WordSimulator::kLanes, left);
    draw_lanes(rng, lanes, pi);
    const std::vector<std::uint64_t>& value = sim.eval(pi);
    const std::uint64_t mask = lane_mask(lanes);
    const std::uint64_t pair_mask = mask >> 1;  // lanes with a successor
    for (std::size_t i = 0; i < value.size(); ++i) {
      const std::uint64_t x = value[i];
      ones[i] += std::popcount(x & mask);
      toggles[i] += std::popcount((x ^ (x >> 1)) & pair_mask);
      if (left < n_vectors)
        toggles[i] += static_cast<int>((x ^ carry[i]) & 1ull);
      carry[i] = x >> (WordSimulator::kLanes - 1);
    }
  }
  ActivityReport report;
  report.toggle_rate.resize(nl.size());
  report.p_one.resize(nl.size());
  const double pairs = static_cast<double>(n_vectors - 1);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    report.toggle_rate[i] = static_cast<double>(toggles[i]) / pairs;
    report.p_one[i] =
        static_cast<double>(ones[i]) / static_cast<double>(n_vectors);
    report.switched_cap_ff_per_vec +=
        report.toggle_rate[i] * nl.load_ff(static_cast<NodeId>(i));
  }
  return report;
}

}  // namespace pops::netlist
