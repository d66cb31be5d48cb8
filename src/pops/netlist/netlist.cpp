#include "pops/netlist/netlist.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace pops::netlist {

namespace {
NodeClass class_of(const Node& n) {
  return static_cast<NodeClass>(static_cast<NodeClass>(n.kind) & kClassKind) |
         (n.is_input ? kClassInput : NodeClass{0}) |
         (n.is_output ? kClassOutput : NodeClass{0});
}
}  // namespace

Netlist::Netlist(const liberty::Library& lib, std::string name)
    : lib_(&lib), name_(std::move(name)) {}

Netlist Netlist::from_nodes(const liberty::Library& lib, std::string name,
                            std::vector<Node> nodes, int fresh_counter) {
  Netlist nl(lib, std::move(name));
  nl.nodes_ = std::move(nodes);
  nl.class_.reserve(nl.nodes_.size());
  for (NodeId id = 0; id < static_cast<NodeId>(nl.nodes_.size()); ++id) {
    const Node& n = nl.nodes_[static_cast<std::size_t>(id)];
    nl.class_.push_back(class_of(n));
    if (!nl.by_name_.emplace(n.name, id).second)
      throw std::invalid_argument("Netlist::from_nodes: duplicate node name " +
                                  n.name);
    if (n.is_input) nl.inputs_.push_back(id);
    if (n.is_output) nl.outputs_.push_back(id);
  }
  nl.fresh_counter_ = fresh_counter;
  nl.validate();  // arity, fanin range, drive range, acyclicity, dangling
  return nl;
}

NodeId Netlist::add_node(Node node) {
  if (by_name_.count(node.name))
    throw std::invalid_argument("Netlist: duplicate node name " + node.name);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  by_name_.emplace(node.name, id);
  // The new id is the largest, so appending keeps every list ascending.
  if (fanouts_valid_) {
    for (NodeId f : node.fanins)
      fanouts_[static_cast<std::size_t>(f)].push_back(id);
    fanouts_.emplace_back();
  }
  class_.push_back(class_of(node));
  nodes_.push_back(std::move(node));
  topo_valid_ = false;
  return id;
}

NodeId Netlist::add_input(const std::string& name) {
  Node n;
  n.name = name;
  n.is_input = true;
  const NodeId id = add_node(std::move(n));
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_gate(liberty::CellKind kind, const std::string& name,
                         const std::vector<NodeId>& fanins) {
  const liberty::Cell& cell = lib_->cell(kind);
  if (static_cast<int>(fanins.size()) != cell.fanin)
    throw std::invalid_argument("Netlist: gate " + name + " of kind " +
                                cell.name + " needs " +
                                std::to_string(cell.fanin) + " fanins, got " +
                                std::to_string(fanins.size()));
  for (NodeId f : fanins)
    if (f < 0 || f >= static_cast<NodeId>(nodes_.size()))
      throw std::invalid_argument("Netlist: gate " + name + " has invalid fanin");
  Node n;
  n.name = name;
  n.kind = kind;
  n.fanins = fanins;
  n.wn_um = lib_->wmin_um();
  return add_node(std::move(n));
}

void Netlist::mark_output(NodeId id, double load_ff) {
  Node& n = nodes_.at(static_cast<std::size_t>(id));
  if (!n.is_output)
    outputs_.insert(std::upper_bound(outputs_.begin(), outputs_.end(), id), id);
  n.is_output = true;
  n.po_load_ff = load_ff;
  class_[static_cast<std::size_t>(id)] |= kClassOutput;
}

const Node& Netlist::node(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id));
}

NodeId Netlist::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoNode : it->second;
}

std::vector<NodeId> Netlist::gates() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id)
    if (!nodes_[static_cast<std::size_t>(id)].is_input) out.push_back(id);
  return out;
}

const std::vector<NodeId>& Netlist::fanouts(NodeId id) const {
  if (!fanouts_valid_) build_fanouts();
  return fanouts_.at(static_cast<std::size_t>(id));
}

const std::vector<NodeId>& Netlist::topo_order() const {
  if (!topo_valid_) rebuild_topo();
  return topo_;
}

const liberty::Cell& Netlist::cell_of(NodeId id) const {
  const Node& n = node(id);
  if (n.is_input) throw std::invalid_argument("cell_of: " + n.name + " is a PI");
  return lib_->cell(n.kind);
}

double Netlist::drive(NodeId id) const {
  const Node& n = node(id);
  if (n.is_input) throw std::invalid_argument("drive: " + n.name + " is a PI");
  return n.wn_um;
}

void Netlist::set_drive(NodeId id, double wn_um) {
  Node& n = nodes_.at(static_cast<std::size_t>(id));
  if (n.is_input) throw std::invalid_argument("set_drive: " + n.name + " is a PI");
  n.wn_um = std::clamp(wn_um, lib_->wmin_um(), lib_->wmax_um());
}

void Netlist::set_all_min_drive() {
  for (Node& n : nodes_)
    if (!n.is_input) n.wn_um = lib_->wmin_um();
}

int Netlist::vt_class(NodeId id) const {
  const Node& n = node(id);
  if (n.is_input) throw std::invalid_argument("vt_class: " + n.name + " is a PI");
  return n.vt;
}

void Netlist::set_vt_class(NodeId id, int cls) {
  Node& n = nodes_.at(static_cast<std::size_t>(id));
  if (n.is_input)
    throw std::invalid_argument("set_vt_class: " + n.name + " is a PI");
  if (cls < 0 ||
      static_cast<std::size_t>(cls) >= lib_->tech().n_vt_classes())
    throw std::invalid_argument("set_vt_class: " + n.name +
                                ": technology has no vt class " +
                                std::to_string(cls));
  n.vt = cls;
}

void Netlist::set_wire_cap(NodeId id, double cap_ff) {
  nodes_.at(static_cast<std::size_t>(id)).wire_cap_ff = cap_ff;
}

double Netlist::load_ff(NodeId id) const {
  const Node& n = node(id);
  double cap = n.wire_cap_ff + (n.is_output ? n.po_load_ff : 0.0);
  for (NodeId sink : fanouts(id)) cap += cin_ff(sink);
  return cap;
}

double Netlist::cin_ff(NodeId id) const {
  const Node& n = node(id);
  if (n.is_input) throw std::invalid_argument("cin_ff: " + n.name + " is a PI");
  return lib_->cell(n.kind).cin_ff(lib_->tech(), n.wn_um);
}

double Netlist::cpar_ff(NodeId id) const {
  const Node& n = node(id);
  if (n.is_input) return 0.0;  // PI drivers are external; no modelled drain cap
  return lib_->cell(n.kind).cpar_ff(lib_->tech(), n.wn_um);
}

double Netlist::total_width_um() const {
  double w = 0.0;
  for (const Node& n : nodes_)
    if (!n.is_input) w += lib_->cell(n.kind).total_width_um(n.wn_um);
  return w;
}

NodeId Netlist::insert_buffer(NodeId driver, liberty::CellKind kind,
                              const std::string& name,
                              const std::vector<NodeId>& sinks) {
  if (kind != liberty::CellKind::Inv && kind != liberty::CellKind::Buf)
    throw std::invalid_argument("insert_buffer: kind must be Inv or Buf");
  // Snapshot the sinks before mutating.
  std::vector<NodeId> targets = sinks.empty() ? fanouts(driver) : sinks;
  const bool capture_po = sinks.empty() && node(driver).is_output;

  // Reject the whole edit before touching anything: every listed sink
  // must read `driver` on at least as many pins as it is listed (add_gate
  // below still checks the name before it mutates).
  std::vector<NodeId> sorted = targets;
  std::sort(sorted.begin(), sorted.end());
  for (auto run = sorted.begin(); run != sorted.end();) {
    const auto end = std::upper_bound(run, sorted.end(), *run);
    const std::vector<NodeId>& pins = node(*run).fanins;
    if (std::count(pins.begin(), pins.end(), driver) < end - run)
      throw std::invalid_argument("insert_buffer: " + node(driver).name +
                                  " does not feed " + node(*run).name);
    run = end;
  }

  const NodeId buf = add_gate(kind, name, {driver});
  for (NodeId sink : targets) rewire_fanin(sink, driver, buf);
  if (capture_po) {
    Node& d = nodes_[static_cast<std::size_t>(driver)];
    Node& b = nodes_[static_cast<std::size_t>(buf)];
    b.is_output = true;
    b.po_load_ff = d.po_load_ff;
    b.wire_cap_ff = d.wire_cap_ff;
    d.is_output = false;
    d.po_load_ff = 0.0;
    d.wire_cap_ff = 0.0;
    class_[static_cast<std::size_t>(buf)] |= kClassOutput;
    class_[static_cast<std::size_t>(driver)] &=
        static_cast<NodeClass>(~kClassOutput);
    // buf is the largest id: it goes last.
    outputs_.erase(std::lower_bound(outputs_.begin(), outputs_.end(), driver));
    outputs_.push_back(buf);
  }
  return buf;
}

void Netlist::replace_cell(NodeId id, liberty::CellKind kind) {
  Node& n = nodes_.at(static_cast<std::size_t>(id));
  if (n.is_input) throw std::invalid_argument("replace_cell: PI " + n.name);
  const liberty::Cell& neu = lib_->cell(kind);
  if (neu.fanin != static_cast<int>(n.fanins.size()))
    throw std::invalid_argument("replace_cell: arity mismatch replacing " +
                                n.name + " with " + neu.name);
  n.kind = kind;
  class_[static_cast<std::size_t>(id)] = class_of(n);
}

void Netlist::rewire_fanin(NodeId gate, NodeId old_driver, NodeId new_driver) {
  Node& g = nodes_.at(static_cast<std::size_t>(gate));
  auto it = std::find(g.fanins.begin(), g.fanins.end(), old_driver);
  if (it == g.fanins.end())
    throw std::invalid_argument("rewire_fanin: " + node(old_driver).name +
                                " does not feed " + g.name);
  if (new_driver < 0 || new_driver >= static_cast<NodeId>(nodes_.size()))
    throw std::invalid_argument("rewire_fanin: invalid new driver for " +
                                g.name);
  *it = new_driver;
  if (fanouts_valid_) {
    unlink(old_driver, gate);
    link(new_driver, gate);
  }
  topo_valid_ = false;
}

void Netlist::link(NodeId driver, NodeId sink) {
  std::vector<NodeId>& fo = fanouts_[static_cast<std::size_t>(driver)];
  fo.insert(std::upper_bound(fo.begin(), fo.end(), sink), sink);
}

void Netlist::unlink(NodeId driver, NodeId sink) {
  std::vector<NodeId>& fo = fanouts_[static_cast<std::size_t>(driver)];
  fo.erase(std::lower_bound(fo.begin(), fo.end(), sink));
}

void Netlist::rename(NodeId id, const std::string& new_name) {
  Node& n = nodes_.at(static_cast<std::size_t>(id));
  if (n.name == new_name) return;
  if (by_name_.count(new_name))
    throw std::invalid_argument("rename: name taken: " + new_name);
  by_name_.erase(n.name);
  n.name = new_name;
  by_name_.emplace(new_name, id);
}

std::vector<int> Netlist::depths() const {
  std::vector<int> depth(nodes_.size(), 0);
  for (NodeId id : topo_order()) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.is_input) continue;
    int d = 0;
    for (NodeId f : n.fanins)
      d = std::max(d, depth[static_cast<std::size_t>(f)]);
    depth[static_cast<std::size_t>(id)] = d + 1;
  }
  return depth;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  const std::vector<int> d = depths();
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.is_input) {
      ++s.n_inputs;
    } else {
      ++s.n_gates;
      ++s.gates_by_kind[lib_->cell(n.kind).name];
      s.depth = std::max(s.depth, static_cast<std::size_t>(d[static_cast<std::size_t>(id)]));
    }
    if (n.is_output) ++s.n_outputs;
  }
  return s;
}

void Netlist::validate() const {
  // Unique names guaranteed by construction; check arity and fanin ranges.
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.is_input) {
      if (!n.fanins.empty())
        throw std::logic_error("validate: PI " + n.name + " has fanins");
      continue;
    }
    const liberty::Cell& c = lib_->cell(n.kind);
    if (static_cast<int>(n.fanins.size()) != c.fanin)
      throw std::logic_error("validate: " + n.name + " arity mismatch");
    for (NodeId f : n.fanins)
      if (f < 0 || f >= static_cast<NodeId>(nodes_.size()))
        throw std::logic_error("validate: " + n.name + " bad fanin id");
    if (n.wn_um < lib_->wmin_um() - 1e-12 || n.wn_um > lib_->wmax_um() + 1e-12)
      throw std::logic_error("validate: " + n.name + " drive out of range");
    if (n.vt < 0 ||
        static_cast<std::size_t>(n.vt) >= lib_->tech().n_vt_classes())
      throw std::logic_error("validate: " + n.name + " vt class " +
                             std::to_string(n.vt) +
                             " not offered by the technology");
  }
  // Acyclicity: topo must cover all nodes (rebuild_topo throws on cycle).
  if (topo_order().size() != nodes_.size())
    throw std::logic_error("validate: cycle detected");
  // Dangling internal nodes.
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (!n.is_output && fanouts(id).empty() && !n.is_input)
      throw std::logic_error("validate: dangling gate " + n.name);
  }
}

std::string Netlist::fresh_name(const std::string& prefix) {
  std::string candidate;
  do {
    candidate = prefix + "_" + std::to_string(fresh_counter_++);
  } while (by_name_.count(candidate));
  return candidate;
}

std::vector<NodeId> Netlist::compact(std::vector<NodeId>* reloaded) {
  const std::size_t n = nodes_.size();
  const std::vector<NodeId>& topo = topo_order();  // also builds fanouts_

  // Live = a primary output or a transitive fanin of one: in reverse
  // topological order, a PO or a node with a live sink.
  std::vector<char> live(n, 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const auto i = static_cast<std::size_t>(*it);
    char l = nodes_[i].is_output ? 1 : 0;
    for (auto s = fanouts_[i].begin(); !l && s != fanouts_[i].end(); ++s)
      l = live[static_cast<std::size_t>(*s)];
    live[i] = l;
  }

  std::vector<NodeId> remap(n, kNoNode);
  NodeId next = 0;
  for (NodeId pi : inputs_) remap[static_cast<std::size_t>(pi)] = next++;
  for (NodeId id : topo)
    if (!nodes_[static_cast<std::size_t>(id)].is_input &&
        live[static_cast<std::size_t>(id)])
      remap[static_cast<std::size_t>(id)] = next++;
  fresh_counter_ = 0;
  bool identity = true;
  for (std::size_t i = 0; i < n && identity; ++i)
    identity = remap[i] == static_cast<NodeId>(i);
  if (identity) return remap;

  // Rewrite ids in place while the records still sit at their old ids.
  // A fanout list drops its removed sinks and is put in new-id order; one
  // whose order changed but lost nothing sums the same cins in another
  // order, and load_ff() before and after tells whether that moved its
  // bits. Removed names leave the index, moved ones are re-pointed.
  const auto by_new_id = [&](NodeId a, NodeId b) {
    return remap[static_cast<std::size_t>(a)] <
           remap[static_cast<std::size_t>(b)];
  };
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId to = remap[i];
    if (to == kNoNode) {
      by_name_.erase(nodes_[i].name);
      continue;
    }
    if (to != static_cast<NodeId>(i))
      by_name_.find(nodes_[i].name)->second = to;
    for (NodeId& f : nodes_[i].fanins) f = remap[static_cast<std::size_t>(f)];
    std::vector<NodeId>& fo = fanouts_[i];
    const std::size_t before = fo.size();
    std::size_t kept = 0;
    bool sorted = true;
    for (NodeId s : fo) {
      if (remap[static_cast<std::size_t>(s)] == kNoNode) continue;
      if (kept > 0 && by_new_id(s, fo[kept - 1])) sorted = false;
      fo[kept++] = s;
    }
    fo.resize(kept);
    bool moved = kept != before;
    if (!sorted) {
      const double old_load = moved ? 0.0 : load_ff(static_cast<NodeId>(i));
      std::sort(fo.begin(), fo.end(), by_new_id);
      moved = moved || std::bit_cast<std::uint64_t>(old_load) !=
                           std::bit_cast<std::uint64_t>(
                               load_ff(static_cast<NodeId>(i)));
    }
    if (reloaded != nullptr && moved) reloaded->push_back(to);
    for (NodeId& s : fo) s = remap[static_cast<std::size_t>(s)];
  }

  // Then the records, lists and class bytes move to their new ids.
  const auto m = static_cast<std::size_t>(next);
  std::vector<Node> nodes(m);
  std::vector<std::vector<NodeId>> fanouts(m);
  std::vector<NodeClass> classes(m);
  for (std::size_t i = 0; i < n; ++i) {
    if (remap[i] == kNoNode) continue;
    const auto k = static_cast<std::size_t>(remap[i]);
    nodes[k] = std::move(nodes_[i]);
    fanouts[k] = std::move(fanouts_[i]);
    classes[k] = class_[i];
  }
  nodes_ = std::move(nodes);
  fanouts_ = std::move(fanouts);
  class_ = std::move(classes);
  for (std::size_t k = 0; k < inputs_.size(); ++k)
    inputs_[k] = static_cast<NodeId>(k);
  outputs_.clear();
  for (std::size_t id = 0; id < m; ++id)
    if (nodes_[id].is_output) outputs_.push_back(static_cast<NodeId>(id));
  topo_valid_ = false;
  return remap;
}

void Netlist::build_fanouts() const {
  // Out-of-range fanins (a from_nodes record set before validate() has
  // rejected it) are skipped rather than indexed.
  const auto n = static_cast<NodeId>(nodes_.size());
  fanouts_.assign(nodes_.size(), {});
  for (NodeId id = 0; id < n; ++id)
    for (NodeId f : nodes_[static_cast<std::size_t>(id)].fanins)
      if (f >= 0 && f < n) fanouts_[static_cast<std::size_t>(f)].push_back(id);
  fanouts_valid_ = true;
}

void Netlist::rebuild_topo() const {
  // Reuses the previous rebuild's storage: Kahn's FIFO is topo_ itself
  // (ready nodes are appended, `head` pops), so an edit that does not
  // grow the netlist rebuilds without allocating. The order is FIFO
  // Kahn's over ids with ascending fanout lists — compact() renumbers
  // nodes in it, so it must not change.
  if (!fanouts_valid_) build_fanouts();
  const std::size_t n = nodes_.size();
  indeg_.resize(n);
  topo_.clear();
  topo_.reserve(n);
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    const Node& nd = nodes_[static_cast<std::size_t>(id)];
    indeg_[static_cast<std::size_t>(id)] = static_cast<int>(nd.fanins.size());
    if (nd.fanins.empty()) topo_.push_back(id);
  }
  for (std::size_t head = 0; head < topo_.size(); ++head)
    for (NodeId s : fanouts_[static_cast<std::size_t>(topo_[head])])
      if (--indeg_[static_cast<std::size_t>(s)] == 0) topo_.push_back(s);
  if (topo_.size() != n)
    throw std::logic_error("Netlist: combinational cycle detected");
  topo_valid_ = true;
}

NodeId build_wide_gate(Netlist& nl, bool is_and, bool invert,
                       std::vector<NodeId> terms, const std::string& prefix) {
  using liberty::CellKind;
  if (terms.empty()) throw std::invalid_argument("build_wide_gate: no terms");

  // Single term: identity (with inversion if requested).
  if (terms.size() == 1) {
    if (!invert) return terms[0];
    return nl.add_gate(CellKind::Inv, nl.fresh_name(prefix + "_inv"), {terms[0]});
  }

  // Reduce with inverting primitives of arity <= 4; each NAND/NOR layer
  // flips the polarity, so alternate AND<->OR duals (De Morgan) to keep the
  // logic straight and invert at the end only if needed.
  auto layer_kind = [](bool and_layer, std::size_t arity) {
    switch (arity) {
      case 2: return and_layer ? CellKind::Nand2 : CellKind::Nor2;
      case 3: return and_layer ? CellKind::Nand3 : CellKind::Nor3;
      default: return and_layer ? CellKind::Nand4 : CellKind::Nor4;
    }
  };

  bool and_layer = is_and;
  bool polarity_inverted = false;  // outputs of current `terms` inverted?
  while (terms.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < terms.size();) {
      const std::size_t take = std::min<std::size_t>(4, terms.size() - i);
      if (take == 1) {
        // Odd leftover: pass through an inverter to keep polarity uniform.
        next.push_back(nl.add_gate(CellKind::Inv,
                                   nl.fresh_name(prefix + "_pas"),
                                   {terms[i]}));
        i += 1;
        continue;
      }
      std::vector<NodeId> group(terms.begin() + static_cast<long>(i),
                                terms.begin() + static_cast<long>(i + take));
      next.push_back(nl.add_gate(layer_kind(and_layer, take),
                                 nl.fresh_name(prefix + "_t"), group));
      i += take;
    }
    terms = std::move(next);
    polarity_inverted = !polarity_inverted;
    and_layer = !and_layer;  // De Morgan dual for the next layer
  }

  NodeId root = terms[0];
  const bool want_inverted = invert;
  if (polarity_inverted != want_inverted)
    root = nl.add_gate(CellKind::Inv, nl.fresh_name(prefix + "_fix"), {root});
  return root;
}

}  // namespace pops::netlist
