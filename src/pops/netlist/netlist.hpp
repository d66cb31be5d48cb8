#pragma once
// Gate-level combinational netlist.
//
// The netlist is a DAG of nodes; a node is either a primary input or a gate
// instantiating a library cell. Each gate carries its *drive* `wn` (NMOS
// width, µm) — the sizing variable of the whole paper — plus a fixed wire
// capacitance on its output net. Primary outputs carry an external load
// (the input capacitance of the register/latch the path ends on), which is
// what makes extracted paths "bounded" in the paper's sense.
//
// Editing operations used by the optimizer (buffer insertion, gate
// replacement for De Morgan restructuring) preserve names of untouched
// nodes. They keep the primary-output list and — once built by a first
// query — the fanout lists current in place (O(edit)); only the cached
// topological order is dropped and rebuilt on its next query. A netlist
// nobody queries (a parsed prototype that is only copied) never pays for
// fanout lists.
//
// Next to the node records the netlist keeps one dense byte per node (see
// NodeClass): the cell kind and the PI / PO flags, which is all the timing
// kernels' graph walks read of a node. Every edit that sets a kind or a
// flag updates it in O(edit), so a sweep touches a byte per node instead
// of a ~100-byte record.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "pops/liberty/library.hpp"

namespace pops::netlist {

/// Index of a node inside a Netlist. Stable across edits that only append.
using NodeId = int;
inline constexpr NodeId kNoNode = -1;

/// One node of the DAG: a primary input or a sized gate.
struct Node {
  std::string name;                 ///< unique within the netlist
  bool is_input = false;            ///< primary input?
  liberty::CellKind kind = liberty::CellKind::Inv;  ///< valid iff gate
  std::vector<NodeId> fanins;       ///< driver nodes, size == cell fanin
  double wn_um = 0.0;               ///< drive (µm); meaningful iff gate
  double wire_cap_ff = 0.0;         ///< fixed interconnect cap on output net
  bool is_output = false;           ///< drives a primary output
  double po_load_ff = 0.0;          ///< external load when is_output
  /// Threshold-voltage implant class (index into Technology::vt_classes);
  /// 0 = the standard-Vt base device. Meaningful iff gate. Assigned by
  /// the multi-Vt pass; timing derates and leakage models read it.
  int vt = 0;
};

/// Dense per-node class byte (Netlist::classes()): the cell kind in the low
/// four bits (meaningful iff gate) plus the PI and PO flags.
using NodeClass = std::uint8_t;
inline constexpr NodeClass kClassKind = 0x0F;
inline constexpr NodeClass kClassInput = 0x10;
inline constexpr NodeClass kClassOutput = 0x20;
static_assert(liberty::kCellKindCount <= kClassKind + 1,
              "every cell kind must fit the class byte's kind bits");

inline liberty::CellKind class_kind(NodeClass c) noexcept {
  return static_cast<liberty::CellKind>(c & kClassKind);
}

/// Aggregate statistics (used by reports and the benchmark tables).
struct NetlistStats {
  std::size_t n_inputs = 0;
  std::size_t n_outputs = 0;
  std::size_t n_gates = 0;
  std::size_t depth = 0;  ///< max #gates on any PI->PO path
  std::unordered_map<std::string, std::size_t> gates_by_kind;
};

class Netlist {
 public:
  /// Create an empty netlist over `lib` (not owned; must outlive the netlist).
  explicit Netlist(const liberty::Library& lib, std::string name = "top");

  /// Reconstruct a netlist from raw node records (deserialization —
  /// service/cache_io.hpp). add_gate cannot replay an optimized netlist:
  /// buffer insertion re-points existing fanins at later-appended nodes,
  /// so fanins may reference *forward*. from_nodes admits any DAG order,
  /// rebuilds the name index and input list, restores the fresh-name
  /// counter, and runs validate(); a structurally invalid node set throws
  /// std::logic_error / std::invalid_argument with a diagnostic.
  static Netlist from_nodes(const liberty::Library& lib, std::string name,
                            std::vector<Node> nodes, int fresh_counter = 0);

  /// The fresh_name counter (persisted so a deserialized netlist names
  /// future inserted buffers exactly like the original would).
  int fresh_counter() const noexcept { return fresh_counter_; }

  const liberty::Library& lib() const noexcept { return *lib_; }
  const std::string& name() const noexcept { return name_; }

  // ----- construction ------------------------------------------------------

  /// Add a primary input. Throws if the name is already taken.
  NodeId add_input(const std::string& name);

  /// Add a gate of `kind` with the given fanins (arity-checked against the
  /// library cell). Initial drive is the library minimum. Throws on bad
  /// arity, unknown fanin ids, or duplicate name.
  NodeId add_gate(liberty::CellKind kind, const std::string& name,
                  const std::vector<NodeId>& fanins);

  /// Mark `id` as a primary output with external load `load_ff` (fF).
  void mark_output(NodeId id, double load_ff);

  // ----- access -------------------------------------------------------------

  std::size_t size() const noexcept { return nodes_.size(); }
  const Node& node(NodeId id) const;
  bool is_gate(NodeId id) const { return !node(id).is_input; }

  /// Node id by name; kNoNode if absent.
  NodeId find(const std::string& name) const;

  /// Ids of all primary inputs / primary outputs / gates. inputs() and
  /// outputs() are maintained lists (ascending ids); the references stay
  /// valid until the next edit.
  const std::vector<NodeId>& inputs() const noexcept { return inputs_; }
  const std::vector<NodeId>& outputs() const noexcept { return outputs_; }
  std::vector<NodeId> gates() const;

  /// Gates fed by node `id`, ascending by id; a gate reading `id` on two
  /// pins is listed twice. Built on the first query, then kept current by
  /// every edit — always exactly the list a from-scratch scan of all
  /// fanins produces, which load_ff() sums in.
  const std::vector<NodeId>& fanouts(NodeId id) const;

  /// One NodeClass per node, indexed by id: always equal to the kind,
  /// is_input and is_output of the node records (every edit keeps it so).
  /// The reference stays valid until the next edit.
  const std::vector<NodeClass>& classes() const noexcept { return class_; }

  /// Topological order over all nodes (inputs first): FIFO Kahn's over
  /// ascending ids. Cached; dropped by connectivity edits and rebuilt on
  /// the next query (compact() numbers live gates in this exact order, and
  /// write_bench writes in it).
  const std::vector<NodeId>& topo_order() const;

  /// Library cell of a gate node.
  const liberty::Cell& cell_of(NodeId id) const;

  // ----- sizing -------------------------------------------------------------

  /// Current drive of gate `id` (µm). Throws for inputs.
  double drive(NodeId id) const;

  /// Set the drive of gate `id`, clamped to [wmin, wmax]. Throws for inputs.
  void set_drive(NodeId id, double wn_um);

  /// Set all gate drives to the library minimum (the paper's Tmax sizing).
  void set_all_min_drive();

  // ----- threshold-voltage class ---------------------------------------------

  /// Vt class of gate `id` (0 = standard Vt). Throws for inputs.
  int vt_class(NodeId id) const;

  /// Assign gate `id` to Vt class `cls` (index into the technology's
  /// vt_classes). Throws for inputs and for classes the technology does
  /// not offer. Logic function, drive, and capacitances are unchanged —
  /// only timing derates and leakage read the class.
  void set_vt_class(NodeId id, int cls);

  /// Add fixed wire capacitance (fF) on the output net of `id`.
  void set_wire_cap(NodeId id, double cap_ff);

  /// Total capacitive load (fF) seen by the output of node `id`:
  /// wire cap + PO load + sum of fanout input-pin capacitances at their
  /// current drives.
  double load_ff(NodeId id) const;

  /// Input pin capacitance (fF) of gate `id` at its current drive.
  double cin_ff(NodeId id) const;

  /// Own output (drain) parasitic capacitance (fF) of gate `id` at its
  /// current drive — adds to load_ff() in delay evaluation (eq. 4's Cpar).
  double cpar_ff(NodeId id) const;

  /// Sum of total transistor widths over all gates (µm) — the paper's ΣW.
  double total_width_um() const;

  // ----- editing (used by the optimizer) ------------------------------------

  /// Insert a gate of `kind` (Inv or Buf) between `driver` and a subset of
  /// its sinks: the listed `sinks` are re-pointed to the new gate. The new
  /// gate is named `name` and gets minimum drive. If `sinks` is empty the
  /// buffer captures *all* current sinks (including the PO load, which
  /// migrates to the buffer). Returns the new gate id. Every argument is
  /// checked before the first mutation: a listed sink that does not read
  /// `driver` (as often as it is listed) throws std::invalid_argument and
  /// leaves the netlist untouched.
  /// Note: inserting Inv changes logic polarity downstream — callers that
  /// must preserve logic insert a pair or use Buf.
  NodeId insert_buffer(NodeId driver, liberty::CellKind kind,
                       const std::string& name,
                       const std::vector<NodeId>& sinks = {});

  /// Replace the cell of gate `id` with `kind` (must have the same fanin
  /// count). Drive is preserved. Used by De Morgan restructuring.
  void replace_cell(NodeId id, liberty::CellKind kind);

  /// Re-point one fanin (the first matching pin) of `gate` from
  /// `old_driver` to `new_driver`. Throws if `old_driver` is not a fanin
  /// of `gate`.
  void rewire_fanin(NodeId gate, NodeId old_driver, NodeId new_driver);

  /// Rename a node. Throws if the new name is already taken.
  void rename(NodeId id, const std::string& new_name);

  // ----- analysis helpers ----------------------------------------------------

  /// Gate depth of each node (inputs = 0, gate = 1 + max fanin depth).
  std::vector<int> depths() const;

  /// Aggregate statistics.
  NetlistStats stats() const;

  /// Structural sanity check: acyclic, arities match cells, fanins valid,
  /// unique names, every non-PO node has at least one fanout.
  /// Throws std::logic_error with a diagnostic on violation.
  void validate() const;

  /// A fresh unique name with the given prefix (for inserted buffers).
  std::string fresh_name(const std::string& prefix);

  /// Remove, in place, every gate that cannot reach a primary output, and
  /// renumber what is left: primary inputs first (all kept, in inputs()
  /// order), then the live gates in the pre-compaction topo_order(). So
  /// the new ids are themselves a topological order. Node records move
  /// with their fanins remapped; names, inputs(), outputs(), fanouts() and
  /// find() follow, and the fresh-name counter restarts at 0 exactly as in
  /// a netlist rebuilt from scratch. Returns the old -> new id map
  /// (kNoNode for a removed gate); an identity map means nothing moved.
  /// When `reloaded` is non-null, the new ids of the nodes whose load_ff()
  /// may have changed bits are appended to it: every node whose fanout
  /// list lost a sink, and every node whose sinks changed relative order
  /// (the load sum adds their cins in list order) with a load_ff() that
  /// moved.
  std::vector<NodeId> compact(std::vector<NodeId>* reloaded = nullptr);

 private:
  NodeId add_node(Node node);
  /// Add / remove one `sink` entry in the ascending fanout list of `driver`.
  void link(NodeId driver, NodeId sink);
  void unlink(NodeId driver, NodeId sink);

  const liberty::Library* lib_;
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeClass> class_;  ///< see classes(); parallel to nodes_
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;  ///< ascending PO ids
  std::unordered_map<std::string, NodeId> by_name_;
  int fresh_counter_ = 0;

  // Fanout lists (see fanouts(); built lazily once, then maintained) and
  // the topological order (rebuilt lazily after connectivity edits).
  mutable std::vector<std::vector<NodeId>> fanouts_;
  mutable bool fanouts_valid_ = false;
  mutable std::vector<NodeId> topo_;
  mutable std::vector<int> indeg_;  ///< rebuild_topo scratch
  mutable bool topo_valid_ = false;
  void build_fanouts() const;
  void rebuild_topo() const;
};

/// Build a balanced tree computing the wide AND/OR of `terms` using only
/// library NAND/NOR/INV cells (max arity 4). `invert` selects NAND/NOR
/// semantics for the final output. Returns the root node id.
/// Used by the .bench reader to decompose wide ISCAS gates.
NodeId build_wide_gate(Netlist& nl, bool is_and, bool invert,
                       std::vector<NodeId> terms, const std::string& prefix);

}  // namespace pops::netlist
