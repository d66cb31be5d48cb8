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
// nodes and invalidate the cached topological order / fanout lists.

#include <cstddef>
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

  /// Ids of all primary inputs / primary outputs / gates.
  const std::vector<NodeId>& inputs() const noexcept { return inputs_; }
  std::vector<NodeId> outputs() const;
  std::vector<NodeId> gates() const;

  /// Gates (or POs) fed by node `id` (cached; rebuilt after edits).
  const std::vector<NodeId>& fanouts(NodeId id) const;

  /// Topological order over all nodes (inputs first). Cached.
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
  /// migrates to the buffer). Returns the new gate id.
  /// Note: inserting Inv changes logic polarity downstream — callers that
  /// must preserve logic insert a pair or use Buf.
  NodeId insert_buffer(NodeId driver, liberty::CellKind kind,
                       const std::string& name,
                       const std::vector<NodeId>& sinks = {});

  /// Replace the cell of gate `id` with `kind` (must have the same fanin
  /// count). Drive is preserved. Used by De Morgan restructuring.
  void replace_cell(NodeId id, liberty::CellKind kind);

  /// Re-point one fanin of `gate` from `old_driver` to `new_driver`.
  /// Throws if `old_driver` is not a fanin of `gate`.
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

 private:
  void invalidate_caches() const;
  NodeId add_node(Node node);

  const liberty::Library* lib_;
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::unordered_map<std::string, NodeId> by_name_;
  int fresh_counter_ = 0;

  // Caches (derived, rebuilt lazily).
  mutable std::vector<std::vector<NodeId>> fanouts_;
  mutable std::vector<NodeId> topo_;
  mutable std::vector<int> indeg_;  ///< rebuild_caches scratch
  mutable bool caches_valid_ = false;
  void rebuild_caches() const;
};

/// Build a balanced tree computing the wide AND/OR of `terms` using only
/// library NAND/NOR/INV cells (max arity 4). `invert` selects NAND/NOR
/// semantics for the final output. Returns the root node id.
/// Used by the .bench reader to decompose wide ISCAS gates.
NodeId build_wide_gate(Netlist& nl, bool is_and, bool invert,
                       std::vector<NodeId> terms, const std::string& prefix);

}  // namespace pops::netlist
