#pragma once
// Buffer insertion and the Flimit metric — paper §4.1.
//
// Flimit ("load buffer insertion limit"): for the Fig. 5 configuration
//
//      (i-1) --> (i) --> CL          (A: direct drive)
//      (i-1) --> (i) --> buf --> CL  (B: inserted, optimally sized buffer)
//
// Flimit is the fanout F = CL/CIN(i) at which B becomes faster than A,
// with the sizes of (i-1) and (i) conserved and only the buffer sized
// ("local insertion"). The weaker the gate (higher logical weight), the
// lower its limit — Table 2: inv 5.7 > nand2 4.9 > nand3 4.5 > nor2 3.8 >
// nor3 2.7. Flimit measures gate efficiency and identifies the critical
// (overloaded) nodes *of the implementation as given* deterministically.
//
// Insertion applies the paper's "load dilution" in two forms:
//   * SHIELD — a buffer takes over the node's *off-path* fanout; the
//     buffer's own delay leaves the critical path entirely (the dominant
//     Table 3 mechanism), at the cost of the buffer's area and a slower
//     off-path branch;
//   * IN-PATH — a buffer is inserted in series before the node's load
//     (Fig. 5 exactly); pays off above Flimit, e.g. into a massive
//     terminal load.
// `insert_buffers_local` evaluates both at each critical node and keeps
// whatever reduces the path delay most; only buffers are sized, every
// original gate is conserved. `min_delay_with_buffers` additionally
// re-distributes the whole path with the link equations afterwards
// (the Table 3 "buff" rows).

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "pops/core/sensitivity.hpp"
#include "pops/timing/delay_model.hpp"
#include "pops/timing/path.hpp"

namespace pops::core {

/// How the two path polarities combine into one delay figure.
enum class EdgeAggregate {
  Worst,    ///< max over rising/falling input (default: what STA constrains)
  Average,  ///< mean of the two polarities
};

/// Parameters of the Fig. 5 characterisation set-up.
struct FlimitOptions {
  double driver_drive_x = 4.0;  ///< drive of gate (i-1), in wmin multiples
  double gate_drive_x = 4.0;    ///< drive of gate (i), in wmin multiples
  double f_lo = 1.05;           ///< bisection bracket for the crossing
  double f_hi = 400.0;
  double tol = 1e-4;
  EdgeAggregate aggregate = EdgeAggregate::Worst;
};

/// Compute Flimit for `gate` driven by `driver`, with a single optimally
/// sized inverter as the buffer (the paper's Fig. 5 cell "4"). Returns
/// +inf if the buffer never wins inside the bracket.
double flimit(const timing::DelayModel& dm, liberty::CellKind driver,
              liberty::CellKind gate, const FlimitOptions& opt = {});

/// Library characterisation cache: Flimit per (driver, gate) pair — the
/// "Library characterization" step at the top of the Fig. 7 protocol.
///
/// A table belongs to one delay-model backend (api::DelayBackend) and
/// fills one slot per pair on first use. get() is const and safe for
/// concurrent callers: the value is a pure function of the backend, so
/// two threads racing to fill a slot store the same bits.
class FlimitTable {
 public:
  explicit FlimitTable(FlimitOptions opt = {});

  /// Cached lookup (computes on first use). `dm` must be the backend the
  /// table belongs to.
  double get(const timing::DelayModel& dm, liberty::CellKind driver,
             liberty::CellKind gate) const;

  const FlimitOptions& options() const noexcept { return opt_; }

  /// Filled pair count (introspection: tests, warm-up checks).
  std::size_t size() const noexcept;

 private:
  /// Bit pattern of an unfilled slot: a NaN payload no arithmetic yields.
  static constexpr std::uint64_t kUnfilled = ~std::uint64_t{0};

  FlimitOptions opt_;
  mutable std::array<std::atomic<std::uint64_t>,
                     liberty::kCellKindCount * liberty::kCellKindCount>
      slots_;
};

/// Stage indices whose fanout F(i) = load/CIN exceeds the Flimit of
/// (driver kind, own kind) by `margin`, at the path's *current* sizes.
/// Buffers, stages already feeding a buffer, and shielded stages are never
/// candidates (buffering them again is what sizing is for).
std::vector<std::size_t> critical_nodes(const timing::BoundedPath& path,
                                        const timing::DelayModel& dm,
                                        const FlimitTable& table,
                                        double margin = 1.0);

/// Result of a buffer-insertion pass.
struct BufferInsertionResult {
  timing::BoundedPath path;        ///< path with buffers applied
  std::size_t buffers_inserted = 0;   ///< total (shield + in-path)
  std::size_t shield_buffers = 0;     ///< of which off-path shields
  double shield_area_um = 0.0;     ///< area of shield buffers (off-path)
  double delay_ps = 0.0;
  double area_um = 0.0;            ///< path area + shield_area_um
};

/// Which insertion moves insert_buffers_local may use.
enum class InsertionStyle {
  Auto,        ///< per node: better of shield / in-path (local evaluation)
  ShieldOnly,  ///< only off-path shields (never lengthens the path)
  InPathOnly,  ///< only Fig. 5 in-path buffers (the paper's mechanism)
};

/// LOCAL insertion: at every critical node try the shield and the in-path
/// buffer (sized by golden section, everything else conserved); keep the
/// variant that shortens the path delay most, or nothing if neither does.
BufferInsertionResult insert_buffers_local(timing::BoundedPath path,
                                           const timing::DelayModel& dm,
                                           const FlimitTable& table,
                                           InsertionStyle style =
                                               InsertionStyle::Auto);

/// GLOBAL flow (Table 3 "buff"): identify critical nodes on the path as
/// given, apply the best insertions, then re-distribute the whole path
/// with the link equations (a = 0). Falls back to the sizing-only Tmin if
/// buffering does not pay.
BufferInsertionResult min_delay_with_buffers(const timing::BoundedPath& path,
                                             const timing::DelayModel& dm,
                                             const FlimitTable& table,
                                             const BoundsOptions& bopt = {});

/// Shield-buffer sizing rule: the buffer drives the off-path load at a
/// fanout of ~4 (classic FO4 repeater sizing), clamped to the library.
double shield_buffer_cin_ff(const liberty::Library& lib, double off_load_ff);

}  // namespace pops::core
