#include "pops/core/buffer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "pops/util/stats.hpp"

namespace pops::core {

using liberty::Cell;
using liberty::CellKind;
using timing::BoundedPath;
using timing::DelayModel;
using timing::Edge;

namespace {

/// Delay of `gate` (at cin_g, with its own parasitic) driving `cl_ext`,
/// fed by `driver` (at cin_d, loaded only by gate): the Fig. 5 "A" config,
/// measured from the driver output (input of gate i) to the load — i.e.
/// just the delay of gate i with the realistic input slew produced by the
/// driver. Averaged over the two polarities of the path input.
double config_a_delay(const DelayModel& dm, const Cell& driver,
                      const Cell& gate, double cin_d, double cin_g,
                      double cl_ext, EdgeAggregate aggregate) {
  const auto& tech = dm.lib().tech();
  double total = 0.0, worst = 0.0;
  for (Edge e_in : {Edge::Rise, Edge::Fall}) {
    // Driver output edge given its input edge.
    const Edge e_drv = driver.inverting ? flip(e_in) : e_in;
    const double drv_load = cin_g + driver.cpar_ff(tech, driver.wn_for_cin(tech, cin_d));
    const double slew_in = dm.transition_ps(driver, e_drv, cin_d, drv_load);
    const Edge e_gate = gate.inverting ? flip(e_drv) : e_drv;
    const double gate_load =
        cl_ext + gate.cpar_ff(tech, gate.wn_for_cin(tech, cin_g));
    const double d = dm.delay_ps(gate, e_gate, slew_in, cin_g, gate_load);
    total += d;
    worst = std::max(worst, d);
  }
  return aggregate == EdgeAggregate::Worst ? worst : 0.5 * total;
}

/// The Fig. 5 "B" config: gate i drives an inverter buffer of input cap
/// `cb`, which drives `cl_ext`. Delay from gate input to load, both
/// polarities averaged.
double config_b_delay(const DelayModel& dm, const Cell& driver,
                      const Cell& gate, const Cell& buf, double cin_d,
                      double cin_g, double cb, double cl_ext,
                      EdgeAggregate aggregate) {
  const auto& tech = dm.lib().tech();
  double total = 0.0, worst = 0.0;
  for (Edge e_in : {Edge::Rise, Edge::Fall}) {
    const Edge e_drv = driver.inverting ? flip(e_in) : e_in;
    const double drv_load =
        cin_g + driver.cpar_ff(tech, driver.wn_for_cin(tech, cin_d));
    const double slew_in = dm.transition_ps(driver, e_drv, cin_d, drv_load);

    const Edge e_gate = gate.inverting ? flip(e_drv) : e_drv;
    const double gate_load =
        cb + gate.cpar_ff(tech, gate.wn_for_cin(tech, cin_g));
    double d = dm.delay_ps(gate, e_gate, slew_in, cin_g, gate_load);
    const double slew_gate = dm.transition_ps(gate, e_gate, cin_g, gate_load);

    const Edge e_buf = buf.inverting ? flip(e_gate) : e_gate;
    const double buf_load =
        cl_ext + buf.cpar_ff(tech, buf.wn_for_cin(tech, cb));
    d += dm.delay_ps(buf, e_buf, slew_gate, cb, buf_load);
    total += d;
    worst = std::max(worst, d);
  }
  return aggregate == EdgeAggregate::Worst ? worst : 0.5 * total;
}

}  // namespace

double flimit(const DelayModel& dm, CellKind driver_kind, CellKind gate_kind,
              const FlimitOptions& opt) {
  const liberty::Library& lib = dm.lib();
  const auto& tech = lib.tech();
  const Cell& driver = lib.cell(driver_kind);
  const Cell& gate = lib.cell(gate_kind);
  const Cell& buf = lib.cell(CellKind::Inv);

  const double cin_d = driver.cin_ff(tech, tech.wmin_um * opt.driver_drive_x);
  const double cin_g = gate.cin_ff(tech, tech.wmin_um * opt.gate_drive_x);
  const double cb_min = buf.cin_ff(tech, tech.wmin_um);

  // h(F) = D_A - D_B_opt : negative when the buffer does not pay off.
  auto h = [&](double f) {
    const double cl = f * cin_g;
    const double da =
        config_a_delay(dm, driver, gate, cin_d, cin_g, cl, opt.aggregate);
    const double cb_opt = util::golden_section_min(
        [&](double cb) {
          return config_b_delay(dm, driver, gate, buf, cin_d, cin_g, cb, cl,
                                opt.aggregate);
        },
        cb_min, std::max(2.0 * cl, 4.0 * cb_min), 1e-4);
    const double db = config_b_delay(dm, driver, gate, buf, cin_d, cin_g,
                                     cb_opt, cl, opt.aggregate);
    return da - db;
  };

  if (h(opt.f_hi) <= 0.0) return std::numeric_limits<double>::infinity();
  if (h(opt.f_lo) >= 0.0) return opt.f_lo;
  return util::bisect_root(h, opt.f_lo, opt.f_hi, opt.tol);
}

FlimitTable::FlimitTable(FlimitOptions opt) : opt_(opt) {
  for (std::atomic<std::uint64_t>& slot : slots_) slot.store(kUnfilled);
}

double FlimitTable::get(const DelayModel& dm, CellKind driver,
                        CellKind gate) const {
  std::atomic<std::uint64_t>& slot =
      slots_[static_cast<std::size_t>(driver) * liberty::kCellKindCount +
             static_cast<std::size_t>(gate)];
  const std::uint64_t bits = slot.load();
  if (bits != kUnfilled) return std::bit_cast<double>(bits);
  // Two callers may both miss and compute; both store the same bits.
  const double value = flimit(dm, driver, gate, opt_);
  slot.store(std::bit_cast<std::uint64_t>(value));
  return value;
}

std::size_t FlimitTable::size() const noexcept {
  std::size_t n = 0;
  for (const std::atomic<std::uint64_t>& slot : slots_)
    if (slot.load() != kUnfilled) ++n;
  return n;
}

std::vector<std::size_t> critical_nodes(const BoundedPath& path,
                                        const DelayModel& dm,
                                        const FlimitTable& table,
                                        double margin) {
  std::vector<std::size_t> crit;
  for (std::size_t i = 0; i < path.size(); ++i) {
    // Never buffer a buffer, a stage already feeding one, or a shielded
    // node — past that point sizing is the right tool.
    if (path.stage(i).kind == CellKind::Buf) continue;
    if (i + 1 < path.size() && path.stage(i + 1).kind == CellKind::Buf)
      continue;
    if (path.stage(i).shielded) continue;
    const CellKind driver_kind =
        i == 0 ? CellKind::Inv : path.stage(i - 1).kind;
    const double limit = table.get(dm, driver_kind, path.stage(i).kind);
    const double f = path.load_ff(i) / path.cin(i);
    if (f > margin * limit) crit.push_back(i);
  }
  return crit;
}

double shield_buffer_cin_ff(const liberty::Library& lib, double off_load_ff) {
  const Cell& buf = lib.cell(CellKind::Buf);
  const double cb_min = buf.cin_ff(lib.tech(), lib.wmin_um());
  const double cb_max = buf.cin_ff(lib.tech(), lib.wmax_um());
  return std::clamp(off_load_ff / 4.0, cb_min, cb_max);
}

namespace {

/// Area (um) of one shield buffer that absorbs `off_ff` of off-path load.
double shield_area_um(const liberty::Library& lib, double off_ff) {
  const Cell& buf = lib.cell(CellKind::Buf);
  const double cb = shield_buffer_cin_ff(lib, off_ff);
  return buf.total_width_um(buf.wn_for_cin(lib.tech(), cb));
}

}  // namespace

BufferInsertionResult insert_buffers_local(BoundedPath path,
                                           const DelayModel& dm,
                                           const FlimitTable& table,
                                           InsertionStyle style) {
  const liberty::Library& lib = path.lib();
  const Cell& buf = lib.cell(CellKind::Buf);
  const double cb_min = buf.cin_ff(lib.tech(), lib.wmin_um());

  const std::vector<std::size_t> crit = critical_nodes(path, dm, table);
  std::size_t inserted = 0, shields = 0;
  double shield_area = 0.0;

  // Apply from the back so earlier indices stay valid after insertions.
  for (auto it = crit.rbegin(); it != crit.rend(); ++it) {
    const std::size_t i = *it;
    const double base_delay = path.delay_ps(dm);

    // Option SHIELD: a buffer absorbs the off-path fanout; the node then
    // sees only the buffer's input capacitance.
    double shield_delay = std::numeric_limits<double>::infinity();
    double shield_cb = 0.0;
    const double off = path.stage(i).off_path_ff;
    if (style != InsertionStyle::InPathOnly && !path.stage(i).shielded &&
        off > 2.0 * cb_min) {
      shield_cb = shield_buffer_cin_ff(lib, off);
      BoundedPath probe = path;
      probe.set_off_path_ff(i, shield_cb);
      shield_delay = probe.delay_ps(dm);
    }

    // Option IN-PATH: Fig. 5 insertion in front of the whole load, buffer
    // sized by golden section, everything else conserved.
    double inpath_delay = std::numeric_limits<double>::infinity();
    BoundedPath inpath = path;
    if (style != InsertionStyle::ShieldOnly) {
      inpath.insert_stage_after(i, CellKind::Buf, cb_min,
                                /*take_off_path=*/true);
      const std::size_t bi = i + 1;
      const double hi = std::max(2.0 * inpath.load_ff(bi), 8.0 * cb_min);
      const double cb_opt = util::golden_section_min(
          [&](double cb) {
            BoundedPath g = inpath;
            g.set_cin(bi, cb);
            return g.delay_ps(dm);
          },
          cb_min, hi, 1e-3);
      inpath.set_cin(bi, cb_opt);
      inpath_delay = inpath.delay_ps(dm);
    }

    if (shield_delay < base_delay && shield_delay <= inpath_delay) {
      path.set_off_path_ff(i, shield_cb);
      path.set_shielded(i, true);
      shield_area += shield_area_um(lib, off);
      ++shields;
      ++inserted;
    } else if (inpath_delay < base_delay) {
      path = std::move(inpath);
      ++inserted;
    }
  }

  BufferInsertionResult res{std::move(path), inserted, shields, shield_area,
                            0.0, 0.0};
  res.delay_ps = res.path.delay_ps(dm);
  res.area_um = res.path.area_um() + res.shield_area_um;
  return res;
}

BufferInsertionResult min_delay_with_buffers(const BoundedPath& path,
                                             const DelayModel& dm,
                                             const FlimitTable& table,
                                             const BoundsOptions& bopt) {
  // Identify overload on the *sizing-optimised* implementation: a node
  // whose fanout still exceeds Flimit when the link equations have done
  // their best (drives clamp at the library ceiling) is a genuine buffer
  // candidate. Whether a shield or an in-path buffer wins can flip after
  // redistribution, so both insertion styles are carried to the resized
  // comparison.
  const BoundedPath at_tmin = size_for_tmin(path, dm, bopt);
  BufferInsertionResult sized[2] = {
      insert_buffers_local(at_tmin, dm, table, InsertionStyle::Auto),
      insert_buffers_local(at_tmin, dm, table, InsertionStyle::ShieldOnly),
  };
  for (BufferInsertionResult& cand : sized) {
    cand.path = size_for_tmin(cand.path, dm, bopt);
    cand.delay_ps = cand.path.delay_ps(dm);
    cand.area_um = cand.path.area_um() + cand.shield_area_um;
  }

  // Sizing-only fallback.
  BoundedPath plain_tmin = size_for_tmin(path, dm, bopt);
  const double t_plain = plain_tmin.delay_ps(dm);

  BufferInsertionResult* best = nullptr;
  for (BufferInsertionResult& cand : sized) {
    if (cand.buffers_inserted == 0) continue;
    if (!best || cand.delay_ps < best->delay_ps) best = &cand;
  }
  if (!best || best->delay_ps >= t_plain) {
    BufferInsertionResult res{std::move(plain_tmin), 0, 0, 0.0, 0.0, 0.0};
    res.delay_ps = t_plain;
    res.area_um = res.path.area_um();
    return res;
  }
  return std::move(*best);
}

}  // namespace pops::core
