#include "pops/power/power_model.hpp"

#include <cmath>
#include <stdexcept>

#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"

namespace pops::power {

using liberty::CellKind;
using netlist::Netlist;
using netlist::NodeId;

double temperature_factor(const process::Technology& tech,
                          double temperature_c) {
  return std::exp2((temperature_c - kDefaultTemperatureC) /
                   tech.ioff_doubling_c);
}

PowerReport PowerModel::evaluate(const Netlist& nl,
                                 const netlist::ActivityReport& activity,
                                 double frequency_mhz,
                                 double temperature_c) const {
  if (!(frequency_mhz > 0.0))
    throw std::invalid_argument("PowerModel: frequency must be > 0");
  if (&nl.lib() != lib_)
    throw std::invalid_argument(
        "PowerModel: netlist is over a different library than this backend");
  if (activity.toggle_rate.size() != nl.size())
    throw std::invalid_argument(
        "PowerModel: activity report does not match the netlist");
  obs::Span span("power/evaluate");
  static const obs::Registry::Counter evals =
      obs::Registry::global().counter("power.evals");
  evals.add();
  return do_evaluate(nl, activity, frequency_mhz, temperature_c);
}

PowerReport PowerModel::estimate(const Netlist& nl, util::Rng& rng,
                                 double frequency_mhz, int vectors,
                                 double temperature_c) const {
  netlist::ActivityReport activity;
  {
    obs::Span span("power/activity");
    activity = netlist::estimate_activity(nl, rng, vectors);
  }
  return evaluate(nl, activity, frequency_mhz, temperature_c);
}

namespace {

/// Dynamic (switched-capacitance + short-circuit) power — shared by both
/// backends, and bit-identical to the historical core::estimate_power:
/// same accumulation order, same expression shapes.
void fill_dynamic(const Netlist& nl, const netlist::ActivityReport& activity,
                  double frequency_mhz, PowerReport& report) {
  double switched = 0.0;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    const double cap = nl.load_ff(id) + nl.cpar_ff(id);
    switched += activity.toggle_rate[i] * cap;
  }
  report.switched_cap_ff = switched;
  const double vdd = nl.lib().tech().vdd;
  // fF * V^2 * MHz = 1e-15 F * V^2 * 1e6 1/s = 1e-9 W = nW; report µW.
  const double dyn_nw = 0.5 * switched * vdd * vdd * frequency_mhz;
  report.dynamic_uw = dyn_nw * 1e-3 * (1.0 + kShortCircuitFraction);
}

/// Number of series (stacked) devices in the N and P networks of `kind`.
/// The leaking (off) network's stack depth sets the sub-threshold
/// suppression; parallel devices leak independently (depth 1).
void series_devices(CellKind kind, int fanin, int& n_series, int& p_series) {
  switch (kind) {
    case CellKind::Inv:
    case CellKind::Buf:
      n_series = p_series = 1;
      break;
    case CellKind::Nand2:
    case CellKind::Nand3:
    case CellKind::Nand4:
      n_series = fanin;  // NMOS array in series, PMOS in parallel
      p_series = 1;
      break;
    case CellKind::Nor2:
    case CellKind::Nor3:
    case CellKind::Nor4:
      n_series = 1;  // NMOS in parallel, PMOS array in series
      p_series = fanin;
      break;
    case CellKind::Aoi21:
    case CellKind::Oai21:
    case CellKind::Xor2:
    case CellKind::Xnor2:
      // Mixed series/parallel networks; both worst paths are two deep.
      n_series = p_series = 2;
      break;
  }
}

}  // namespace

PowerReport ProxyModel::do_evaluate(const Netlist& nl,
                                    const netlist::ActivityReport& activity,
                                    double frequency_mhz,
                                    double temperature_c) const {
  PowerReport report;
  report.model = std::string(name());
  report.frequency_mhz = frequency_mhz;
  report.temperature_c = temperature_c;
  report.area_um = nl.total_width_um();
  fill_dynamic(nl, activity, frequency_mhz, report);
  const double vdd = nl.lib().tech().vdd;
  // nA * V = nW; per µm of width. The temperature factor is exactly 1.0
  // at the 25 degC reference, keeping the historical numbers bit-for-bit.
  report.subthreshold_uw = kProxyIoffNaPerUm * report.area_um * vdd * 1e-3 *
                           temperature_factor(nl.lib().tech(), temperature_c);
  report.gate_leak_uw = 0.0;
  report.leakage_uw = report.subthreshold_uw;
  report.total_uw = report.dynamic_uw + report.leakage_uw;
  return report;
}

PowerReport StateDependentModel::do_evaluate(
    const Netlist& nl, const netlist::ActivityReport& activity,
    double frequency_mhz, double temperature_c) const {
  if (activity.p_one.size() != nl.size())
    throw std::invalid_argument(
        "StateDependentModel: activity report lacks state probabilities");
  PowerReport report;
  report.model = std::string(name());
  report.frequency_mhz = frequency_mhz;
  report.temperature_c = temperature_c;
  report.area_um = nl.total_width_um();
  fill_dynamic(nl, activity, frequency_mhz, report);

  const process::Technology& tech = nl.lib().tech();
  const double tf = temperature_factor(tech, temperature_c);
  double sub_nw = 0.0;
  double gate_nw = 0.0;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const netlist::Node& n = nl.node(static_cast<NodeId>(i));
    if (n.is_input) continue;
    const liberty::Cell& cell = nl.lib().cell(n.kind);
    const process::VtClass cls =
        tech.vt_class(static_cast<std::size_t>(n.vt));
    // Per-network total widths: every input pin contributes an N device
    // of width wn and a P device of width k*wn.
    const double wn_total = static_cast<double>(cell.fanin) * n.wn_um;
    const double wp_total = cell.k_ratio * wn_total;
    int n_series = 1, p_series = 1;
    series_devices(n.kind, cell.fanin, n_series, p_series);
    const double n_stack = std::pow(kSeriesStackFactor, n_series - 1);
    const double p_stack = std::pow(kSeriesStackFactor, p_series - 1);
    // State weighting: output high -> the N pulldown is off and leaks;
    // output low -> the P pullup is off and leaks.
    const double p1 = activity.p_one[i];
    sub_nw += cls.ioff_na_per_um * tf * tech.vdd *
              (p1 * wn_total * n_stack + (1.0 - p1) * wp_total * p_stack);
    // Gate (tunnelling) leakage across the whole cell, state- and
    // temperature-insensitive to first order.
    gate_nw += tech.igate_na_per_um * (wn_total + wp_total) * tech.vdd;
  }
  report.subthreshold_uw = sub_nw * 1e-3;
  report.gate_leak_uw = gate_nw * 1e-3;
  report.leakage_uw = report.subthreshold_uw + report.gate_leak_uw;
  report.total_uw = report.dynamic_uw + report.leakage_uw;
  return report;
}

std::unique_ptr<PowerModel> make_power_model(const std::string& name,
                                             const liberty::Library& lib) {
  if (name == "proxy") return std::make_unique<ProxyModel>(lib);
  if (name == "state") return std::make_unique<StateDependentModel>(lib);
  throw std::invalid_argument("make_power_model: unknown backend '" + name +
                              "' (known: proxy, state)");
}

}  // namespace pops::power
