#include "pops/service/cache_io.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace pops::service {

using util::Json;

namespace {

// ----- strict readers ---------------------------------------------------------
// Archives are machine-written; any deviation is corruption, so readers
// throw std::invalid_argument naming the offending key (journal replay
// catches per record and skips).

const Json& member(const Json& j, const char* key) {
  const Json* v = j.find(key);
  if (!v) throw std::invalid_argument(std::string("missing key '") + key + "'");
  return *v;
}

double num(const Json& j, const char* key) {
  const Json& v = member(j, key);
  if (!v.is_number())
    throw std::invalid_argument(std::string("'") + key + "' must be a number");
  return v.as_number();
}

/// Archive form of a report double, which may be non-finite: JSON numbers
/// cannot carry inf/NaN (Json serializes non-finite as null, which would
/// silently drop the entry at load). Finite values stay plain numbers;
/// non-finite ones become the strings "inf" / "-inf" / "nan" (NaN loses
/// its payload bits — no optimizer result carries a payload).
Json archive_f64(double v) {
  if (std::isfinite(v)) return Json(v);
  if (std::isnan(v)) return Json("nan");
  return Json(v > 0 ? "inf" : "-inf");
}

double restore_f64(const Json& j, const char* key) {
  const Json& v = member(j, key);
  if (v.is_number()) return v.as_number();
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
  }
  throw std::invalid_argument(std::string("'") + key +
                              "' must be a number (or inf/-inf/nan)");
}

bool boolean(const Json& j, const char* key) {
  const Json& v = member(j, key);
  if (!v.is_bool())
    throw std::invalid_argument(std::string("'") + key + "' must be a boolean");
  return v.as_bool();
}

const std::string& str(const Json& j, const char* key) {
  const Json& v = member(j, key);
  if (!v.is_string())
    throw std::invalid_argument(std::string("'") + key + "' must be a string");
  return v.as_string();
}

const std::vector<Json>& array(const Json& j, const char* key) {
  const Json& v = member(j, key);
  if (!v.is_array())
    throw std::invalid_argument(std::string("'") + key + "' must be an array");
  return v.items();
}

/// The one integer reader: `v` must be a whole number in [0, max]. The
/// range is checked on the double, before any cast — converting an
/// out-of-range double to an integer type is undefined behaviour.
std::uint64_t integer(const Json& v, const char* what,
                      double max = 9007199254740992.0) {
  const double d = v.is_number() ? v.as_number() : -1.0;
  if (!(d >= 0.0 && d <= max) || d != std::floor(d))
    throw std::invalid_argument(
        std::string("'") + what + "' must be an integer in [0, " +
        Json::number_to_string(max) + "]");
  return static_cast<std::uint64_t>(d);
}

constexpr double kIntMax = std::numeric_limits<int>::max();

std::size_t count(const Json& j, const char* key) {
  return integer(member(j, key), key);
}

// ----- enum spellings ---------------------------------------------------------

core::ConstraintDomain domain_from_string(const std::string& s) {
  for (const core::ConstraintDomain d :
       {core::ConstraintDomain::Infeasible, core::ConstraintDomain::Hard,
        core::ConstraintDomain::Medium, core::ConstraintDomain::Weak})
    if (s == core::to_string(d)) return d;
  throw std::invalid_argument("unknown constraint domain '" + s + "'");
}

core::Method method_from_string(const std::string& s) {
  for (const core::Method m :
       {core::Method::Sizing, core::Method::LocalBufferSizing,
        core::Method::GlobalBufferSizing, core::Method::Restructure})
    if (s == core::to_string(m)) return m;
  throw std::invalid_argument("unknown protocol method '" + s + "'");
}

// ----- protocol / circuit results ---------------------------------------------

Json archive_decision(const core::PathDecision& d) {
  Json j = Json::object();
  j["domain"] = core::to_string(d.domain);
  j["method"] = core::to_string(d.method);
  j["tmin_ps"] = archive_f64(d.tmin_ps);
  j["tmax_ps"] = archive_f64(d.tmax_ps);
  j["delay_ps"] = archive_f64(d.delay_ps);
  j["area_um"] = archive_f64(d.area_um);
  j["buffers_inserted"] = d.buffers_inserted;
  j["gates_restructured"] = d.gates_restructured;
  return j;
}

core::PathDecision restore_decision(const Json& j) {
  core::PathDecision d;
  d.domain = domain_from_string(str(j, "domain"));
  d.method = method_from_string(str(j, "method"));
  d.tmin_ps = restore_f64(j, "tmin_ps");
  d.tmax_ps = restore_f64(j, "tmax_ps");
  if (const Json* sizing = j.find("sizing")) {
    // Version 2/3 record: a whole sized path. Keep its two figures; the
    // sum is the one ProtocolResult::total_area_um() made, bit for bit.
    d.delay_ps = restore_f64(*sizing, "delay_ps");
    d.area_um =
        restore_f64(*sizing, "area_um") + restore_f64(j, "extra_area_um");
  } else {
    d.delay_ps = restore_f64(j, "delay_ps");
    d.area_um = restore_f64(j, "area_um");
  }
  d.buffers_inserted = count(j, "buffers_inserted");
  d.gates_restructured = count(j, "gates_restructured");
  return d;
}

Json archive_circuit_result(const core::CircuitResult& r) {
  Json j = Json::object();
  j["tc_ps"] = archive_f64(r.tc_ps);
  j["achieved_delay_ps"] = archive_f64(r.achieved_delay_ps);
  j["area_um"] = archive_f64(r.area_um);
  j["met"] = r.met;
  j["paths_optimized"] = r.paths_optimized;
  j["rounds"] = r.rounds;
  Json paths = Json::array();
  for (const core::PathDecision& p : r.per_path)
    paths.push_back(archive_decision(p));
  j["per_path"] = std::move(paths);
  return j;
}

core::CircuitResult restore_circuit_result(const Json& j) {
  core::CircuitResult r;
  r.tc_ps = restore_f64(j, "tc_ps");
  r.achieved_delay_ps = restore_f64(j, "achieved_delay_ps");
  r.area_um = restore_f64(j, "area_um");
  r.met = boolean(j, "met");
  r.paths_optimized = count(j, "paths_optimized");
  r.rounds = count(j, "rounds");
  for (const Json& p : array(j, "per_path"))
    r.per_path.push_back(restore_decision(p));
  return r;
}

// ----- pass / pipeline reports ------------------------------------------------

Json archive_pass_report(const api::PassReport& r) {
  Json j = Json::object();
  j["pass"] = r.pass_name;
  j["delay_before_ps"] = archive_f64(r.delay_before_ps);
  j["delay_after_ps"] = archive_f64(r.delay_after_ps);
  j["area_before_um"] = archive_f64(r.area_before_um);
  j["area_after_um"] = archive_f64(r.area_after_um);
  j["runtime_ms"] = archive_f64(r.runtime_ms);
  j["changed"] = r.changed;
  j["buffers_inserted"] = r.buffers_inserted;
  j["sinks_rewired"] = r.sinks_rewired;
  j["gates_removed"] = r.gates_removed;
  j["paths_optimized"] = r.paths_optimized;
  j["cells_high_vt"] = r.cells_high_vt;
  j["leakage_saved_uw"] = archive_f64(r.leakage_saved_uw);
  if (r.circuit) j["protocol"] = archive_circuit_result(*r.circuit);
  return j;
}

api::PassReport restore_pass_report(const Json& j) {
  api::PassReport r;
  r.pass_name = str(j, "pass");
  r.delay_before_ps = restore_f64(j, "delay_before_ps");
  r.delay_after_ps = restore_f64(j, "delay_after_ps");
  r.area_before_um = restore_f64(j, "area_before_um");
  r.area_after_um = restore_f64(j, "area_after_um");
  r.runtime_ms = restore_f64(j, "runtime_ms");
  r.changed = boolean(j, "changed");
  r.buffers_inserted = count(j, "buffers_inserted");
  r.sinks_rewired = count(j, "sinks_rewired");
  r.gates_removed = count(j, "gates_removed");
  r.paths_optimized = count(j, "paths_optimized");
  r.cells_high_vt = count(j, "cells_high_vt");
  r.leakage_saved_uw = restore_f64(j, "leakage_saved_uw");
  if (const Json* protocol = j.find("protocol"))
    r.circuit = restore_circuit_result(*protocol);
  return r;
}

Json archive_power_report(const power::PowerReport& p) {
  Json j = Json::object();
  j["model"] = p.model;
  j["temperature_c"] = archive_f64(p.temperature_c);
  j["frequency_mhz"] = archive_f64(p.frequency_mhz);
  j["area_um"] = archive_f64(p.area_um);
  j["switched_cap_ff"] = archive_f64(p.switched_cap_ff);
  j["dynamic_uw"] = archive_f64(p.dynamic_uw);
  j["subthreshold_uw"] = archive_f64(p.subthreshold_uw);
  j["gate_leak_uw"] = archive_f64(p.gate_leak_uw);
  j["leakage_uw"] = archive_f64(p.leakage_uw);
  j["total_uw"] = archive_f64(p.total_uw);
  return j;
}

power::PowerReport restore_power_report(const Json& j) {
  power::PowerReport p;
  p.model = str(j, "model");
  p.temperature_c = restore_f64(j, "temperature_c");
  p.frequency_mhz = restore_f64(j, "frequency_mhz");
  p.area_um = restore_f64(j, "area_um");
  p.switched_cap_ff = restore_f64(j, "switched_cap_ff");
  p.dynamic_uw = restore_f64(j, "dynamic_uw");
  p.subthreshold_uw = restore_f64(j, "subthreshold_uw");
  p.gate_leak_uw = restore_f64(j, "gate_leak_uw");
  p.leakage_uw = restore_f64(j, "leakage_uw");
  p.total_uw = restore_f64(j, "total_uw");
  return p;
}

}  // namespace

Json archive_report(const api::PipelineReport& report) {
  Json j = Json::object();
  j["tc_ps"] = archive_f64(report.tc_ps);
  j["initial_delay_ps"] = archive_f64(report.initial_delay_ps);
  j["final_delay_ps"] = archive_f64(report.final_delay_ps);
  j["initial_area_um"] = archive_f64(report.initial_area_um);
  j["final_area_um"] = archive_f64(report.final_area_um);
  j["met"] = report.met;
  j["from_cache"] = report.from_cache;
  j["delay_model"] = report.delay_model;
  j["power"] = archive_power_report(report.power);
  Json vt_mix = Json::array();
  for (const std::size_t n : report.vt_mix)
    vt_mix.push_back(static_cast<double>(n));
  j["vt_mix"] = std::move(vt_mix);
  Json passes = Json::array();
  for (const api::PassReport& p : report.passes)
    passes.push_back(archive_pass_report(p));
  j["passes"] = std::move(passes);
  return j;
}

api::PipelineReport restore_report(const Json& j) {
  api::PipelineReport r;
  r.tc_ps = restore_f64(j, "tc_ps");
  r.initial_delay_ps = restore_f64(j, "initial_delay_ps");
  r.final_delay_ps = restore_f64(j, "final_delay_ps");
  r.initial_area_um = restore_f64(j, "initial_area_um");
  r.final_area_um = restore_f64(j, "final_area_um");
  r.met = boolean(j, "met");
  r.from_cache = boolean(j, "from_cache");
  r.delay_model = str(j, "delay_model");
  r.power = restore_power_report(member(j, "power"));
  for (const Json& v : array(j, "vt_mix"))
    r.vt_mix.push_back(integer(v, "vt_mix"));
  for (const Json& p : array(j, "passes"))
    r.passes.push_back(restore_pass_report(p));
  return r;
}

Json archive_netlist(const netlist::Netlist& nl) {
  Json j = Json::object();
  j["name"] = nl.name();
  j["fresh_counter"] = nl.fresh_counter();
  Json nodes = Json::array();
  for (netlist::NodeId id = 0; id < static_cast<netlist::NodeId>(nl.size());
       ++id) {
    const netlist::Node& n = nl.node(id);
    Json node = Json::object();
    node["name"] = n.name;
    if (n.is_input) {
      node["input"] = true;
    } else {
      node["kind"] = liberty::to_string(n.kind);
      Json fanins = Json::array();
      for (const netlist::NodeId f : n.fanins)
        fanins.push_back(static_cast<long long>(f));
      node["fanins"] = std::move(fanins);
      node["wn_um"] = n.wn_um;
      // Default-class gates stay implicit so single-Vt archives keep
      // their historical bytes.
      if (n.vt != 0) node["vt"] = static_cast<long long>(n.vt);
    }
    node["wire_cap_ff"] = n.wire_cap_ff;
    if (n.is_output) node["po_load_ff"] = n.po_load_ff;
    nodes.push_back(std::move(node));
  }
  j["nodes"] = std::move(nodes);
  return j;
}

netlist::Netlist restore_netlist(const Json& j, const liberty::Library& lib) {
  std::vector<netlist::Node> nodes;
  for (const Json& v : array(j, "nodes")) {
    netlist::Node n;
    n.name = str(v, "name");
    if (const Json* input = v.find("input")) {
      if (!input->is_bool() || !input->as_bool())
        throw std::invalid_argument("'input' must be true when present");
      n.is_input = true;
    } else {
      n.kind = liberty::cell_kind_from_string(str(v, "kind"));
      for (const Json& f : array(v, "fanins"))
        n.fanins.push_back(
            static_cast<netlist::NodeId>(integer(f, "fanins", kIntMax)));
      n.wn_um = num(v, "wn_um");
      if (const Json* vt = v.find("vt"))
        n.vt = static_cast<int>(integer(*vt, "vt", kIntMax));
    }
    n.wire_cap_ff = num(v, "wire_cap_ff");
    if (const Json* po = v.find("po_load_ff")) {
      if (!po->is_number())
        throw std::invalid_argument("'po_load_ff' must be a number");
      n.is_output = true;
      n.po_load_ff = po->as_number();
    }
    nodes.push_back(std::move(n));
  }
  const int fresh = static_cast<int>(integer(member(j, "fresh_counter"),
                                             "fresh_counter", kIntMax));
  return netlist::Netlist::from_nodes(lib, str(j, "name"), std::move(nodes),
                                      fresh);
}

}  // namespace pops::service
