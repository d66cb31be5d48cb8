#include "pops/service/serialize.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pops/obs/trace.hpp"

namespace pops::service {

using util::Json;

namespace {

Json to_json_axis(const std::vector<double>& axis) {
  Json arr = Json::array();
  for (const double v : axis) arr.push_back(v);
  return arr;
}

Json to_json_power(const power::PowerReport& p) {
  Json j = Json::object();
  j["model"] = p.model;
  j["temperature_c"] = p.temperature_c;
  j["frequency_mhz"] = p.frequency_mhz;
  j["area_um"] = p.area_um;
  j["switched_cap_ff"] = p.switched_cap_ff;
  j["dynamic_uw"] = p.dynamic_uw;
  j["subthreshold_uw"] = p.subthreshold_uw;
  j["gate_leak_uw"] = p.gate_leak_uw;
  j["leakage_uw"] = p.leakage_uw;
  j["total_uw"] = p.total_uw;
  return j;
}

}  // namespace

Json to_json(const api::OptimizerConfig& cfg) {
  Json j = Json::object();
  j["hard_ratio"] = cfg.hard_ratio;
  j["weak_ratio"] = cfg.weak_ratio;
  j["allow_restructuring"] = cfg.allow_restructuring;
  j["max_paths"] = cfg.max_paths;
  j["max_rounds"] = cfg.max_rounds;
  j["tc_margin"] = cfg.tc_margin;
  j["pi_slew_ps"] = cfg.pi_slew_ps;
  j["shield_margin"] = cfg.shield_margin;
  j["max_shield_buffers"] = cfg.max_shield_buffers;
  j["shield_fanout"] = cfg.shield_fanout;
  j["enable_shielding"] = cfg.enable_shielding;
  j["enable_cleanup"] = cfg.enable_cleanup;
  j["enable_protocol"] = cfg.enable_protocol;
  j["enable_multi_vt"] = cfg.enable_multi_vt;
  j["delay_model"] = cfg.delay_model;
  j["power_model"] = cfg.power_model;
  j["temperature_c"] = cfg.temperature_c;
  Json vt = Json::array();
  for (const std::string& cls : cfg.vt_library) vt.push_back(cls);
  j["vt_library"] = std::move(vt);
  // Always archived, not gated on delay_model == "table": a closed-form
  // base can still carry a custom grid that a --delay-model table run
  // uses, and the dumped spec must reproduce those results.
  Json tm = Json::object();
  tm["slew_grid_ps"] = to_json_axis(cfg.table_model.slew_grid_ps);
  tm["load_grid"] = to_json_axis(cfg.table_model.load_grid);
  j["table_model"] = std::move(tm);
  return j;
}

Json to_json(const core::PathDecision& decision) {
  Json j = Json::object();
  j["domain"] = core::to_string(decision.domain);
  j["method"] = core::to_string(decision.method);
  j["tmin_ps"] = decision.tmin_ps;
  j["tmax_ps"] = decision.tmax_ps;
  j["delay_ps"] = decision.delay_ps;
  j["area_um"] = decision.area_um;
  j["buffers_inserted"] = decision.buffers_inserted;
  j["gates_restructured"] = decision.gates_restructured;
  return j;
}

Json to_json(const core::CircuitResult& result) {
  Json j = Json::object();
  j["tc_ps"] = result.tc_ps;
  j["achieved_delay_ps"] = result.achieved_delay_ps;
  j["area_um"] = result.area_um;
  j["met"] = result.met;
  j["paths_optimized"] = result.paths_optimized;
  j["rounds"] = result.rounds;
  Json paths = Json::array();
  for (const core::PathDecision& p : result.per_path)
    paths.push_back(to_json(p));
  j["per_path"] = std::move(paths);
  return j;
}

Json to_json(const api::PassReport& report) {
  Json j = Json::object();
  j["pass"] = report.pass_name;
  j["changed"] = report.changed;
  j["delay_before_ps"] = report.delay_before_ps;
  j["delay_after_ps"] = report.delay_after_ps;
  j["area_before_um"] = report.area_before_um;
  j["area_after_um"] = report.area_after_um;
  j["buffers_inserted"] = report.buffers_inserted;
  j["sinks_rewired"] = report.sinks_rewired;
  j["gates_removed"] = report.gates_removed;
  j["paths_optimized"] = report.paths_optimized;
  j["cells_high_vt"] = report.cells_high_vt;
  j["leakage_saved_uw"] = report.leakage_saved_uw;
  if (report.circuit) j["protocol"] = to_json(*report.circuit);
  return j;
}

Json to_json(const api::PipelineReport& report, const SerializeOptions& opt) {
  Json j = Json::object();
  j["tc_ps"] = report.tc_ps;
  j["met"] = report.met;
  j["delay_model"] = report.delay_model;
  j["initial_delay_ps"] = report.initial_delay_ps;
  j["final_delay_ps"] = report.final_delay_ps;
  j["initial_area_um"] = report.initial_area_um;
  j["final_area_um"] = report.final_area_um;
  j["buffers_inserted"] = report.total_buffers_inserted();
  j["sinks_rewired"] = report.total_sinks_rewired();
  j["gates_removed"] = report.total_gates_removed();
  j["paths_optimized"] = report.total_paths_optimized();
  j["cells_high_vt"] = report.total_cells_high_vt();
  j["leakage_saved_uw"] = report.total_leakage_saved_uw();
  j["power"] = to_json_power(report.power);
  Json vt_mix = Json::array();
  for (const std::size_t n : report.vt_mix) vt_mix.push_back(n);
  j["vt_mix"] = std::move(vt_mix);
  Json passes = Json::array();
  for (const api::PassReport& p : report.passes) passes.push_back(to_json(p));
  j["passes"] = std::move(passes);
  // The run-dependent tail: everything above is a pure function of the
  // inputs; these fields vary run to run and are droppable for exact-byte
  // stream diffs (see SerializeOptions).
  if (opt.measured) {
    Json m = Json::object();
    m["from_cache"] = report.from_cache;
    m["runtime_ms"] = report.total_runtime_ms();
    Json pass_ms = Json::array();
    for (const api::PassReport& p : report.passes)
      pass_ms.push_back(p.runtime_ms);
    m["pass_runtimes_ms"] = std::move(pass_ms);
    j["measured"] = std::move(m);
  }
  return j;
}

Json to_json(const BufferPolicy& policy) {
  Json j = Json::object();
  j["name"] = policy.name;
  j["shielding"] = policy.shielding;
  j["restructuring"] = policy.restructuring;
  return j;
}

Json to_json(const SweepSpec& spec) {
  Json j = Json::object();
  Json circuits = Json::array();
  for (const std::string& c : spec.circuits) circuits.push_back(c);
  j["circuits"] = std::move(circuits);
  Json ratios = Json::array();
  for (const double r : spec.tc_ratios) ratios.push_back(r);
  j["tc_ratios"] = std::move(ratios);
  Json margins = Json::array();
  for (const double m : spec.shield_margins) margins.push_back(m);
  j["shield_margins"] = std::move(margins);
  Json temps = Json::array();
  for (const double t : spec.temperatures) temps.push_back(t);
  j["temperatures"] = std::move(temps);
  Json vt_policies = Json::array();
  for (const std::string& p : spec.vt_policies) vt_policies.push_back(p);
  j["vt_policies"] = std::move(vt_policies);
  Json policies = Json::array();
  for (const BufferPolicy& p : spec.policies) policies.push_back(to_json(p));
  j["policies"] = std::move(policies);
  if (!spec.pipeline.empty()) {
    Json pipeline = Json::array();
    for (const std::string& p : spec.pipeline) pipeline.push_back(p);
    j["pipeline"] = std::move(pipeline);
  }
  j["n_threads"] = spec.n_threads;
  j["base"] = to_json(spec.base);
  return j;
}

Json to_json(const SweepPoint& point, const SerializeOptions& opt) {
  obs::Span span("serialize/point");
  Json j = Json::object();
  j["circuit"] = point.circuit;
  j["tc_ratio"] = point.tc_ratio;
  j["shield_margin"] = point.shield_margin;
  j["temperature_c"] = point.temperature_c;
  j["policy"] = point.policy;
  j["vt_policy"] = point.vt_policy;
  j["report"] = to_json(point.report, opt);
  return j;
}

// ----- parsing (spec-file input) ----------------------------------------------

namespace {

/// Collects schema problems while walking a parsed document, so a bad spec
/// file reports every mistake at once (mirroring OptimizerConfig /
/// SweepSpec validation style).
struct ReadErrors {
  std::vector<std::string> problems;

  [[nodiscard]] bool check(bool ok, const std::string& msg) {
    if (!ok) problems.push_back(msg);
    return ok;
  }
  void throw_if_any(const char* what) const {
    if (problems.empty()) return;
    std::string msg = std::string(what) + " (" +
                      std::to_string(problems.size()) + " problem" +
                      (problems.size() == 1 ? "" : "s") + "):";
    for (const std::string& p : problems) msg += "\n  - " + p;
    throw std::invalid_argument(msg);
  }
};

bool read_number(ReadErrors& err, const util::Json& v, const std::string& key,
                 double& out) {
  if (!err.check(v.is_number(), "'" + key + "' must be a number")) return false;
  out = v.as_number();
  return true;
}

bool read_count(ReadErrors& err, const util::Json& v, const std::string& key,
                std::size_t& out) {
  double d = 0.0;
  if (!read_number(err, v, key, d)) return false;
  // Range-check BEFORE casting: float-to-integer conversion outside the
  // destination range is UB, and spec files are untrusted input. The
  // 2^53 bound keeps the value exactly representable as a double too.
  if (!err.check(d >= 0.0 && d <= 9007199254740992.0 && d == std::floor(d),
                 "'" + key + "' must be a non-negative integer"))
    return false;
  out = static_cast<std::size_t>(d);
  return true;
}

bool read_bool(ReadErrors& err, const util::Json& v, const std::string& key,
               bool& out) {
  if (!err.check(v.is_bool(), "'" + key + "' must be a boolean")) return false;
  out = v.as_bool();
  return true;
}

bool read_string(ReadErrors& err, const util::Json& v, const std::string& key,
                 std::string& out) {
  if (!err.check(v.is_string(), "'" + key + "' must be a string"))
    return false;
  out = v.as_string();
  return true;
}

bool read_numbers(ReadErrors& err, const util::Json& v, const std::string& key,
                  std::vector<double>& out) {
  if (!err.check(v.is_array(), "'" + key + "' must be an array of numbers"))
    return false;
  std::vector<double> values;
  for (const util::Json& item : v.items()) {
    if (!err.check(item.is_number(),
                   "'" + key + "' must contain only numbers"))
      return false;
    values.push_back(item.as_number());
  }
  out = std::move(values);
  return true;
}

bool read_strings(ReadErrors& err, const util::Json& v, const std::string& key,
                  std::vector<std::string>& out) {
  if (!err.check(v.is_array(), "'" + key + "' must be an array of strings"))
    return false;
  std::vector<std::string> values;
  for (const util::Json& item : v.items()) {
    if (!err.check(item.is_string(),
                   "'" + key + "' must contain only strings"))
      return false;
    values.push_back(item.as_string());
  }
  out = std::move(values);
  return true;
}

void read_table_model(ReadErrors& err, const util::Json& v,
                      timing::TableModelOptions& out) {
  if (!err.check(v.is_object(), "'table_model' must be an object")) return;
  for (const auto& [key, value] : v.members()) {
    if (key == "slew_grid_ps") {
      read_numbers(err, value, "table_model.slew_grid_ps", out.slew_grid_ps);
    } else if (key == "load_grid") {
      read_numbers(err, value, "table_model.load_grid", out.load_grid);
    } else {
      err.problems.push_back("unknown 'table_model' key '" + key + "'");
    }
  }
}

void read_config(ReadErrors& err, const util::Json& j,
                 api::OptimizerConfig& cfg) {
  if (!err.check(j.is_object(), "config must be an object")) return;
  for (const auto& [key, v] : j.members()) {
    if (key == "hard_ratio") read_number(err, v, key, cfg.hard_ratio);
    else if (key == "weak_ratio") read_number(err, v, key, cfg.weak_ratio);
    else if (key == "allow_restructuring")
      read_bool(err, v, key, cfg.allow_restructuring);
    else if (key == "max_paths") read_count(err, v, key, cfg.max_paths);
    else if (key == "max_rounds") {
      std::size_t n = 0;
      if (read_count(err, v, key, n)) {
        // Bound before narrowing: 2^32+1 would otherwise wrap to a wrong
        // but positive round count that passes validation.
        if (err.check(n <= static_cast<std::size_t>(
                               std::numeric_limits<int>::max()),
                      "'max_rounds' is out of range"))
          cfg.max_rounds = static_cast<int>(n);
      }
    } else if (key == "tc_margin") read_number(err, v, key, cfg.tc_margin);
    else if (key == "pi_slew_ps") read_number(err, v, key, cfg.pi_slew_ps);
    else if (key == "sta_workers" || key == "sta_parallel_min_nodes") {
      // Retired STA worker knobs: accepted from old spec files, ignored.
    } else if (key == "shield_margin")
      read_number(err, v, key, cfg.shield_margin);
    else if (key == "max_shield_buffers")
      read_count(err, v, key, cfg.max_shield_buffers);
    else if (key == "shield_fanout")
      read_number(err, v, key, cfg.shield_fanout);
    else if (key == "enable_shielding")
      read_bool(err, v, key, cfg.enable_shielding);
    else if (key == "enable_cleanup")
      read_bool(err, v, key, cfg.enable_cleanup);
    else if (key == "enable_protocol")
      read_bool(err, v, key, cfg.enable_protocol);
    else if (key == "enable_multi_vt")
      read_bool(err, v, key, cfg.enable_multi_vt);
    else if (key == "delay_model") read_string(err, v, key, cfg.delay_model);
    else if (key == "table_model") read_table_model(err, v, cfg.table_model);
    else if (key == "power_model") read_string(err, v, key, cfg.power_model);
    else if (key == "temperature_c")
      read_number(err, v, key, cfg.temperature_c);
    else if (key == "vt_library") read_strings(err, v, key, cfg.vt_library);
    else err.problems.push_back("unknown config key '" + key + "'");
  }
}

}  // namespace

api::OptimizerConfig config_from_json(const util::Json& j) {
  api::OptimizerConfig cfg;
  ReadErrors err;
  read_config(err, j, cfg);
  err.throw_if_any("invalid OptimizerConfig JSON");
  return cfg;
}

SweepSpec sweep_spec_from_json(const util::Json& j) {
  SweepSpec spec;
  ReadErrors err;
  if (!err.check(j.is_object(), "sweep spec must be a JSON object")) {
    err.throw_if_any("invalid SweepSpec JSON");
  }
  for (const auto& [key, v] : j.members()) {
    if (key == "circuits") {
      read_strings(err, v, key, spec.circuits);
    } else if (key == "tc_ratios") {
      read_numbers(err, v, key, spec.tc_ratios);
    } else if (key == "shield_margins") {
      read_numbers(err, v, key, spec.shield_margins);
    } else if (key == "temperatures") {
      read_numbers(err, v, key, spec.temperatures);
    } else if (key == "vt_policies") {
      read_strings(err, v, key, spec.vt_policies);
    } else if (key == "policies") {
      if (!err.check(v.is_array(), "'policies' must be an array")) continue;
      std::vector<BufferPolicy> policies;
      for (const util::Json& item : v.items()) {
        if (item.is_string()) {
          try {
            policies.push_back(buffer_policy(item.as_string()));
          } catch (const std::invalid_argument& e) {
            err.problems.push_back(e.what());
          }
        } else if (item.is_object()) {
          BufferPolicy p;
          for (const auto& [pk, pv] : item.members()) {
            if (pk == "name") read_string(err, pv, "policies[].name", p.name);
            else if (pk == "shielding")
              read_bool(err, pv, "policies[].shielding", p.shielding);
            else if (pk == "restructuring")
              read_bool(err, pv, "policies[].restructuring", p.restructuring);
            else
              err.problems.push_back("unknown policy key '" + pk + "'");
          }
          policies.push_back(std::move(p));
        } else {
          err.problems.push_back(
              "'policies' entries must be names or policy objects");
        }
      }
      // Overwrite even when empty: an explicit "policies": [] must reach
      // SweepSpec::validate ("policies is empty") like every other axis,
      // not silently keep the default policy.
      spec.policies = std::move(policies);
    } else if (key == "pipeline") {
      read_strings(err, v, key, spec.pipeline);
    } else if (key == "n_threads") {
      read_count(err, v, key, spec.n_threads);
    } else if (key == "base") {
      read_config(err, v, spec.base);
    } else {
      err.problems.push_back("unknown sweep-spec key '" + key + "'");
    }
  }
  err.throw_if_any("invalid SweepSpec JSON");
  return spec;
}

Json to_json(const SweepReport& report, const SerializeOptions& opt) {
  Json j = Json::object();
  Json points = Json::array();
  for (const SweepPoint& p : report.points) points.push_back(to_json(p, opt));
  j["points"] = std::move(points);
  // Hit/miss split depends on cache residency (run-dependent), but entry
  // count after a deterministic sweep is reproducible — keep the whole
  // block: consumers diff point streams, not summaries. wall_ms is pure
  // measurement and drops with the measured section.
  Json cache = Json::object();
  cache["hits"] = report.cache_hits;
  cache["misses"] = report.cache_misses;
  cache["entries"] = report.cache_entries;
  j["cache"] = std::move(cache);
  if (opt.measured) j["wall_ms"] = report.wall_ms;
  return j;
}

}  // namespace pops::service
