#include "pops/api/config.hpp"

#include <sstream>

namespace pops::api {

namespace {

std::string join_problems(const std::vector<std::string>& problems) {
  std::ostringstream os;
  os << "invalid OptimizerConfig (" << problems.size() << " problem"
     << (problems.size() == 1 ? "" : "s") << "):";
  for (const std::string& p : problems) os << "\n  - " << p;
  return os.str();
}

}  // namespace

ConfigError::ConfigError(const std::vector<std::string>& problems)
    : std::invalid_argument(join_problems(problems)), problems_(problems) {}

std::vector<std::string> OptimizerConfig::validate() const {
  // Domain-threshold, solver and circuit-driver invariants are owned by
  // the core options structs (single source of truth, shared with the legacy
  // entry points); the projection carries this config's values.
  std::vector<std::string> out = circuit_options().problems();
  auto require = [&out](bool ok, const std::string& msg) {
    if (!ok) out.push_back(msg);
  };

  // Shielding.
  require(shield_margin > 0.0, "shield_margin must be > 0");
  require(shield_fanout > 1.0, "shield_fanout must be > 1");

  require(enable_shielding || enable_cleanup || enable_protocol,
          "all passes disabled: the pipeline would be empty");

  // Delay-model backend selection.
  if (delay_model != "closed-form" && delay_model != "table") {
    out.push_back("delay_model must be 'closed-form' or 'table' (got '" +
                  delay_model + "')");
  } else if (delay_model == "table") {
    for (std::string& p : table_model.problems()) out.push_back(std::move(p));
  }

  // Power-model backend selection.
  if (power_model != "proxy" && power_model != "state") {
    out.push_back("power_model must be 'proxy' or 'state' (got '" +
                  power_model + "')");
  }
  // Silicon junction range, generously bounded.
  require(temperature_c > -273.15 && temperature_c < 300.0,
          "temperature_c must be a physical junction temperature "
          "(-273.15, 300)");
  require(!vt_library.empty(), "vt_library must name at least one Vt class");
  for (std::size_t i = 0; i < vt_library.size(); ++i) {
    require(!vt_library[i].empty(), "vt_library entries must be non-empty");
    for (std::size_t j = 0; j < i; ++j)
      require(vt_library[j] != vt_library[i],
              "vt_library lists '" + vt_library[i] + "' more than once");
  }
  return out;
}

std::unique_ptr<timing::DelayModel> OptimizerConfig::make_delay_model(
    const liberty::Library& lib) const {
  if (delay_model == "closed-form")
    return std::make_unique<timing::ClosedFormModel>(lib);
  if (delay_model == "table") {
    const timing::ClosedFormModel source(lib);
    return std::make_unique<timing::TableModel>(
        timing::TableModel::characterize(source, table_model));
  }
  throw ConfigError({"delay_model must be 'closed-form' or 'table' (got '" +
                     delay_model + "')"});
}

std::string OptimizerConfig::delay_model_selector() const {
  return delay_model == "table" ? table_model.selector() : delay_model;
}

std::unique_ptr<power::PowerModel> OptimizerConfig::make_power_model(
    const liberty::Library& lib) const {
  if (power_model != "proxy" && power_model != "state")
    throw ConfigError(
        {"power_model must be 'proxy' or 'state' (got '" + power_model +
         "')"});
  return power::make_power_model(power_model, lib);
}

std::string OptimizerConfig::power_model_selector() const {
  return power_model;
}

void OptimizerConfig::ensure_valid() const {
  const std::vector<std::string> problems = validate();
  if (!problems.empty()) throw ConfigError(problems);
}

core::ProtocolOptions OptimizerConfig::protocol_options() const {
  core::ProtocolOptions p;
  p.hard_ratio = hard_ratio;
  p.weak_ratio = weak_ratio;
  p.allow_restructuring = allow_restructuring;
  p.bounds = bounds;
  p.sensitivity = sensitivity;
  return p;
}

core::CircuitOptions OptimizerConfig::circuit_options() const {
  core::CircuitOptions c;
  c.max_paths = max_paths;
  c.max_rounds = max_rounds;
  c.tc_margin = tc_margin;
  c.pi_slew_ps = pi_slew_ps;
  c.protocol = protocol_options();
  return c;
}

core::ShieldOptions OptimizerConfig::shield_options() const {
  core::ShieldOptions s;
  s.margin = shield_margin;
  s.max_buffers = max_shield_buffers;
  s.shield_fanout = shield_fanout;
  return s;
}

}  // namespace pops::api
