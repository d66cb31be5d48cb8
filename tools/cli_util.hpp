#pragma once
// Shared command-line plumbing for the pops_* tools (pops_sweep,
// pops_serve, pops_fabric): comma-list splitting, strict numeric parsing,
// whole-file reads, and the circuit-argument rules. One copy so the
// error-message conventions (diagnose the flag and the offending token,
// never a bare "stod") and the meaning of a circuit name cannot drift
// between tools.

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace pops::cli {

/// Split a comma-separated flag value; empty items are dropped.
inline std::vector<std::string> split_list(const std::string& arg) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : arg) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

/// Strict numeric parsing: the whole token must be consumed ("2x" or
/// "abc" are diagnosed, not silently truncated or rethrown as bare
/// "stod").
inline double parse_double(const std::string& s, const char* flag) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (s.empty() || used != s.size())
    throw std::invalid_argument(std::string(flag) + ": bad number '" + s +
                                "'");
  return v;
}

inline long parse_long(const std::string& s, const char* flag) {
  std::size_t used = 0;
  long v = 0;
  try {
    v = std::stol(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (s.empty() || used != s.size())
    throw std::invalid_argument(std::string(flag) + ": bad integer '" + s +
                                "'");
  return v;
}

inline std::vector<double> split_doubles(const std::string& arg,
                                         const char* flag) {
  std::vector<double> out;
  for (const std::string& item : split_list(arg))
    out.push_back(parse_double(item, flag));
  return out;
}

/// Whole file as a string; throws std::runtime_error when unreadable.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Label under which a .bench path appears in specs/reports: the
/// basename without the ".bench" suffix.
inline std::string bench_label(const std::string& path) {
  std::string base = path;
  const std::size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);
  const std::size_t dot = base.rfind(".bench");
  if (dot != std::string::npos && dot + 6 == base.size())
    base = base.substr(0, dot);
  return base;
}

/// A circuit argument resolved: the label it appears under in specs and
/// reports, and the .bench file to read it from (empty for a built-in).
struct CircuitArg {
  std::string label;
  std::string path;
};

/// A positional circuit: '@name' is the built-in `name`, anything else a
/// .bench path.
inline CircuitArg positional_circuit(const std::string& arg) {
  if (!arg.empty() && arg[0] == '@') return {arg.substr(1), ""};
  return {bench_label(arg), arg};
}

/// A spec-file circuit. Dumped specs store bare labels, so only names that
/// look like files (a '/' or a ".bench" suffix) are opened; '@name' and
/// every other name is a built-in.
inline CircuitArg spec_circuit(const std::string& name) {
  const bool is_file =
      name.find('/') != std::string::npos ||
      (name.size() > 6 && name.compare(name.size() - 6, 6, ".bench") == 0);
  if (is_file || (!name.empty() && name[0] == '@'))
    return positional_circuit(name);
  return {name, ""};
}

/// Append `c` to `circuits` for a tool that ships circuits to a server: a
/// file's source goes into `inline_bench` under its label, a built-in
/// resolves server-side.
inline void ship_circuit(const CircuitArg& c,
                         std::vector<std::string>& circuits,
                         std::map<std::string, std::string>& inline_bench) {
  if (!c.path.empty()) inline_bench[c.label] = read_file(c.path);
  circuits.push_back(c.label);
}

}  // namespace pops::cli
