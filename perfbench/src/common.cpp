#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

namespace perfbench {

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void Tracer::record(const char* name, Clock::time_point t0,
                    Clock::time_point t1) {
  events_.push_back({name, t0, t1});
  auto& [ms, n] = totals_[name];
  ms += ms_between(t0, t1);
  ++n;
  covered_ms_ += ms_between(t0, t1);
}

double Tracer::total_ms(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.first;
}

std::size_t Tracer::calls(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.second;
}

void Tracer::write(const std::string& path) const {
  if (events_.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace '" + path + "'");
  const Clock::time_point origin = events_.front().t0;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  i ? "," : "", e.name, ms_between(origin, e.t0) * 1e3,
                  ms_between(e.t0, e.t1) * 1e3);
    out << buf;
  }
  out << "]}\n";
}

namespace {

// host_probe_ms() on the reference host (4-vCPU VM) in its fast state;
// it only sets the scale of normalized times, never their spread.
constexpr double kProbeReferenceMs = 5.4;

}  // namespace

double host_probe_ms() {
  static volatile double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  std::map<std::string, std::vector<double>> names;
  for (int i = 0; i < 12000; ++i)
    names["n" + std::to_string((i * 7919) % 100003)].assign(6, i);
  double s = 0.0;
  for (int i = 0; i < 600; ++i) {
    std::vector<std::vector<int>> nets(100);
    for (std::vector<int>& fanin : nets) fanin.assign(8 + i % 5, i);
    s += nets[7][0];
  }
  sink = sink + s + static_cast<double>(names.size());
  return ms_since(t0);
}

double at_reference_speed(double ms, double probe_before, double probe_after) {
  return ms * kProbeReferenceMs / (0.5 * (probe_before + probe_after));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::size_t count_above(const std::vector<double>& v, double x) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [x](double s) { return s > x; }));
}

double self_peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
