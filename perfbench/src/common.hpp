#pragma once
// Shared pieces of perfbench: arguments, the seeded generator, the result
// record and its own layer spans.

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "pops/util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string serve_bin;  ///< pops_serve, for the fleet workload
  std::string work_dir;   ///< scratch space inside the checkout
};

/// splitmix64: the benchmark's own generator, so a change to the program's
/// util::Rng cannot alter the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

/// FNV-1a over the generated inputs: the digest printed with every run.
class Digest {
 public:
  void add(const std::string& s) {
    for (const unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ull;
    h_ = (h_ ^ 0xff) * 0x100000001b3ull;  // field separator
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< one line per failed check
  std::vector<Metric> metrics;
  pops::util::Json info = pops::util::Json::object();

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 20) problems.push_back(why);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// perfbench's own spans around its calls into each layer. Kept in
/// memory; write() dumps them as Chrome trace events at the end of a
/// traced run. Disabled, a Layer scope reads no clock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const noexcept { return on_; }

  class Layer {
   public:
    Layer(Tracer& t, const char* name) : t_(t), name_(name) {
      if (t_.on_) t0_ = Clock::now();
    }
    ~Layer() {
      if (t_.on_) t_.record(name_, t0_, Clock::now());
    }
    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

   private:
    Tracer& t_;
    const char* name_;
    Clock::time_point t0_;
  };

  void record(const char* name, Clock::time_point t0, Clock::time_point t1);
  double total_ms(const std::string& name) const;
  std::size_t calls(const std::string& name) const;
  /// Sum of every recorded span (spans never nest).
  double covered_ms() const noexcept { return covered_ms_; }
  void write(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    Clock::time_point t0, t1;
  };
  bool on_;
  double covered_ms_ = 0.0;
  std::vector<Event> events_;
  std::map<std::string, std::pair<double, std::size_t>> totals_;
};

/// Fixed, benchmark-owned work (string-keyed map and small-vector churn)
/// run between in-process points, in the same thread. On the reference
/// host the speed of such allocation-heavy code drifts by 15-35% over
/// seconds (neighbours on shared cores) while plain arithmetic does not;
/// the probe drifts with it, so a point's latency divided by the probe
/// times around it is steady. Returns the probe's time, ms.
double host_probe_ms();

/// `ms` expressed at the reference host speed, given the probe times
/// taken just before and just after it.
double at_reference_speed(double ms, double probe_before, double probe_after);

/// Value at quantile q of `v` (linear interpolation, like numpy's default).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Samples strictly above `x`.
std::size_t count_above(const std::vector<double>& v, double x);

/// Peak resident set of this process, MB.
double self_peak_rss_mb();

}  // namespace perfbench
