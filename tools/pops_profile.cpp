// pops_profile — top-down time breakdown of a pops trace.
//
// Reads a Chrome trace-event JSON file (pops_sweep --trace, pops_serve
// --trace-out) and aggregates the complete ("ph": "X") events per span
// name: count, total (inclusive) time, self time (total minus the time
// spent in spans nested inside), and the self share of the whole trace.
// The same containment math a trace viewer's bottom-up view does, as a
// terminal table — the quick answer to "where do the milliseconds go"
// without leaving the shell. `--diff A B` aggregates two traces and
// prints per-span deltas (B minus A) of count, total and self time, so
// two runs can be compared layer by layer.
//
//   pops_sweep --tc 0.8 --trace trace.json --out /dev/null @c432
//   pops_profile trace.json
//   pops_profile --sort self trace.json
//   pops_profile --diff before.json after.json
//
// Nesting is reconstructed per thread from timestamps: events are sorted
// by (start asc, duration desc), so an enclosing span precedes the spans
// it contains and a stack of open intervals yields each span's children.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "pops/util/json.hpp"

namespace {

using pops::util::Json;

struct Agg {
  std::size_t count = 0;
  double total_us = 0.0;  ///< inclusive
  double self_us = 0.0;   ///< total minus nested spans
};

struct Event {
  std::string name;
  double ts = 0.0;   ///< microseconds
  double dur = 0.0;  ///< microseconds
};

/// One trace aggregated per span name.
struct Profile {
  std::map<std::string, Agg> aggs;
  std::size_t n_events = 0;
  double self_us = 0.0;  ///< sum of self time over all spans
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: pops_profile [--sort total|self|count] <trace.json>\n"
               "       pops_profile [--sort total|self|count] --diff A.json "
               "B.json\n"
               "\n"
               "Summarizes a Chrome trace-event file (pops_sweep --trace /\n"
               "pops_serve --trace-out) as a per-span-name table: calls,\n"
               "inclusive total ms, self ms (minus nested spans), self %%.\n"
               "--diff prints, per span, both runs and the B-minus-A delta\n"
               "of count, total ms and self ms, largest change first.\n");
}

double num_member(const Json& j, const char* key) {
  const Json* v = j.find(key);
  if (!v || !v->is_number())
    throw std::invalid_argument(std::string("event needs a numeric '") + key +
                                "'");
  return v->as_number();
}

Profile load_profile(const std::string& path) {
  const Json doc = Json::parse(pops::cli::read_file(path));
  const Json* events = doc.is_object() ? doc.find("traceEvents") : nullptr;
  if (!events || !events->is_array())
    throw std::invalid_argument("'" + path +
                                "' is not a Chrome trace-event document "
                                "(no 'traceEvents' array)");

  // Bucket complete events by tid; everything else (metadata records,
  // instant events) is ignored.
  std::map<double, std::vector<Event>> by_tid;
  for (const Json& e : events->items()) {
    if (!e.is_object()) continue;
    const Json* ph = e.find("ph");
    if (!ph || !ph->is_string() || ph->as_string() != "X") continue;
    const Json* name = e.find("name");
    Event ev;
    ev.name = name && name->is_string() ? name->as_string() : "<unnamed>";
    ev.ts = num_member(e, "ts");
    ev.dur = num_member(e, "dur");
    const Json* tid = e.find("tid");
    by_tid[tid && tid->is_number() ? tid->as_number() : 0.0].push_back(
        std::move(ev));
  }

  Profile prof;
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const Event& a, const Event& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      return a.dur > b.dur;  // the enclosing span first
    });
    struct Open {
      const Event* ev;
      double child_us = 0.0;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& open) {
      Agg& a = prof.aggs[open.ev->name];
      ++a.count;
      a.total_us += open.ev->dur;
      a.self_us += open.ev->dur - open.child_us;
    };
    for (const Event& ev : list) {
      ++prof.n_events;
      while (!stack.empty() &&
             stack.back().ev->ts + stack.back().ev->dur <= ev.ts) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += ev.dur;
      stack.push_back(Open{&ev});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  for (const auto& [name, a] : prof.aggs) prof.self_us += a.self_us;
  return prof;
}

void print_profile(const Profile& prof, const std::string& sort_key) {
  std::vector<std::pair<std::string, Agg>> rows(prof.aggs.begin(),
                                                prof.aggs.end());
  std::sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    if (sort_key == "count" && a.second.count != b.second.count)
      return a.second.count > b.second.count;
    if (sort_key == "self" && a.second.self_us != b.second.self_us)
      return a.second.self_us > b.second.self_us;
    if (a.second.total_us != b.second.total_us)
      return a.second.total_us > b.second.total_us;
    return a.first < b.first;  // deterministic tie-break
  });

  std::printf("%zu events, %zu span names, %.3f ms self time total\n\n",
              prof.n_events, rows.size(), prof.self_us / 1e3);
  std::printf("%-24s %10s %12s %12s %7s\n", "span", "count", "total_ms",
              "self_ms", "self%");
  for (const auto& [name, a] : rows)
    std::printf("%-24s %10zu %12.3f %12.3f %6.1f%%\n", name.c_str(), a.count,
                a.total_us / 1e3, a.self_us / 1e3,
                prof.self_us > 0.0 ? 100.0 * a.self_us / prof.self_us : 0.0);
}

void print_diff(const Profile& a, const Profile& b,
                const std::string& sort_key) {
  // Every span of either run; a span missing from one run reads as 0.
  std::map<std::string, std::pair<Agg, Agg>> by_name;
  for (const auto& [name, agg] : a.aggs) by_name[name].first = agg;
  for (const auto& [name, agg] : b.aggs) by_name[name].second = agg;
  using Row = std::pair<std::string, std::pair<Agg, Agg>>;
  std::vector<Row> rows(by_name.begin(), by_name.end());
  // Largest change first: magnitude of the --sort key's delta.
  auto change = [&](const Row& r) {
    const auto& [ra, rb] = r.second;
    if (sort_key == "count")
      return std::fabs(static_cast<double>(rb.count) -
                       static_cast<double>(ra.count));
    if (sort_key == "self") return std::fabs(rb.self_us - ra.self_us);
    return std::fabs(rb.total_us - ra.total_us);
  };
  std::sort(rows.begin(), rows.end(), [&](const Row& x, const Row& y) {
    if (change(x) != change(y)) return change(x) > change(y);
    return x.first < y.first;
  });

  std::printf("A: %zu events, %.3f ms self time total\n", a.n_events,
              a.self_us / 1e3);
  std::printf("B: %zu events, %.3f ms self time total (%+.3f ms)\n\n",
              b.n_events, b.self_us / 1e3, (b.self_us - a.self_us) / 1e3);
  std::printf("%-24s %8s %8s %8s %11s %11s %11s %11s %11s %11s\n", "span",
              "count_a", "count_b", "d_count", "total_a_ms", "total_b_ms",
              "d_total_ms", "self_a_ms", "self_b_ms", "d_self_ms");
  for (const auto& [name, ab] : rows) {
    const auto& [ra, rb] = ab;
    std::printf(
        "%-24s %8zu %8zu %+8.0f %11.3f %11.3f %+11.3f %11.3f %11.3f %+11.3f\n",
        name.c_str(), ra.count, rb.count,
        static_cast<double>(rb.count) - static_cast<double>(ra.count),
        ra.total_us / 1e3, rb.total_us / 1e3, (rb.total_us - ra.total_us) / 1e3,
        ra.self_us / 1e3, rb.self_us / 1e3, (rb.self_us - ra.self_us) / 1e3);
  }
}

int run(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string sort_key = "total";
  bool diff = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--sort") {
      if (i + 1 >= argc) throw std::invalid_argument("--sort needs a value");
      sort_key = argv[++i];
      if (sort_key != "total" && sort_key != "self" && sort_key != "count")
        throw std::invalid_argument("--sort must be total, self, or count");
    } else if (arg == "--diff") {
      diff = true;
    } else if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown option '" + arg + "'");
    } else {
      paths.push_back(arg);
    }
  }
  if (diff) {
    if (paths.size() != 2)
      throw std::invalid_argument("--diff needs exactly two trace files");
    print_diff(load_profile(paths[0]), load_profile(paths[1]), sort_key);
    return 0;
  }
  if (paths.empty()) throw std::invalid_argument("no trace file given");
  if (paths.size() > 1)
    throw std::invalid_argument("exactly one trace file expected");
  print_profile(load_profile(paths[0]), sort_key);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pops_profile: %s\n", e.what());
    std::fprintf(stderr, "try 'pops_profile --help'\n");
    return 1;
  }
}
