#include "inputs.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <sstream>

namespace perfbench {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) {
  Rng mix(seed * 0x9E3779B97F4A7C15ull + purpose);
  return mix.next();
}

const std::vector<std::string>& iscas_circuits() {
  static const std::vector<std::string> names{
      "Adder16", "fpd",   "c432",  "c499",  "c880", "c1355",
      "c1908",   "c3540", "c5315", "c6288", "c7552"};
  return names;
}

std::vector<double> grid_ratios(Rng& rng) {
  std::vector<double> r;
  r.reserve(kGridRatios);
  const double width = (1.0 - 0.65) / kGridRatios;
  for (int j = 0; j < kGridRatios; ++j)
    r.push_back(0.65 + width * (j + rng.uniform()));
  return r;
}

namespace {

// Synthetic Tc range: 5% or more above the initial delay, so the sizing
// protocol has little to do and the multi-Vt pass has slack to spend. At
// exactly 1.0 a few circuits stay unmet (cleanup can lengthen the critical
// path) and keep their full leakage, so leakage_uw would swing with the
// seed.
constexpr double kSynthTcLo = 1.05;
constexpr double kSynthTcHi = 1.3;

/// Stride through `n` strata that visits every one (coprime with `n`).
std::size_t coprime_stride(std::size_t n, double fraction) {
  std::size_t step = std::max<std::size_t>(1, static_cast<std::size_t>(fraction * n));
  while (std::gcd(step, n) != 1) ++step;
  return step;
}

std::string synth_bench(Rng& rng, const std::string& name, double size, double width) {
  const std::size_t n_gates = 300 + static_cast<std::size_t>(901 * size);
  const std::size_t n_pi = 16 + static_cast<std::size_t>(49 * width);
  std::vector<std::string> sig;  // every signal, PIs first
  std::vector<int> fanout;
  std::ostringstream os;
  os << "# " << name << "\n";
  for (std::size_t i = 0; i < n_pi; ++i) {
    sig.push_back("i" + std::to_string(i));
    fanout.push_back(0);
    os << "INPUT(" << sig.back() << ")\n";
  }
  std::deque<std::size_t> unused_pi;
  for (std::size_t i = 0; i < n_pi; ++i) unused_pi.push_back(i);

  std::ostringstream gates;
  for (std::size_t g = 0; g < n_gates; ++g) {
    const std::size_t roll = rng.below(100);
    const char* op = nullptr;
    std::size_t arity = 2;
    if (roll < 10) {
      op = "NOT", arity = 1;
    } else if (roll < 18) {
      op = rng.below(2) ? "XOR" : "XNOR";
    } else {
      static const char* kOps[] = {"NAND", "NOR", "AND", "OR"};
      op = kOps[rng.below(4)];
      arity = 2 + (rng.below(10) < 6 ? 0 : 1 + rng.below(2));
    }
    std::vector<std::size_t> in;
    // Use every PI early; otherwise prefer recent signals, which gives the
    // circuits depth like real logic instead of a two-level soup.
    if (!unused_pi.empty() && rng.below(2) == 0) {
      in.push_back(unused_pi.front());
      unused_pi.pop_front();
    }
    while (in.size() < arity) {
      const std::size_t n = sig.size();
      const std::size_t window = std::min<std::size_t>(n, 48);
      const std::size_t pick =
          rng.below(10) < 7 ? n - 1 - rng.below(window) : rng.below(n);
      if (std::find(in.begin(), in.end(), pick) == in.end()) in.push_back(pick);
    }
    const std::string out = "g" + std::to_string(g);
    gates << out << " = " << op << "(";
    for (std::size_t k = 0; k < in.size(); ++k) {
      gates << (k ? ", " : "") << sig[in[k]];
      ++fanout[in[k]];
    }
    gates << ")\n";
    sig.push_back(out);
    fanout.push_back(0);
  }
  // A PI the gates never picked gets its own output inverter.
  for (const std::size_t pi : unused_pi) {
    const std::string out = "u" + std::to_string(pi);
    gates << out << " = NOT(" << sig[pi] << ")\n";
    os << "OUTPUT(" << out << ")\n";
  }
  // Outputs: every gate nothing reads, plus a few observed internal nets.
  for (std::size_t i = n_pi; i < sig.size(); ++i)
    if (fanout[i] == 0 || rng.below(64) == 0) os << "OUTPUT(" << sig[i] << ")\n";
  os << gates.str();
  return os.str();
}

}  // namespace

std::vector<SynthCircuit> synth_circuits(std::uint64_t seed, std::size_t n) {
  // Size, input count and Tc are stratified over their ranges and paired
  // on a fixed lattice (size stratum k takes the width and Tc strata k*a
  // and k*b mod n), so every seed draws the same joint distribution and
  // work and QoR averages barely move between seeds; only the jitter
  // inside each stratum, the circuit structure and the order are seeded.
  Rng rng(stream_seed(seed, 2));
  std::vector<std::size_t> strata(n);
  std::iota(strata.begin(), strata.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) std::swap(strata[i - 1], strata[rng.below(i)]);
  const std::size_t a = coprime_stride(n, 0.382), b = coprime_stride(n, 0.618);
  const auto at = [&](std::size_t stratum) {
    return (static_cast<double>(stratum) + rng.uniform()) / static_cast<double>(n);
  };
  std::vector<SynthCircuit> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = strata[i];
    const double size = at(k), width = at(k * a % n), tc = at(k * b % n);
    SynthCircuit c;
    c.name = "s" + std::to_string(i);
    c.bench = synth_bench(rng, c.name, size, width);
    c.tc_ratio = kSynthTcLo + (kSynthTcHi - kSynthTcLo) * tc;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace perfbench
