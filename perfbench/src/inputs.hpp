#pragma once
// Seeded, benchmark-owned inputs. Everything a workload feeds the program
// is derived here from the workload seed: Tc draws, synthetic .bench text,
// replay order and fresh-point picks. The program only sees the results.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Seed of the run's `purpose` stream (independent streams per purpose,
/// so adding a draw to one input never shifts another).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose);

/// The paper's circuit suite as built into the program (Table 1 order).
const std::vector<std::string>& iscas_circuits();

/// Tc ratios in [0.65, 1.0), one per stratum of width 0.035, so every
/// cycle covers the whole range whatever the seed.
inline constexpr int kGridRatios = 10;
std::vector<double> grid_ratios(Rng& rng);

/// One synthetic circuit of the synth-multivt workload.
struct SynthCircuit {
  std::string name;
  std::string bench;  ///< ISCAS .bench text
  double tc_ratio = 0.0;
};

/// `n` seeded random-logic circuits of 300..1200 gates with one Tc each;
/// sizes, input counts and Tc ratios are stratified over their ranges.
std::vector<SynthCircuit> synth_circuits(std::uint64_t seed, std::size_t n);

}  // namespace perfbench
