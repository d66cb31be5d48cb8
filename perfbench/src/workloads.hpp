#pragma once
// The three workloads. Each returns its metrics; main() prints them.

#include "common.hpp"

namespace perfbench {

/// iscas-grid and synth-multivt: in-process SweepService points.
RunResult run_inprocess(const Args& args);

/// fleet-replay: two pops_serve workers behind a FabricCoordinator.
RunResult run_fleet(const Args& args);

/// How a run's point latencies turn into the shared timing metrics
/// (throughput, p50, p90, with the sample-count guard).
void report_latencies(RunResult& out, const std::vector<double>& point_ms,
                      double setup_s);

/// Every `<layer>_ms` per-layer metric, summed from perfbench's own spans
/// (0 for a layer the workload does not reach).
void report_layers(RunResult& out, const Tracer& tracer);

}  // namespace perfbench
