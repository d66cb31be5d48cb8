#include "pops/service/sweep.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "pops/obs/clock.hpp"
#include "pops/obs/metrics.hpp"
#include "pops/obs/trace.hpp"

namespace pops::service {

BufferPolicy buffer_policy(const std::string& name) {
  if (name == "standard") return BufferPolicy{"standard", true, true};
  if (name == "no-shield") return BufferPolicy{"no-shield", false, true};
  if (name == "no-restructure")
    return BufferPolicy{"no-restructure", true, false};
  if (name == "minimal") return BufferPolicy{"minimal", false, false};
  throw std::invalid_argument(
      "unknown buffer policy '" + name +
      "' (known: minimal no-restructure no-shield standard)");
}

std::vector<std::string> SweepSpec::validate() const {
  std::vector<std::string> out;
  auto require = [&out](bool ok, const std::string& msg) {
    if (!ok) out.push_back(msg);
  };

  require(!circuits.empty(), "circuits is empty");
  std::set<std::string> seen_circuits;
  for (const std::string& c : circuits) {
    require(!c.empty(), "circuits contains an empty name");
    require(seen_circuits.insert(c).second, "duplicate circuit '" + c + "'");
  }

  require(!tc_ratios.empty(), "tc_ratios is empty");
  for (const double r : tc_ratios)
    require(r > 0.0, "tc_ratio " + std::to_string(r) + " must be > 0");

  require(!shield_margins.empty(), "shield_margins is empty");
  for (const double m : shield_margins)
    require(m > 0.0, "shield_margin " + std::to_string(m) + " must be > 0");

  require(!temperatures.empty(), "temperatures is empty");
  for (const double t : temperatures)
    require(t > -273.15 && t < 300.0,
            "temperature " + std::to_string(t) +
                " must be a physical junction temperature (-273.15, 300)");

  require(!vt_policies.empty(), "vt_policies is empty");
  std::set<std::string> seen_vt;
  for (const std::string& v : vt_policies) {
    require(v == "none" || v == "multi-vt",
            "unknown vt policy '" + v + "' (known: multi-vt none)");
    require(seen_vt.insert(v).second, "duplicate vt policy '" + v + "'");
  }

  require(!policies.empty(), "policies is empty");
  std::set<std::string> seen_policies;
  for (const BufferPolicy& p : policies) {
    require(!p.name.empty(), "policies contains an unnamed policy");
    require(seen_policies.insert(p.name).second,
            "duplicate policy '" + p.name + "'");
  }

  for (const std::string& pass : pipeline)
    if (!api::PassRegistry::global().contains(pass))
      out.push_back("pipeline names unknown pass '" + pass + "'");

  // Materialize every policy's overrides onto the base and validate the
  // resulting *job* config — a valid base does not imply valid jobs (a
  // shield-only base under a no-shield policy empties the pipeline).
  // Margins only enter as cfg.shield_margin, already checked above, so a
  // neutral value keeps axis problems from being re-reported per policy.
  for (const BufferPolicy& p : policies) {
    api::OptimizerConfig cfg = base;
    cfg.enable_shielding = p.shielding;
    cfg.allow_restructuring = p.restructuring;
    cfg.shield_margin = 1.0;
    for (const std::string& prob : cfg.validate())
      out.push_back("job config (policy '" + p.name + "'): " + prob);
  }
  return out;
}

void SweepSpec::ensure_valid() const {
  const std::vector<std::string> problems = validate();
  if (problems.empty()) return;
  std::ostringstream os;
  os << "invalid SweepSpec (" << problems.size() << " problem"
     << (problems.size() == 1 ? "" : "s") << "):";
  for (const std::string& p : problems) os << "\n  - " << p;
  throw std::invalid_argument(os.str());
}

JobConfig job_config(const SweepSpec& spec, const BufferPolicy& policy,
                     const std::string& vt_policy, double temperature_c,
                     double shield_margin) {
  JobConfig job{spec.base, {}};
  job.cfg.enable_shielding = policy.shielding;
  job.cfg.allow_restructuring = policy.restructuring;
  job.cfg.shield_margin = shield_margin;
  job.cfg.temperature_c = temperature_c;
  if (vt_policy == "multi-vt") job.cfg.enable_multi_vt = true;
  if (spec.pipeline.empty()) {
    job.pipeline = api::PassPipeline::standard(job.cfg);
    return job;
  }
  // An explicit pipeline replaces standard()'s flag-driven pass
  // selection, so the vt axis appends its pass by name instead.
  std::vector<std::string> passes = spec.pipeline;
  if (vt_policy == "multi-vt" &&
      std::find(passes.begin(), passes.end(), "multi-vt") == passes.end())
    passes.push_back("multi-vt");
  job.pipeline = api::PassRegistry::global().make_pipeline(passes);
  return job;
}

SweepService::SweepService(const api::OptContext& ctx, bool use_cache)
    : SweepService(ctx,
                   use_cache ? std::make_shared<ResultCache>() : nullptr) {}

SweepService::SweepService(const api::OptContext& ctx,
                           std::shared_ptr<ResultCache> cache)
    : ctx_(&ctx), cache_(std::move(cache)) {}

SweepReport SweepService::run(const SweepSpec& spec, const CircuitLoader& load,
                              const RecordSink& sink) const {
  spec.ensure_valid();
  if (!load) throw std::invalid_argument("SweepService::run: null loader");

  static const obs::Registry::Counter runs =
      obs::Registry::global().counter("sweep.runs");
  static const obs::Registry::Counter points_total =
      obs::Registry::global().counter("sweep.points");
  runs.add();
  obs::Span span("sweep/run");
  span.arg("jobs", static_cast<double>(spec.n_jobs()));
  const obs::StopWatch watch;

  std::vector<netlist::Netlist> prototypes;
  prototypes.reserve(spec.circuits.size());
  for (const std::string& name : spec.circuits)
    prototypes.push_back(load(name));

  SweepReport out;
  out.points.reserve(spec.n_jobs());

  // One constraint group per (policy, vt-policy, temperature, margin,
  // ratio): all circuits of the group fan out across Optimizer::run_many's
  // dynamic work queue. The nesting here IS the record order contract
  // (mirrored exactly by fabric::expand_points — a fleet must shard the
  // same stream a local sweep emits).
  for (const BufferPolicy& policy : spec.policies) {
    for (const std::string& vt_policy : spec.vt_policies) {
      for (const double temperature : spec.temperatures) {
        for (const double margin : spec.shield_margins) {
          JobConfig job =
              job_config(spec, policy, vt_policy, temperature, margin);
          api::Optimizer optimizer(*ctx_, std::move(job.cfg), cache_.get());
          optimizer.set_pipeline(std::move(job.pipeline));

          for (const double ratio : spec.tc_ratios) {
            std::vector<netlist::Netlist> batch = prototypes;  // deep copies
            std::vector<api::PipelineReport> reports =
                optimizer.run_many_relative(batch, ratio, spec.n_threads);

            for (std::size_t i = 0; i < reports.size(); ++i) {
              SweepPoint point;
              point.circuit = spec.circuits[i];
              point.tc_ratio = ratio;
              point.shield_margin = margin;
              point.temperature_c = temperature;
              point.policy = policy.name;
              point.vt_policy = vt_policy;
              point.report = std::move(reports[i]);
              if (cache_) {
                // Every point made exactly one cache lookup. Counting
                // from the points (not a stats() delta) keeps the numbers
                // this run's own while other sweeps share the cache.
                ++(point.report.from_cache ? out.cache_hits
                                           : out.cache_misses);
              }
              points_total.add();
              if (sink) sink(point);
              out.points.push_back(std::move(point));
            }
          }
        }
      }
    }
  }

  if (cache_) out.cache_entries = cache_->size();
  out.wall_ms = watch.elapsed_ms();
  return out;
}

}  // namespace pops::service
