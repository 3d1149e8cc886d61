// Workload `indep-1m`: the paper's independent-task setting at scale. One
// seeded uniform instance of 1,000,000 tasks; one op is one call of
// heteroprio() with default options (sequential, spoliation on).

#include <limits>

#include "bounds/area_bound.hpp"
#include "core/heteroprio.hpp"
#include "model/generators.hpp"
#include "obs/profile.hpp"
#include "sched/validate.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTasks = 1'000'000;
constexpr int kSetupReps = 15;  ///< about 0.5 s each, spread over the run
constexpr std::uint64_t kSalt = 0x696e6470ULL;  // "indp"

}  // namespace

WorkloadResult run_indep_1m(const RunConfig& config) {
  const hp::Platform platform = paper_platform();
  WorkloadResult result;
  result.fastest_ms.assign(1, std::numeric_limits<double>::infinity());

  // Set-up: generate the instance, bound it, warm up with one engine call.
  // Every repetition must reproduce the first one's bound and schedule.
  std::vector<double> generate_ms;
  std::vector<double> area_lb_ms;
  hp::Instance instance;
  double lower_bound = 0.0;
  double reference_makespan = 0.0;
  std::size_t reference_spoliations = 0;
  int setups = 0;
  auto set_up = [&]() -> bool {
    const Nanos t0 = now_ns();
    hp::util::Rng rng(hp::util::seed_from_cell({config.seed}, kSalt));
    hp::UniformGenParams params;
    params.num_tasks = kTasks;
    instance = {};  // a repetition replaces the instance, never holds two
    instance = hp::uniform_instance(params, rng);
    const Nanos t1 = now_ns();
    const double bound = hp::opt_lower_bound(instance.tasks(), platform);
    const Nanos t2 = now_ns();
    const hp::Schedule warm = hp::heteroprio(instance.tasks(), platform);
    result.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
    ++result.attempted;
    generate_ms.push_back(ms_between(t0, t1));
    area_lb_ms.push_back(ms_between(t1, t2));
    if (setups++ == 0) {
      lower_bound = bound;
      reference_makespan = warm.makespan();
      reference_spoliations = warm.spoliation_count();
    } else if (!same_bits(bound, lower_bound) ||
               !same_bits(warm.makespan(), reference_makespan) ||
               warm.spoliation_count() != reference_spoliations) {
      result.fail("set-up " + std::to_string(setups - 1) +
                  ": bound or schedule differs from the first set-up");
      return false;
    }
    return true;
  };
  set_up();
  result.makespan_ratio = reference_makespan / lower_bound;
  result.exact_counts = {{"core.spoliations",
                          static_cast<double>(reference_spoliations)}};

  // Timed region. Every op must reproduce the warm-up's makespan bitwise;
  // the first op's schedule is also fully checked, outside its timing.
  hp::obs::MetricsCollector collector;
  double check_ms = 0.0;
  TimedRegion region(config, kSetupReps);
  for (std::uint64_t op = 0; region.running(); ++op) {
    if (region.setup_due(setups)) {
      region.pause();
      const bool ok = set_up();
      region.resume();
      if (!ok) break;
    }
    const bool traced = traced_op(config, op);
    SpanRecorder* spans = traced ? &result.spans : nullptr;
    hp::HeteroPrioOptions options;
    options.metrics = traced ? &collector : nullptr;
    const Nanos t0 = now_ns();
    hp::Schedule schedule;
    {
      const ScopedSpan root(spans, "op", op);
      const ScopedSpan span(spans, "core.engine", op);
      schedule = hp::heteroprio(instance.tasks(), platform, options);
    }
    const Nanos t1 = now_ns();
    ++result.attempted;
    if (op == 0) {
      const Nanos c0 = now_ns();
      const hp::ScheduleCheck check =
          hp::check_schedule(schedule, instance.tasks(), platform);
      check_ms = ms_between(c0, now_ns());
      if (!check.ok) {
        result.fail("op 0: invalid schedule: " + check.message);
        continue;
      }
    }
    if (!same_bits(schedule.makespan(), reference_makespan) ||
        schedule.spoliation_count() != reference_spoliations) {
      result.fail("op " + std::to_string(op) +
                  ": schedule differs from the warm-up run");
      continue;
    }
    result.validated_tasks += static_cast<double>(kTasks);
    if (!traced) result.record_latency(config, 0, ms_between(t0, t1));
  }
  region.finish(&result);

  if (config.trace) {
    result.layer["model.generate_ms"] = median(generate_ms);
    result.layer["bounds.area_lb_ms"] = median(area_lb_ms);
    result.layer["sched.check_ms"] = check_ms;
    add_engine_phases(collector, &result.layer);
  }
  return result;
}

}  // namespace perfbench
