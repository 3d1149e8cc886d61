// Workload `dag-file`: the `hp_sched schedule` path, run in-process on a
// tiled Cholesky N=30 graph file (4,960 tasks, 13,485 edges, ~450 KB)
// written at set-up with seeded lognormal duration noise. One op is load ->
// parse -> rank -> DAG lower bound -> HeteroPrio -> check -> metrics, in
// the CLI's order.
//
// N=30 rather than a larger graph: the stage mix is the same (parse and
// lower bound ~45% each, engine ~5%), but an N=60 op's working set (~10 MB)
// lives in the shared last-level cache, and its run medians swung by a
// third from run to run with the machine's other load.

#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <unistd.h>

#include "bounds/area_bound.hpp"
#include "bounds/dag_lower_bound.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "io/serialize.hpp"
#include "linalg/cholesky.hpp"
#include "obs/profile.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr int kTiles = 30;
constexpr double kNoiseSigma = 0.1;
constexpr int kSetupReps = 31;  ///< about 60 ms each, spread over the run
constexpr std::uint64_t kSalt = 0x64616766ULL;  // "dagf"

/// What one pipeline op produced; compared bitwise across ops.
struct PipelineOut {
  std::string error;  ///< empty when the op succeeded
  std::size_t bytes = 0;
  std::size_t tasks = 0;
  std::size_t edges = 0;
  std::size_t spoliations = 0;
  double lower_bound = 0.0;
  double makespan = 0.0;
};

PipelineOut run_pipeline(const std::string& path, const hp::Platform& platform,
                         SpanRecorder* spans, hp::obs::MetricsCollector* metrics,
                         std::uint64_t op) {
  PipelineOut out;
  std::optional<std::string> text;
  {
    const ScopedSpan span(spans, "io.load", op);
    text = hp::io::load_text_file(path);
  }
  if (!text.has_value()) {
    out.error = "cannot read " + path;
    return out;
  }
  out.bytes = text->size();
  std::optional<hp::TaskGraph> graph;
  {
    const ScopedSpan span(spans, "io.parse", op);
    graph = hp::io::graph_from_text(*text, &out.error);
  }
  if (!graph.has_value()) return out;
  out.tasks = graph->size();
  out.edges = graph->num_edges();
  {
    const ScopedSpan span(spans, "dag.rank", op);
    hp::assign_priorities(*graph, hp::RankScheme::kMin);
  }
  {
    const ScopedSpan span(spans, "bounds.dag_lb", op);
    out.lower_bound = hp::dag_lower_bound(*graph, platform).value();
  }
  hp::Schedule schedule;
  {
    const ScopedSpan span(spans, "core.engine", op);
    hp::HeteroPrioOptions options;
    options.metrics = metrics;
    schedule = hp::heteroprio_dag(*graph, platform, options);
  }
  hp::ScheduleCheck check;
  {
    const ScopedSpan span(spans, "sched.check", op);
    check = hp::check_schedule(schedule, *graph, platform);
  }
  hp::ScheduleMetrics schedule_metrics;
  {
    const ScopedSpan span(spans, "sched.metrics", op);
    schedule_metrics = hp::compute_metrics(schedule, graph->tasks(), platform);
  }
  out.makespan = schedule.makespan();
  out.spoliations = schedule.spoliation_count();
  if (!check.ok) {
    out.error = "invalid schedule: " + check.message;
  } else if (!same_bits(schedule_metrics.makespan, out.makespan)) {
    out.error = "compute_metrics disagrees with the schedule's makespan";
  }
  return out;
}

/// Empty when `got` reproduces `want` exactly.
std::string compare(const PipelineOut& want, const PipelineOut& got) {
  if (!got.error.empty()) return got.error;
  if (got.bytes != want.bytes || got.tasks != want.tasks ||
      got.edges != want.edges) {
    return "input changed between ops";
  }
  if (!same_bits(got.lower_bound, want.lower_bound)) {
    return "lower bound differs between ops";
  }
  if (!same_bits(got.makespan, want.makespan) ||
      got.spoliations != want.spoliations) {
    return "schedule differs between ops";
  }
  return {};
}

}  // namespace

WorkloadResult run_dag_file(const RunConfig& config) {
  const hp::Platform platform = paper_platform();
  const std::string path = config.workdir + "/chol" + std::to_string(kTiles) +
                           "-" + std::to_string(config.seed) + "-" +
                           std::to_string(::getpid()) + ".hpg";
  WorkloadResult result;
  result.fastest_ms.assign(1, std::numeric_limits<double>::infinity());

  // Set-up: generate the noisy graph, write the file, warm up with one op.
  // Every repetition must reproduce the first one's op exactly.
  std::vector<double> generate_ms;
  std::vector<double> area_lb_ms;
  PipelineOut reference;
  int setups = 0;
  auto set_up = [&]() -> bool {
    const Nanos t0 = now_ns();
    hp::TaskGraph graph = hp::cholesky_dag(kTiles);
    hp::util::Rng rng(hp::util::seed_from_cell({config.seed}, kSalt));
    apply_duration_noise(graph, rng, kNoiseSigma);
    const Nanos t1 = now_ns();
    (void)hp::area_bound(graph.tasks(), platform);
    const Nanos t2 = now_ns();
    if (!hp::io::save_text_file(path, hp::io::graph_to_text(graph))) {
      result.fail("cannot write " + path);
      return false;
    }
    const PipelineOut warm = run_pipeline(path, platform, nullptr, nullptr, 0);
    result.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
    ++result.attempted;
    generate_ms.push_back(ms_between(t0, t1));
    area_lb_ms.push_back(ms_between(t1, t2));
    const std::string why =
        setups++ == 0 ? warm.error : compare(reference, warm);
    if (!why.empty()) {
      result.fail("set-up " + std::to_string(setups - 1) + ": " + why);
      return false;
    }
    if (setups == 1) reference = warm;
    return true;
  };
  if (!set_up()) {
    std::remove(path.c_str());
    return result;
  }
  result.makespan_ratio = reference.makespan / reference.lower_bound;
  result.exact_counts = {{"io.bytes", static_cast<double>(reference.bytes)},
                         {"dag.tasks", static_cast<double>(reference.tasks)},
                         {"dag.edges", static_cast<double>(reference.edges)},
                         {"core.spoliations",
                          static_cast<double>(reference.spoliations)}};

  // Timed region.
  hp::obs::MetricsCollector collector;
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
    const Nanos t0 = now_ns();
    PipelineOut out;
    {
      const ScopedSpan root(spans, "op", op);
      out = run_pipeline(path, platform, spans, traced ? &collector : nullptr,
                         op);
    }
    const Nanos t1 = now_ns();
    ++result.attempted;
    if (const std::string why = compare(reference, out); !why.empty()) {
      result.fail("op " + std::to_string(op) + ": " + why);
      continue;
    }
    result.validated_tasks += static_cast<double>(out.tasks);
    if (!traced) result.record_latency(config, 0, ms_between(t0, t1));
  }
  region.finish(&result);
  std::remove(path.c_str());

  if (config.trace) {
    result.layer["model.generate_ms"] = median(generate_ms);
    result.layer["bounds.area_lb_ms"] = median(area_lb_ms);
    add_engine_phases(collector, &result.layer);
  }
  return result;
}

}  // namespace perfbench
