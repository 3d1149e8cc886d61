#pragma once
// What every workload receives and returns.
//
// A workload sets up its inputs, then runs ops until its time is up,
// validating every op. It repeats its set-up at intervals over the run, for
// a steady set-up figure, and checks each repetition against the first. In a
// traced run it alternates untraced and traced ops, so the difference
// between the two is the tracing overhead, and fills the per-layer
// metrics. Untraced runs attach nothing: no spans, no engine collector.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dag/task_graph.hpp"
#include "model/platform.hpp"
#include "obs/profile.hpp"
#include "util/rng.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch files (inputs, span dumps)
};

/// The paper's platform: 20 CPU cores and 4 GPUs.
[[nodiscard]] inline hp::Platform paper_platform() { return {20, 4}; }

/// Multiply every task's CPU and GPU time by an independent lognormal
/// factor exp(sigma * N(0,1)), the duration noise of the DAG workloads.
void apply_duration_noise(hp::TaskGraph& graph, hp::util::Rng& rng,
                          double sigma);

/// Whether op `op` of a traced run is traced. Ops alternate in pairs
/// (untraced, untraced, traced, traced, ...), so consecutive inputs that
/// alternate between two kinds land on both sides in equal numbers.
[[nodiscard]] inline bool traced_op(const RunConfig& config, std::uint64_t op) {
  return config.trace && (op / 2) % 2 == 1;
}

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first failures, for the log

  /// Fastest untraced op on each distinct input the workload runs: one
  /// input for the batch workloads, one per pool entry for serve-mixed.
  /// latency_ms.min is their mean, so every input kind is gated.
  std::vector<double> fastest_ms;
  std::uint64_t timed_ops = 0;  ///< untraced timed ops that passed
  /// Every untraced op's latency, kept in traced runs only (p50, p90, the
  /// tracing overhead). Untraced runs keep no per-op log, so peak_rss_mb
  /// does not grow with the number of ops served.
  std::vector<double> latency_ms;
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  double validated_tasks = 0.0;    ///< tasks of ops that passed validation
  double timed_wall_s = 0.0;
  double cpu_s = 0.0;              ///< process CPU time in the timed region
  double minor_faults = 0.0;       ///< minor page faults in the timed region
  double makespan_ratio = 0.0;     ///< mean makespan / lower bound

  /// Deterministic counts that must repeat exactly for a given seed.
  std::map<std::string, double> exact_counts;
  /// Per-layer metrics measured directly (traced run only); the span
  /// rollup and the exact counts are added by the driver.
  std::map<std::string, double> layer;
  SpanRecorder spans;  ///< traced ops only; roots are named "op"

  /// Count one untraced op on input `input` that took `ms`.
  void record_latency(const RunConfig& config, std::size_t input, double ms) {
    ++timed_ops;
    fastest_ms[input] = std::min(fastest_ms[input], ms);
    if (config.trace) latency_ms.push_back(ms);
  }

  void fail(std::string message) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(message));
  }
};

/// Process CPU seconds and minor faults so far (getrusage).
struct ProcSample {
  double cpu_s = 0.0;
  double minor_faults = 0.0;
};
[[nodiscard]] ProcSample proc_sample();

/// The timed region of a run: its deadline, when the next set-up
/// repetition is due, and its wall time, CPU time and minor faults less
/// those of the set-up repetitions run inside it.
///
/// A workload sets up `setup_reps` times. The first runs before the
/// region, the others between ops at equal intervals inside it, and
/// setup_s is the fastest: other load on the machine comes in phases of
/// seconds, and a burst of set-ups would measure whichever phase it fell in.
class TimedRegion {
 public:
  TimedRegion(const RunConfig& config, int setup_reps);

  [[nodiscard]] bool running() const { return now_ns() < deadline_; }
  /// Whether set-up repetition `done` (0-based; the first ran before the
  /// region) is due.
  [[nodiscard]] bool setup_due(int done) const;
  /// Bracket a set-up repetition run inside the region.
  void pause();
  void resume();
  /// Fill the result's timed_wall_s, cpu_s and minor_faults.
  void finish(WorkloadResult* result) const;

 private:
  int setup_reps_;
  Nanos start_;
  Nanos deadline_;
  Nanos period_;
  ProcSample proc0_;
  Nanos paused_at_ = 0;
  ProcSample paused_proc_;
  Nanos excluded_ns_ = 0;
  ProcSample excluded_;
};

/// Milliseconds between two steady-clock readings.
[[nodiscard]] inline double ms_between(Nanos from, Nanos to) {
  return static_cast<double>(to - from) * 1e-6;
}

/// Bitwise equality of two doubles (a schedule computed twice must agree
/// to the last bit, not within a tolerance).
[[nodiscard]] bool same_bits(double a, double b);

/// Per-call engine phase times from a collector attached to the traced
/// ops: core.engine_ms and one core.<phase>_ms per instrumented phase.
void add_engine_phases(const hp::obs::MetricsCollector& collector,
                       std::map<std::string, double>* layer);

WorkloadResult run_dag_file(const RunConfig& config);
WorkloadResult run_indep_1m(const RunConfig& config);
WorkloadResult run_serve_mixed(const RunConfig& config);

}  // namespace perfbench
