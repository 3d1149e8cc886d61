#include <bit>
#include <cstdint>
#include <sys/resource.h>

#include "workload.hpp"

namespace perfbench {

ProcSample proc_sample() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime) + seconds(usage.ru_stime),
          static_cast<double>(usage.ru_minflt)};
}

TimedRegion::TimedRegion(const RunConfig& config, int setup_reps)
    : setup_reps_(setup_reps),
      start_(now_ns()),
      deadline_(start_ + static_cast<Nanos>(config.seconds * 1e9)),
      period_((deadline_ - start_) / setup_reps),
      proc0_(proc_sample()) {}

bool TimedRegion::setup_due(int done) const {
  return done < setup_reps_ && now_ns() >= start_ + period_ * done;
}

void TimedRegion::pause() {
  paused_at_ = now_ns();
  paused_proc_ = proc_sample();
}

void TimedRegion::resume() {
  const ProcSample now = proc_sample();
  excluded_ns_ += now_ns() - paused_at_;
  excluded_.cpu_s += now.cpu_s - paused_proc_.cpu_s;
  excluded_.minor_faults += now.minor_faults - paused_proc_.minor_faults;
}

void TimedRegion::finish(WorkloadResult* result) const {
  const ProcSample proc1 = proc_sample();
  result->timed_wall_s = ms_between(start_ + excluded_ns_, now_ns()) * 1e-3;
  result->cpu_s = proc1.cpu_s - proc0_.cpu_s - excluded_.cpu_s;
  result->minor_faults =
      proc1.minor_faults - proc0_.minor_faults - excluded_.minor_faults;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void apply_duration_noise(hp::TaskGraph& graph, hp::util::Rng& rng,
                          double sigma) {
  for (std::size_t i = 0; i < graph.size(); ++i) {
    hp::Task& task = graph.task(static_cast<hp::TaskId>(i));
    task.cpu_time *= rng.lognormal(0.0, sigma);
    task.gpu_time *= rng.lognormal(0.0, sigma);
  }
}

void add_engine_phases(const hp::obs::MetricsCollector& collector,
                       std::map<std::string, double>* layer) {
  using hp::obs::Phase;
  const hp::obs::PhaseStats& engine = collector.stats(Phase::kEngine);
  if (engine.calls == 0) return;
  const double calls = static_cast<double>(engine.calls);
  const auto per_call_ms = [&](Phase phase) {
    return collector.stats(phase).scaled_total_ns() / calls * 1e-6;
  };
  (*layer)["core.engine_ms"] = per_call_ms(Phase::kEngine);
  (*layer)["core.key_build_ms"] = per_call_ms(Phase::kKeyBuild);
  (*layer)["core.sort_ms"] = per_call_ms(Phase::kSort);
  (*layer)["core.dispatch_ms"] = per_call_ms(Phase::kDispatch);
  (*layer)["core.ready_update_ms"] = per_call_ms(Phase::kReadyUpdate);
  (*layer)["core.spoliation_scan_ms"] = per_call_ms(Phase::kSpoliationScan);
}

}  // namespace perfbench
