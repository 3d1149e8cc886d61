// Differential gate for the parallel scheduler engine (src/par): canonical
// mode must be bitwise-identical to the sequential engine across the whole
// precondition grid — platform shapes, thread counts, uniform and distinct
// priorities, spoliation on and off, duration noise, and the delegating
// cases (fault plans, tiny instances) — while free-running mode must always
// produce a valid, complete schedule inside the proven makespan ratios,
// with consistent spoliation bookkeeping and claim counters.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bounds/area_bound.hpp"
#include "core/heteroprio.hpp"
#include "fault/fault_plan.hpp"
#include "fuzz/generator.hpp"
#include "model/generators.hpp"
#include "obs/counters.hpp"
#include "obs/watchdog.hpp"
#include "par/heteroprio_par.hpp"
#include "sched/validate.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const Schedule& parallel, const Schedule& sequential) {
  ASSERT_EQ(parallel.num_tasks(), sequential.num_tasks());
  for (std::size_t t = 0; t < sequential.num_tasks(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    const Placement& a = parallel.placement(static_cast<TaskId>(t));
    const Placement& b = sequential.placement(static_cast<TaskId>(t));
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_TRUE(same_bits(a.start, b.start)) << a.start << " vs " << b.start;
    EXPECT_TRUE(same_bits(a.end, b.end)) << a.end << " vs " << b.end;
  }
  ASSERT_EQ(parallel.aborted().size(), sequential.aborted().size());
  for (std::size_t i = 0; i < sequential.aborted().size(); ++i) {
    SCOPED_TRACE("aborted " + std::to_string(i));
    const AbortedSegment& a = parallel.aborted()[i];
    const AbortedSegment& b = sequential.aborted()[i];
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_TRUE(same_bits(a.start, b.start));
    EXPECT_TRUE(same_bits(a.abort_time, b.abort_time));
  }
  EXPECT_TRUE(same_bits(parallel.makespan(), sequential.makespan()));
}

std::vector<Task> make_tasks(std::size_t n, std::uint64_t seed,
                             bool distinct_priorities) {
  util::Rng rng(seed);
  UniformGenParams params;
  params.num_tasks = n;
  Instance inst = uniform_instance(params, rng);
  std::vector<Task> tasks(inst.tasks().begin(), inst.tasks().end());
  if (distinct_priorities) {
    // A seed-dependent permutation of distinct priorities forces the
    // two-key (KeyId2) packing through the sharded sort and merge.
    for (std::size_t i = 0; i < n; ++i) {
      tasks[i].priority =
          static_cast<double>((i * 2654435761u + seed) % (4 * n));
    }
  }
  return tasks;
}

const std::vector<Platform>& grid_platforms() {
  static const std::vector<Platform> platforms = {
      Platform(1, 1), Platform(4, 2),  Platform(1, 4),
      Platform(6, 0), Platform(0, 3), Platform(20, 4)};
  return platforms;
}

TEST(ParRegression, CanonicalMatchesSequentialAcrossGrid) {
  for (const Platform& platform : grid_platforms()) {
    for (const int threads : {2, 3, 4, 8}) {
      for (const bool spoliation : {true, false}) {
        for (const bool distinct : {false, true}) {
          SCOPED_TRACE("cpus=" + std::to_string(platform.cpus()) + " gpus=" +
                       std::to_string(platform.gpus()) + " W=" +
                       std::to_string(threads) + " spol=" +
                       std::to_string(spoliation) + " distinct=" +
                       std::to_string(distinct));
          const std::vector<Task> tasks =
              make_tasks(97, 11 * static_cast<std::uint64_t>(threads) + 1,
                         distinct);
          HeteroPrioOptions seq_options;
          seq_options.enable_spoliation = spoliation;
          const Schedule sequential =
              heteroprio(tasks, platform, seq_options);

          HeteroPrioOptions par_options = seq_options;
          par_options.threads = threads;
          par_options.canonical = true;
          HeteroPrioStats par_hp_stats;
          par::HeteroPrioParStats par_stats;
          const Schedule parallel = par::heteroprio_par_run(
              tasks, platform, par_options, &par_hp_stats, &par_stats);
          expect_identical(parallel, sequential);
          EXPECT_FALSE(par_stats.delegated);
          EXPECT_EQ(par_stats.threads_used, threads);
          std::uint64_t published = 0;
          for (const std::uint64_t p : par_stats.shard_published) {
            published += p;
          }
          EXPECT_EQ(published, tasks.size());
        }
      }
    }
  }
}

TEST(ParRegression, CanonicalMatchesThroughTheDispatchFrontDoor) {
  // HeteroPrioOptions::threads routes heteroprio() itself into the parallel
  // engine; the public entry point must keep the identity too.
  const std::vector<Task> tasks = make_tasks(120, 7, /*distinct=*/true);
  const Platform platform(5, 3);
  const Schedule sequential = heteroprio(tasks, platform);
  HeteroPrioOptions options;
  options.threads = 4;
  options.canonical = true;
  HeteroPrioStats seq_stats;
  HeteroPrioStats par_stats;
  const Schedule sequential2 = heteroprio(tasks, platform, {}, &seq_stats);
  const Schedule parallel = heteroprio(tasks, platform, options, &par_stats);
  expect_identical(parallel, sequential);
  expect_identical(sequential2, sequential);
  EXPECT_EQ(par_stats.spoliations, seq_stats.spoliations);
  EXPECT_EQ(par_stats.spoliation_attempts, seq_stats.spoliation_attempts);
  EXPECT_TRUE(same_bits(par_stats.first_idle_time, seq_stats.first_idle_time));
}

TEST(ParRegression, CanonicalMatchesUnderDurationNoise) {
  // Beliefs/actuals divergence stays on the canonical path (free-running
  // rejects it); the noisy simulation must still be bitwise-identical.
  const std::vector<Task> tasks = make_tasks(80, 21, /*distinct=*/false);
  std::vector<Task> actuals = tasks;
  util::Rng rng(99);
  for (Task& t : actuals) {
    t.cpu_time *= 0.8 + 0.4 * rng.uniform01();
    t.gpu_time *= 0.8 + 0.4 * rng.uniform01();
  }
  const Platform platform(4, 2);
  HeteroPrioOptions options;
  options.actual_times = actuals;
  const Schedule sequential = heteroprio(tasks, platform, options);
  options.threads = 4;
  options.canonical = true;
  const Schedule parallel = heteroprio(tasks, platform, options);
  expect_identical(parallel, sequential);
}

TEST(ParRegression, FaultPlansDelegateBitwiseWithRecovery) {
  const std::vector<Task> tasks = make_tasks(60, 5, /*distinct=*/true);
  const Platform platform(4, 2);
  fault::FaultPlan plan;
  plan.add_crash(1, 4.0);
  plan.add_straggler(4, 2.0, 9.0, 3.0);

  HeteroPrioOptions options;
  options.faults = &plan;
  HeteroPrioStats seq_stats;
  const Schedule sequential = heteroprio(tasks, platform, options, &seq_stats);

  options.threads = 4;
  options.canonical = true;
  HeteroPrioStats par_hp_stats;
  par::HeteroPrioParStats par_stats;
  const Schedule parallel = par::heteroprio_par_run(
      tasks, platform, options, &par_hp_stats, &par_stats);
  expect_identical(parallel, sequential);
  EXPECT_TRUE(par_stats.delegated);
  EXPECT_EQ(par_stats.threads_used, 1);
  EXPECT_EQ(par_hp_stats.recovery.degraded, seq_stats.recovery.degraded);
  EXPECT_EQ(par_hp_stats.recovery.crash_requeues,
            seq_stats.recovery.crash_requeues);
  EXPECT_EQ(par_hp_stats.recovery.worker_crashes,
            seq_stats.recovery.worker_crashes);
}

TEST(ParRegression, TinyInstancesDelegateWithoutShardOverhead) {
  const std::vector<Task> tasks = make_tasks(5, 3, /*distinct=*/false);
  const Platform platform(2, 2);
  const Schedule sequential = heteroprio(tasks, platform);
  HeteroPrioOptions options;
  options.threads = 8;  // n < 2 * threads: sharding would be pure overhead
  par::HeteroPrioParStats par_stats;
  const Schedule parallel =
      par::heteroprio_par_run(tasks, platform, options, nullptr, &par_stats);
  expect_identical(parallel, sequential);
  EXPECT_EQ(par_stats.threads_used, 1);
  EXPECT_FALSE(par_stats.delegated);  // coverable, just not worth sharding
}

TEST(ParRegression, FreeRunningIsValidCompleteAndWithinProvenRatio) {
  for (const Platform& platform : grid_platforms()) {
    for (const int threads : {2, 4, 8}) {
      // Seed 45 is the pacing witness: without the conservative pacing
      // window a wall-clock-fast slice hoards the instance and its runaway
      // in-slice spoliation aborts push makespan() past the proven ratio.
      for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 45ull}) {
        SCOPED_TRACE("cpus=" + std::to_string(platform.cpus()) + " gpus=" +
                     std::to_string(platform.gpus()) + " W=" +
                     std::to_string(threads) + " seed=" +
                     std::to_string(seed));
        const std::vector<Task> tasks = make_tasks(150, seed, seed % 2 == 0);
        HeteroPrioOptions options;
        options.threads = threads;
        options.canonical = false;
        HeteroPrioStats stats;
        par::HeteroPrioParStats par_stats;
        const Schedule s = par::heteroprio_par_run(tasks, platform, options,
                                                   &stats, &par_stats);
        const ScheduleCheck check = check_schedule(s, tasks, platform);
        EXPECT_TRUE(check.ok) << check.message;
        EXPECT_TRUE(s.complete());
        // Free-running bookkeeping: every spoliation recorded exactly one
        // aborted segment (fault-free runs have no other abort source).
        EXPECT_EQ(static_cast<std::size_t>(stats.spoliations),
                  s.aborted().size());
        const double lb = opt_lower_bound(tasks, platform);
        EXPECT_GE(s.makespan(), lb * (1.0 - 1e-9));
        const obs::BoundCheck bc =
            obs::check_makespan_bound(s.makespan(), lb, platform, {});
        EXPECT_FALSE(bc.violated)
            << "ratio " << bc.ratio << " > proven " << bc.bound;
      }
    }
  }
}

TEST(ParRegression, FreeRunningWithoutSpoliationRecordsNoAborts) {
  const std::vector<Task> tasks = make_tasks(140, 17, /*distinct=*/true);
  const Platform platform(6, 3);
  HeteroPrioOptions options;
  options.threads = 3;
  options.canonical = false;
  options.enable_spoliation = false;
  HeteroPrioStats stats;
  const Schedule s = par::heteroprio_par_run(tasks, platform, options, &stats);
  const ScheduleCheck check = check_schedule(s, tasks, platform);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(s.complete());
  EXPECT_TRUE(s.aborted().empty());
  EXPECT_EQ(stats.spoliations, 0);
}

TEST(ParRegression, FreeRunningCountersAccountForEveryTask) {
  const std::vector<Task> tasks = make_tasks(400, 23, /*distinct=*/false);
  const Platform platform(8, 4);
  HeteroPrioOptions options;
  options.threads = 4;
  options.canonical = false;
  par::HeteroPrioParStats par_stats;
  const Schedule s =
      par::heteroprio_par_run(tasks, platform, options, nullptr, &par_stats);
  EXPECT_TRUE(s.complete());
  EXPECT_FALSE(par_stats.canonical);
  EXPECT_GT(par_stats.threads_used, 1);
  // Each task is claimed exactly once: home-shard claims and ring steals
  // are disjoint counts that together cover the instance.
  EXPECT_EQ(par_stats.claims + par_stats.steals, tasks.size());
  EXPECT_GT(par_stats.claims, 0u);
  std::uint64_t published = 0;
  for (const std::uint64_t p : par_stats.shard_published) published += p;
  EXPECT_EQ(published, tasks.size());
  EXPECT_EQ(par_stats.shard_steals.size(),
            static_cast<std::size_t>(par_stats.threads_used));
  // Every drained block was retired and, after the run joined, reclaimed.
  EXPECT_EQ(par_stats.blocks_retired, par_stats.blocks_reclaimed);
  EXPECT_GT(par_stats.blocks_retired, 0u);

  obs::CounterRegistry registry;
  par_stats.export_counters(registry);
  EXPECT_EQ(registry.get("par_claims") + registry.get("par_steals"),
            static_cast<double>(tasks.size()));
  EXPECT_EQ(registry.get("par_threads_used"),
            static_cast<double>(par_stats.threads_used));
  EXPECT_EQ(registry.get("par_canonical"), 0.0);
}

TEST(ParRegression, ConcurrentFreeRunningCallersShareTheCrewSafely) {
  // Scheduler threads persist across calls and every call takes crew
  // threads of its own, so service workers may enter the free-running
  // engine at once. Two callers on different instances, many rounds each:
  // every schedule must stay valid, complete and within the proven ratio.
  const Platform platform(20, 4);
  const std::vector<std::vector<Task>> instances = {
      make_tasks(3000, 31, /*distinct=*/false),
      make_tasks(2000, 32, /*distinct=*/true)};
  constexpr int kRounds = 12;
  std::vector<std::vector<Schedule>> schedules(instances.size());
  const auto caller = [&](std::size_t k) {
    HeteroPrioOptions options;
    options.threads = 2;
    options.canonical = false;
    for (int r = 0; r < kRounds; ++r) {
      schedules[k].push_back(heteroprio(instances[k], platform, options));
    }
  };
  std::thread other(caller, 1);
  caller(0);
  other.join();

  for (std::size_t k = 0; k < instances.size(); ++k) {
    const double lb = opt_lower_bound(instances[k], platform);
    ASSERT_EQ(schedules[k].size(), static_cast<std::size_t>(kRounds));
    for (const Schedule& s : schedules[k]) {
      SCOPED_TRACE("instance " + std::to_string(k));
      const ScheduleCheck check = check_schedule(s, instances[k], platform);
      EXPECT_TRUE(check.ok) << check.message;
      EXPECT_TRUE(s.complete());
      const obs::BoundCheck bc =
          obs::check_makespan_bound(s.makespan(), lb, platform, {});
      EXPECT_FALSE(bc.violated)
          << "ratio " << bc.ratio << " > proven " << bc.bound;
    }
  }
}

TEST(ParRegression, FuzzCasesAgreeCanonicallyAndFreeRunSafely) {
  // A slice of the fuzz generator's own distribution (independent cases):
  // canonical identity and free-running safety on shapes the handwritten
  // grid above does not reach.
  fuzz::GenKnobs knobs;
  knobs.dag_fraction = 0.0;
  knobs.fault_fraction = 0.0;
  knobs.online_fraction = 0.0;
  knobs.max_tasks = 48;
  int checked = 0;
  for (std::uint64_t index = 0; index < 60; ++index) {
    const fuzz::FuzzCase c = fuzz::generate_case(20260808, index, knobs);
    if (c.graph.size() < 8) continue;
    const auto tasks = c.graph.tasks();
    const Schedule sequential = heteroprio(tasks, c.platform);
    HeteroPrioOptions options;
    options.threads = c.par_threads >= 2 ? c.par_threads : 3;
    options.canonical = true;
    SCOPED_TRACE(c.name);
    const Schedule canonical = heteroprio(tasks, c.platform, options);
    expect_identical(canonical, sequential);

    options.canonical = false;
    HeteroPrioStats stats;
    const Schedule free_run = par::heteroprio_par_run(tasks, c.platform,
                                                      options, &stats);
    const ScheduleCheck check = check_schedule(free_run, tasks, c.platform);
    EXPECT_TRUE(check.ok) << check.message;
    EXPECT_TRUE(free_run.complete());
    EXPECT_EQ(static_cast<std::size_t>(stats.spoliations),
              free_run.aborted().size());
    ++checked;
  }
  EXPECT_GE(checked, 20);
}

}  // namespace
}  // namespace hp
