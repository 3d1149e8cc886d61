// Tests for par/scheduler_crew: the persistent scheduler threads behind the
// parallel HeteroPrio engine. The contracts: every body index runs exactly
// once with index 0 on the calling thread, the call returns only after all
// of them, exceptions reach the caller, concurrent callers never share crew
// threads, repeated calls reuse the crew instead of growing it, a wide call
// leaves no more than the idle limit behind, and a thread that cannot be
// started fails the call before any body runs.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "par/scheduler_crew.hpp"

namespace hp::par {
namespace {

TEST(SchedulerCrew, RunsEveryIndexOnceWithIndexZeroOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(5);
  std::thread::id index0_thread;
  auto body = [&](int i) {
    runs[static_cast<std::size_t>(i)].fetch_add(1);
    if (i == 0) index0_thread = std::this_thread::get_id();
  };
  run_on_crew(5, body);
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(index0_thread, caller);
}

TEST(SchedulerCrew, BodiesRunConcurrently) {
  // Every body waits for all the others: this only returns if the crew
  // runs them at the same time rather than queueing any of them.
  constexpr int kBodies = 3;
  std::atomic<int> arrived{0};
  auto body = [&](int) {
    arrived.fetch_add(1);
    while (arrived.load() < kBodies) std::this_thread::yield();
  };
  run_on_crew(kBodies, body);
  EXPECT_EQ(arrived.load(), kBodies);
}

TEST(SchedulerCrew, RepeatedCallsReuseTheCrew) {
  auto body = [](int) {};
  run_on_crew(3, body);
  const std::size_t size = crew_size();
  EXPECT_GE(size, 2u);
  for (int r = 0; r < 50; ++r) run_on_crew(3, body);
  EXPECT_EQ(crew_size(), size);
}

TEST(SchedulerCrew, ConcurrentCallersEachGetTheirOwnThreads) {
  // Two callers whose bodies only finish once both calls are fully under
  // way: a crew that queued one call's bodies behind the other's would
  // deadlock here.
  std::atomic<int> arrived{0};
  auto body = [&](int) {
    arrived.fetch_add(1);
    while (arrived.load() < 4) std::this_thread::yield();
  };
  std::thread other([&] { run_on_crew(2, body); });
  run_on_crew(2, body);
  other.join();
  EXPECT_EQ(arrived.load(), 4);
}

TEST(SchedulerCrew, ExceptionsReachTheCallerAfterEveryBodyFinished) {
  std::atomic<int> finished{0};
  auto body = [&](int i) {
    finished.fetch_add(1);
    if (i == 1) throw std::runtime_error("body 1 failed");
  };
  EXPECT_THROW(run_on_crew(3, body), std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
  // The crew survives a throwing body.
  std::atomic<int> again{0};
  auto count = [&](int) { again.fetch_add(1); };
  run_on_crew(3, count);
  EXPECT_EQ(again.load(), 3);
}

TEST(SchedulerCrew, AWideCallLeavesAtMostTheIdleLimitBehind) {
  const int wide = static_cast<int>(crew_idle_limit()) + 8;
  std::atomic<int> ran{0};
  auto body = [&](int) { ran.fetch_add(1); };
  run_on_crew(wide, body);
  EXPECT_EQ(ran.load(), wide);
  EXPECT_LE(crew_size(), crew_idle_limit());
  // The threads that exited are joined, and the crew still works.
  run_on_crew(wide, body);
  EXPECT_EQ(ran.load(), 2 * wide);
  EXPECT_LE(crew_size(), crew_idle_limit());
}

TEST(SchedulerCrew, AFailedThreadStartRunsNoBodyAndKeepsTheCrew) {
  auto noop = [](int) {};
  run_on_crew(3, noop);  // at least two idle threads
  const auto idle = static_cast<int>(crew_size());
  ASSERT_GE(idle, 2);

  // One body more than the idle threads can take: the call must start a
  // thread, and that start fails after the idle ones were already taken.
  std::atomic<int> ran{0};
  auto body = [&](int) { ran.fetch_add(1); };
  fail_next_crew_thread_start();
  EXPECT_THROW(run_on_crew(idle + 2, body), std::system_error);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(crew_size(), static_cast<std::size_t>(idle));

  // The threads taken before the failure went back to the idle list.
  run_on_crew(idle + 1, body);
  EXPECT_EQ(ran.load(), idle + 1);
  EXPECT_EQ(crew_size(), static_cast<std::size_t>(idle));
}

}  // namespace
}  // namespace hp::par
