#pragma once
// Persistent scheduler threads for the parallel HeteroPrio engine.
//
// A parallel run fans W bodies out (the sharded sort, the free-running
// slices) and joins them again, often on instances that take the
// sequential engine well under 100 µs. Spawning a pool per call costs
// ~12 µs, and fresh threads start with cold thread-local scratch arenas,
// so the crew keeps its threads alive between calls: body 0 runs on the
// calling thread, bodies 1..W-1 on crew threads that poll for their next
// job for 20 µs (long enough to catch the next call of a back-to-back
// loop) and then park on a condition variable.
//
// Every call gets crew threads of its own: an idle thread is taken when
// one exists, a new one is started otherwise, and it returns to the idle
// list when its body ends. A call therefore never queues one of its bodies
// behind another call's — which matters because the free-running slices of
// one call wait on each other's simulated clocks, and a queued slice would
// stall its running peers. Completion is a per-call countdown, not a
// crew-wide wait, for the same reason. A call takes all its threads before
// it posts any body, so a thread that cannot be started fails the whole
// call before any work is handed out. Between calls the crew keeps at most
// crew_idle_limit() idle threads; the rest exit once their body is done.

#include <cstddef>

namespace hp::par {

/// Backoff for the engine's short waits (start barrier, pacing, join):
/// a few hundred CPU pause hints, then yields so an oversubscribed machine
/// can run the thread being waited for.
class Backoff {
 public:
  void pause() noexcept;

 private:
  unsigned spins_ = 0;
};

/// Run fn(ctx, i) for every i in [0, count) concurrently and return once all
/// have finished: i = 0 on the calling thread, the rest on crew threads.
/// Rethrows the first exception a body threw, after every body finished.
/// If a crew thread cannot be started (std::system_error), no body runs and
/// the error reaches the caller.
void run_on_crew(int count, void (*fn)(void*, int), void* ctx);

/// Callable form: body(i) for i in [0, count).
template <typename Body>
void run_on_crew(int count, Body& body) {
  run_on_crew(
      count, [](void* ctx, int i) { (*static_cast<Body*>(ctx))(i); },
      static_cast<void*>(&body));
}

/// Crew threads alive for later calls (idle or busy): stays flat across
/// repeated calls once the crew covers the peak concurrency, and never
/// exceeds crew_idle_limit() while no call is running.
[[nodiscard]] std::size_t crew_size();

/// Idle threads the crew keeps between calls: max(4, hardware threads).
[[nodiscard]] std::size_t crew_idle_limit();

/// Fault injection for tests: the next crew thread start fails with
/// std::system_error, as when the system refuses to create a thread.
void fail_next_crew_thread_start();

}  // namespace hp::par
