#include "par/scheduler_crew.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hp::par {

namespace {

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// One call's fan-out: the body, the countdown of crew bodies still
/// running, and the first exception any of them threw.
struct Call {
  void (*fn)(void*, int) = nullptr;
  void* ctx = nullptr;
  std::atomic<int> pending{0};
  std::mutex error_mutex;
  std::exception_ptr error;

  void run(int index) noexcept {
    try {
      fn(ctx, index);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (error == nullptr) error = std::current_exception();
    }
  }
};

/// How long a crew thread polls for its next job before it parks on its
/// condition variable. Back-to-back parallel calls are the one traffic this
/// catches: in a timed loop (the perf baseline's best-of-K) the next call
/// posts a few microseconds after the last one returned, and a parked
/// thread's wake-up costs a good share of an n = 1e3 schedule. On a
/// 4-thread box, timed as `hp_sched perf --quick` times n = 1e3, W = 2 beat
/// W = 1 in 117-145 of 150 trials with no window (median 1.1x) and in
/// 147-150 with 20 µs (median 1.4-1.6x, as with 200 µs). Nothing in the
/// repo sends a service's requests to the parallel engine
/// (serve::Request::engine_threads defaults to 1), and a call that comes
/// after the window pays the wake-up whatever its length.
constexpr std::chrono::microseconds kSpinBeforePark{20};

class Crew;

/// Idle threads the crew keeps between calls: as many as the machine has
/// hardware threads (more can never all run at once), and at least 4 so a
/// W = 4 call reuses its threads on smaller machines too. Threads beyond
/// the limit serve the call that needed them and then exit.
std::size_t idle_limit() {
  static const std::size_t limit =
      std::max<std::size_t>(4, std::thread::hardware_concurrency());
  return limit;
}

/// One persistent crew thread with a single-job mailbox.
class CrewThread {
 public:
  explicit CrewThread(Crew& crew) : crew_(crew), thread_([this] { loop(); }) {}

  ~CrewThread() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  CrewThread(const CrewThread&) = delete;
  CrewThread& operator=(const CrewThread&) = delete;

  void post(Call* call, int index) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      call_ = call;
      index_ = index;
      ready_.store(true, std::memory_order_release);
    }
    cv_.notify_one();
  }

 private:
  void loop();

  Crew& crew_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> ready_{false};  ///< a job is posted
  bool stop_ = false;
  Call* call_ = nullptr;
  int index_ = 0;
  std::thread thread_;  // last: starts after every other member exists
};

class Crew {
 public:
  /// Take `count` crew threads for one call: idle ones first, new ones when
  /// none is idle. All or nothing: if a thread cannot be started, the ones
  /// already taken go back to the idle list and the error propagates, so no
  /// body of the call starts unless every body can.
  void acquire(int count, CrewThread** out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    reap_locked();
    int got = 0;
    try {
      for (; got < count; ++got) out[got] = take_locked();
    } catch (...) {
      idle_.insert(idle_.end(), out, out + got);
      throw;
    }
  }

  /// Hand a thread back after its body. Returns false when the idle list
  /// is already full: the thread then exits, and a later acquire() (or the
  /// process exit) joins it.
  bool release(CrewThread* thread) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (idle_.size() < idle_limit()) {
      idle_.push_back(thread);
      return true;
    }
    retired_.push_back(thread);
    return false;
  }

  std::size_t size() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return all_.size() - retired_.size();
  }

  void fail_next_start() {
    const std::lock_guard<std::mutex> lock(mutex_);
    fail_next_start_ = true;
  }

 private:
  CrewThread* take_locked() {
    if (!idle_.empty()) {
      CrewThread* thread = idle_.back();
      idle_.pop_back();
      return thread;
    }
    if (fail_next_start_) {
      fail_next_start_ = false;
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again),
          "crew thread start (injected failure)");
    }
    all_.push_back(std::make_unique<CrewThread>(*this));
    return all_.back().get();
  }

  /// Join and free the threads that exited on a full idle list.
  void reap_locked() {
    for (CrewThread* thread : retired_) {
      const auto it = std::find_if(
          all_.begin(), all_.end(),
          [thread](const std::unique_ptr<CrewThread>& p) {
            return p.get() == thread;
          });
      all_.erase(it);  // ~CrewThread joins
    }
    retired_.clear();
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<CrewThread>> all_;
  std::vector<CrewThread*> idle_;
  std::vector<CrewThread*> retired_;  ///< exited or exiting, not yet joined
  bool fail_next_start_ = false;
};

void CrewThread::loop() {
  for (;;) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
    for (unsigned spins = 0; !ready_.load(std::memory_order_acquire);
         ++spins) {
      cpu_relax();
      if ((spins & 63) == 63 && std::chrono::steady_clock::now() > deadline) {
        break;
      }
    }
    Call* call = nullptr;
    int index = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return stop_ || ready_.load(std::memory_order_relaxed);
      });
      if (!ready_.load(std::memory_order_relaxed)) return;  // stop_
      ready_.store(false, std::memory_order_relaxed);
      call = call_;
      index = index_;
    }
    call->run(index);
    // Back on the idle list before the countdown: a caller that sees its
    // call finish and starts the next one finds this thread reusable
    // instead of starting another. The mailbox was emptied above, so a post
    // that lands right after release() is picked up by the next iteration.
    const bool keep = crew_.release(this);
    call->pending.fetch_sub(1, std::memory_order_release);
    if (!keep) return;
  }
}

Crew& crew() {
  static Crew instance;
  return instance;
}

}  // namespace

void Backoff::pause() noexcept {
  if (spins_ < 256) {
    ++spins_;
    cpu_relax();
  } else {
    std::this_thread::yield();
  }
}

void run_on_crew(int count, void (*fn)(void*, int), void* ctx) {
  if (count <= 0) return;
  Call call;
  call.fn = fn;
  call.ctx = ctx;
  call.pending.store(count - 1, std::memory_order_relaxed);
  std::vector<CrewThread*> threads(static_cast<std::size_t>(count - 1));
  crew().acquire(count - 1, threads.data());
  for (int i = 1; i < count; ++i) {
    threads[static_cast<std::size_t>(i - 1)]->post(&call, i);
  }
  call.run(0);
  Backoff backoff;
  while (call.pending.load(std::memory_order_acquire) != 0) backoff.pause();
  if (call.error != nullptr) std::rethrow_exception(call.error);
}

std::size_t crew_size() { return crew().size(); }

std::size_t crew_idle_limit() { return idle_limit(); }

void fail_next_crew_thread_start() { crew().fail_next_start(); }

}  // namespace hp::par
