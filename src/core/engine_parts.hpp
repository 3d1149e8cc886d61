#pragma once
// Internal building blocks shared by the batch HeteroPrio engine
// (core/heteroprio.cpp), the online rolling-horizon runtime
// (online/runtime.cpp) and the free-running parallel slices
// (par/heteroprio_par.cpp): the double-ended ready structure, the spoliation
// victim ordering with its incremental per-resource running sets, the
// SIMD finish-time scans that replace an event heap, and the
// strict-improvement test of Algorithm 1.
//
// This header is library-internal (not part of the public API in
// core/heteroprio.hpp). Both engines must pop tasks, scan victims and
// decide spoliation through the exact same code so that the online
// runtime's correctness anchor holds: all arrivals at t=0 with no faults
// is bitwise-identical to the batch engine.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "model/task.hpp"
#include "model/task_soa.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"

#if defined(__SSE2__) && !defined(HP_NO_SIMD)
#include <emmintrin.h>
#define HP_ENGINE_SSE2 1
#endif

namespace hp::detail {

/// Double-ended ready structure, a flat sorted vector in both modes. The
/// order: the GPU end (front) holds the task an idle GPU takes, the CPU end
/// (back) the task an idle CPU takes. Primary key: acceleration factor,
/// non-increasing. Tie-break (§2.2): for rho >= 1 the highest-priority task
/// comes first; for rho < 1 the highest-priority task comes last, i.e.
/// nearest the CPU end. Final tie: task id (determinism).
///
/// The order is materialized once per task as a packed integer pair
/// (TaskSoA::key0/key1): ascending (key0, key1, id) is exactly the queue
/// order, so the presort is a bucket/radix pass over integers and the
/// incremental inserts (DAG releases, crash re-enqueues, retries, online
/// arrivals) binary-search with branch-light integer compares. The packed
/// compare is proven equivalent to the double comparator in
/// model/task_soa.hpp, so the pop order (and therefore the schedule) is
/// bitwise identical. Inserting a set of tasks one by one in increasing id
/// order produces the same buffer as presorting that set — the property the
/// online runtime's t=0 arrival batch relies on.
class ReadyQueue {
 public:
  ReadyQueue(const soa::TaskSoA& soa, util::Arena& arena)
      : soa_(&soa), buf_(arena) {}

  /// Independent mode: make every task ready and presort once.
  void presort_all(std::size_t n, util::Arena& arena) {
    buf_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf_[i] = make_key(static_cast<TaskId>(i));
    }
    util::sort_key2_id(buf_.span(), arena);
    head_ = 0;
  }

  /// Incremental mode: a dependency release (or re-enqueue) made `id` ready.
  void insert(TaskId id) {
    const util::KeyId2 key = make_key(id);
    util::KeyId2* first = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
    util::KeyId2* at = std::lower_bound(first, buf_.end(), key, before);
    if (at == first && head_ > 0) {
      buf_[--head_] = key;  // reuse the space freed by GPU-end pops
    } else {
      buf_.insert(at, key);
    }
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == buf_.size(); }

  [[nodiscard]] std::size_t size() const noexcept {
    return buf_.size() - head_;
  }

  /// Most GPU-friendly ready task (an idle GPU takes this end).
  TaskId pop_gpu_end() { return static_cast<TaskId>(buf_[head_++].id); }

  /// Most CPU-friendly ready task (an idle CPU takes this end).
  TaskId pop_cpu_end() {
    const TaskId id = static_cast<TaskId>(buf_.back().id);
    buf_.pop_back();
    return id;
  }

 private:
  static bool before(const util::KeyId2& a, const util::KeyId2& b) noexcept {
    if (a.k0 != b.k0) return a.k0 < b.k0;
    if (a.k1 != b.k1) return a.k1 < b.k1;
    return a.id < b.id;
  }

  [[nodiscard]] util::KeyId2 make_key(TaskId id) const noexcept {
    const auto i = static_cast<std::size_t>(id);
    return util::KeyId2{soa_->key0[i], soa_->key1[i],
                        static_cast<std::uint32_t>(id)};
  }

  const soa::TaskSoA* soa_;
  util::ArenaVector<util::KeyId2> buf_;  ///< live range: [head_, size())
  std::size_t head_ = 0;
};

/// Cached spoliation-scan key of one running task. `finish` is the believed
/// completion time (start + *estimated* duration), computed once at start
/// instead of re-deriving Platform::time_on per comparison.
struct VictimKey {
  double finish = 0.0;
  double priority = 0.0;
  TaskId task = kInvalidTask;
  WorkerId worker = -1;
};

/// Scan order of Algorithm 1 / §6.2: decreasing believed completion time
/// with priority tie-break (independent), or decreasing priority with
/// completion-time tie-break (DAGs). Final tie: task id, so the order is
/// total and the incremental set reproduces the reference sort exactly.
struct VictimLess {
  bool priority_first = false;

  bool operator()(const VictimKey& a, const VictimKey& b) const noexcept {
    if (priority_first) {
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.finish != b.finish) return a.finish > b.finish;
    } else {
      if (a.finish != b.finish) return a.finish > b.finish;
      if (a.priority != b.priority) return a.priority > b.priority;
    }
    return a.task < b.task;
  }
};

/// The per-resource running set, ordered by VictimLess. A flat sorted vector
/// rather than a node-based set: the capacity is bounded by the worker count
/// of one resource, so a binary-search insert plus a short memmove is both
/// O(log W) in comparisons and allocation-free — the std::set node churn was
/// measurable at 2 ops per scheduled task.
class RunningSet {
 public:
  RunningSet(VictimLess less, std::size_t max_workers, util::Arena& arena)
      : less_(less), keys_(arena, max_workers) {}

  void insert(const VictimKey& key) {
    keys_.insert(std::lower_bound(keys_.begin(), keys_.end(), key, less_),
                 key);
  }

  void erase(const VictimKey& key) {
    VictimKey* it = std::lower_bound(keys_.begin(), keys_.end(), key, less_);
    assert(it != keys_.end() && it->worker == key.worker);
    keys_.erase(it);
  }

  [[nodiscard]] const VictimKey* begin() const noexcept {
    return keys_.begin();
  }
  [[nodiscard]] const VictimKey* end() const noexcept { return keys_.end(); }

 private:
  VictimLess less_;
  util::ArenaVector<VictimKey> keys_;
};

/// Earliest entry of `finish` (idle lanes hold +inf; `count` is padded to a
/// multiple of two with +inf). The scalar min loop is a serial minsd
/// dependency chain — at ~4 cycles per link it dominates the engine's inner
/// loop — so the SSE2 form runs two independent accumulator chains.
inline double min_finish_time(const double* finish,
                              std::size_t count) noexcept {
#ifdef HP_ENGINE_SSE2
  __m128d acc0 = _mm_loadu_pd(finish);
  __m128d acc1 = acc0;
  std::size_t w = 2;
  for (; w + 4 <= count; w += 4) {
    acc0 = _mm_min_pd(acc0, _mm_loadu_pd(finish + w));
    acc1 = _mm_min_pd(acc1, _mm_loadu_pd(finish + w + 2));
  }
  for (; w + 2 <= count; w += 2) {
    acc0 = _mm_min_pd(acc0, _mm_loadu_pd(finish + w));
  }
  acc0 = _mm_min_pd(acc0, acc1);
  acc0 = _mm_min_sd(acc0, _mm_unpackhi_pd(acc0, acc0));
  return _mm_cvtsd_f64(acc0);
#else
  double t = finish[0];
  for (std::size_t w = 1; w < count; ++w) t = std::min(t, finish[w]);
  return t;
#endif
}

/// Bitmask of lanes with finish[w] == t (the completion batch at instant t).
inline std::uint64_t equal_finish_mask(const double* finish,
                                       std::size_t count, double t) noexcept {
  std::uint64_t mask = 0;
#ifdef HP_ENGINE_SSE2
  const __m128d vt = _mm_set1_pd(t);
  for (std::size_t w = 0; w + 2 <= count; w += 2) {
    const int bits = _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(finish + w), vt));
    mask |= static_cast<std::uint64_t>(bits) << w;
  }
#else
  for (std::size_t w = 0; w < count; ++w) {
    if (finish[w] == t) mask |= std::uint64_t{1} << w;
  }
#endif
  return mask;
}

/// Strict-improvement test with a small relative margin, so that the exact
/// "equal completion time" cases of Theorems 8/11/14 (where spoliation must
/// NOT fire) are not flipped by floating-point noise.
inline bool strictly_better(double candidate_finish,
                            double current_finish) noexcept {
  const double margin = 1e-9 * std::max(1.0, std::abs(current_finish));
  return candidate_finish < current_finish - margin;
}

}  // namespace hp::detail
