#include "par/heteroprio_par.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/engine_parts.hpp"
#include "core/hp_engine.hpp"
#include "model/task_soa.hpp"
#include "obs/counters.hpp"
#include "obs/profile.hpp"
#include "par/ready_shards.hpp"
#include "par/scheduler_crew.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"

namespace hp::par {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[nodiscard]] bool key_less(const util::KeyId& a, const util::KeyId& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.id < b.id;
}

[[nodiscard]] bool key2_less(const util::KeyId2& a, const util::KeyId2& b) {
  if (a.k0 != b.k0) return a.k0 < b.k0;
  if (a.k1 != b.k1) return a.k1 < b.k1;
  return a.id < b.id;
}

/// Shard boundaries: W contiguous task-id ranges covering [0, n).
[[nodiscard]] std::size_t shard_lo(std::size_t n, int shards, int s) {
  return n * static_cast<std::size_t>(s) / static_cast<std::size_t>(shards);
}

/// Sharded sort: per-shard key build (forced to the global element shape)
/// and stable counting sort, fanned over the scheduler crew; sorted runs
/// are copied into caller-owned contiguous buffers (crew threads own their
/// arenas). Returns the per-shard runs through `key_runs`/`key2_runs` laid
/// out at the shard offsets inside one n-element buffer.
struct ShardedRuns {
  util::KeyId* key_runs = nullptr;
  util::KeyId2* key2_runs = nullptr;
  bool uniform = true;
};

ShardedRuns sharded_sort(std::span<const Task> tasks, int shards,
                         util::Arena& arena) {
  const std::size_t n = tasks.size();
  ShardedRuns runs;
  runs.uniform = soa::uniform_priority_bits(tasks);
  if (runs.uniform) {
    runs.key_runs = arena.alloc<util::KeyId>(n);
  } else {
    runs.key2_runs = arena.alloc<util::KeyId2>(n);
  }
  auto sort_shard = [&runs, tasks, n, shards](int s) {
    const std::size_t lo = shard_lo(n, shards, s);
    const std::size_t hi = shard_lo(n, shards, s + 1);
    if (lo == hi) return;
    util::Arena& ta = util::scratch_arena();
    const util::ArenaScope scope(ta);
    const soa::SortKeys keys = soa::build_sort_keys_shard(
        tasks.subspan(lo, hi - lo), runs.uniform,
        static_cast<std::uint32_t>(lo), ta);
    if (runs.uniform) {
      util::sort_key_id({keys.key_id, keys.size}, ta);
      std::memcpy(runs.key_runs + lo, keys.key_id,
                  keys.size * sizeof(util::KeyId));
    } else {
      util::sort_key2_id({keys.key2_id, keys.size}, ta);
      std::memcpy(runs.key2_runs + lo, keys.key2_id,
                  keys.size * sizeof(util::KeyId2));
    }
  };
  run_on_crew(shards, sort_shard);
  return runs;
}

/// Deterministic cross-shard merge: repeatedly take the run head with the
/// minimum (key0[, key1], id). Every run is ascending in that total order,
/// so the output equals the sequential engine's sorted order exactly — the
/// canonical tie-break contract (min task id on full key ties).
void merge_runs(const ShardedRuns& runs, std::size_t n, int shards,
                std::uint32_t* order) {
  std::vector<std::size_t> pos(static_cast<std::size_t>(shards));
  std::vector<std::size_t> end(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    pos[static_cast<std::size_t>(s)] = shard_lo(n, shards, s);
    end[static_cast<std::size_t>(s)] = shard_lo(n, shards, s + 1);
  }
  for (std::size_t k = 0; k < n; ++k) {
    int best = -1;
    for (int s = 0; s < shards; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (pos[si] == end[si]) continue;
      if (best < 0) {
        best = s;
        continue;
      }
      const auto bi = static_cast<std::size_t>(best);
      if (runs.uniform ? key_less(runs.key_runs[pos[si]],
                                  runs.key_runs[pos[bi]])
                       : key2_less(runs.key2_runs[pos[si]],
                                   runs.key2_runs[pos[bi]])) {
        best = s;
      }
    }
    const auto bi = static_cast<std::size_t>(best);
    order[k] = runs.uniform ? runs.key_runs[pos[bi]].id
                            : runs.key2_runs[pos[bi]].id;
    ++pos[bi];
  }
}

/// Published simulated clock of one free-running slice (cacheline-strided
/// so pacing reads do not false-share). kInf marks a finished slice.
struct alignas(64) SliceClock {
  std::atomic<double> now{0.0};
};

/// End of a per-worker placement chain.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Most ready positions one batched claim takes. A claim costs an epoch
/// guard, a CAS and a pacing check; 16 positions spread that over enough
/// tasks to fall well below the sequential engine's per-task cost, while
/// the runs a slice holds back from its peers (one per end) stay small,
/// and shrink further in each shard's last block (ReadyShards::claim_batch).
constexpr std::uint32_t kClaimBatch = 16;

/// How far ahead the gather and scatter loops prefetch (as in the
/// sequential engine).
constexpr std::size_t kPrefetchAhead = 16;

/// A task's scalars at its position in the ready order: gathered once,
/// sequentially, when its shard is sorted, so the event loop never goes
/// back to the randomly ordered task array.
struct ReadyEntry {
  std::uint32_t id;
  double cpu;
  double gpu;
  double priority;
};

/// Final placement of the task at a ready position, plus the position
/// placed before it on the same worker (kNone for the first): every
/// worker's placements form a chain the end-game pass walks back from.
struct PlacedEntry {
  double start;
  double end;
  WorkerId worker;
  std::uint32_t prev;
};

/// Output of one free-running slice, merged by the caller after the join.
struct alignas(64) FreeThreadResult {
  HeteroPrioStats stats;
  std::vector<AbortedSegment> aborted;
  ClaimCounters counters;
};

/// State the W_eff slices of one free-running call share. Shard t owns the
/// ready positions [shard_lo(t), shard_lo(t + 1)); the ready shards publish
/// *positions* into `ready`, not task ids, so a batched claim is a
/// contiguous position range. Writes never collide: each position is
/// gathered by its shard's slice and placed by the one slice that claimed
/// it, and each worker belongs to exactly one slice.
struct FreeRun {
  std::span<const Task> tasks;
  const Platform* platform = nullptr;
  bool spoliation = true;
  VictimOrder victim_order = VictimOrder::kCompletionTime;
  int w_eff = 0;
  ReadyShards* rs = nullptr;
  Schedule* schedule = nullptr;
  ReadyEntry* ready = nullptr;    ///< n, shard-sorted ready order
  PlacedEntry* placed = nullptr;  ///< n, by ready position
  std::uint32_t* last_on_worker = nullptr;  ///< per worker: last position
  double* avail = nullptr;  ///< per worker: time of its last event
  SliceClock* clocks = nullptr;
  double* shard_horizon = nullptr;  ///< per shard: pacing-window term
  std::atomic<int> published{0};    ///< start barrier: shards published
  std::atomic<int> simulated{0};    ///< scatter barrier: slices finished
  FreeThreadResult* results = nullptr;
};

/// Sort shard `t` on its slice's thread, gather its tasks into ready order
/// and publish the positions. Each shard picks its own key shape:
/// free-running never merges runs, so shards need not agree. Also records
/// the shard's term of the pacing window: the longest duration of one of
/// its tasks on the task's favored available resource.
void publish_shard(FreeRun& run, int t, util::Arena& arena) {
  const std::size_t n = run.tasks.size();
  const std::size_t lo = shard_lo(n, run.w_eff, t);
  const std::size_t hi = shard_lo(n, run.w_eff, t + 1);
  const std::size_t m = hi - lo;
  const std::span<const Task> shard = run.tasks.subspan(lo, m);
  // A missing resource type never runs anything: raising its duration to
  // +inf drops it from the favored minimum.
  const double cpu_floor = run.platform->cpus() > 0 ? -kInf : kInf;
  const double gpu_floor = run.platform->gpus() > 0 ? -kInf : kInf;

  std::uint32_t* ids = arena.alloc<std::uint32_t>(m);
  if (m != 0) {
    const bool uniform = soa::uniform_priority_bits(shard);
    const soa::SortKeys keys = soa::build_sort_keys_shard(
        shard, uniform, static_cast<std::uint32_t>(lo), arena);
    if (uniform) {
      util::sort_key_id({keys.key_id, m}, arena);
      for (std::size_t i = 0; i < m; ++i) ids[i] = keys.key_id[i].id;
    } else {
      util::sort_key2_id({keys.key2_id, m}, arena);
      for (std::size_t i = 0; i < m; ++i) ids[i] = keys.key2_id[i].id;
    }
  }
  ReadyEntry* ready = run.ready + lo;
  double horizon = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (i + kPrefetchAhead < m) {
      __builtin_prefetch(&run.tasks[ids[i + kPrefetchAhead]]);
    }
    const Task& tk = run.tasks[ids[i]];
    ready[i] = ReadyEntry{ids[i], tk.cpu_time, tk.gpu_time, tk.priority};
    ids[i] = static_cast<std::uint32_t>(lo + i);  // publish the position
    horizon = std::max(horizon, std::min(std::max(tk.cpu_time, cpu_floor),
                                         std::max(tk.gpu_time, gpu_floor)));
  }
  run.shard_horizon[t] = horizon;
  run.rs->publish(static_cast<std::size_t>(t), {ids, m});
}

/// One end of a slice's two-ended local buffer: the last run of ready
/// positions claimed from that end of the shards, live range [lo, hi).
struct LocalRun {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  [[nodiscard]] bool empty() const noexcept { return lo == hi; }
  std::uint32_t pop(bool front) noexcept { return front ? lo++ : --hi; }
};

/// One free-running scheduler thread: simulates the platform slice it owns
/// — every w_eff-th CPU and every w_eff-th GPU, so with both resources
/// present each slice holds at least one of each (w_eff is clamped by
/// min(cpus, gpus)) and intra-slice spoliation is live.
///
/// The event loop is the sequential engine's (simulate_independent): a
/// padded finish array scanned with SIMD min/equal passes instead of an
/// event heap, idle bitmasks with per-pass snapshots, the one-idle fast
/// path, spoliation victims gathered and sorted on demand, and placements
/// written by ready position (near-sequential) instead of by task id.
/// Ready tasks come from a two-ended local buffer: an idle GPU takes the
/// front run, an idle CPU the back run; an empty run is refilled by one
/// batched claim from the same end of the shards; once every shard is
/// empty the other run serves both resource types from its matching end.
///
/// Conservative pacing: a slice may only claim new work while its simulated
/// clock is within `horizon` of the slowest live slice. Without it, a slice
/// that runs ahead in *wall-clock* time (a loaded machine, or fewer cores
/// than threads) would steal the entire instance into its own timeline and
/// produce a schedule as bad as one slice running everything — pacing keeps
/// the slice clocks in a bounded window, so claims interleave in simulated
/// time the way they would on truly concurrent slices. The check runs once
/// per batched claim against a cached minimum of the peer clocks; clocks
/// only grow, so a stale minimum is conservative and the peers are re-read
/// only when it fails. Completion never waits: only claims gate, and a
/// slice publishes its clock before it checks, so the slice holding the
/// minimum clock always advances and the window cannot deadlock.
void simulate_slice(FreeRun& run, int t, double horizon, util::Arena& arena) {
  const Platform& platform = *run.platform;
  const int w_eff = run.w_eff;
  const ReadyEntry* ready = run.ready;
  PlacedEntry* placed = run.placed;
  FreeThreadResult& out = run.results[t];
  SliceClock& my_clock = run.clocks[t];
  out.stats.first_idle_time = kInf;

  // Lanes: the slice's CPUs, then its GPUs, each mapped to its global id.
  WorkerId gid[64];
  int nw = 0;
  for (int c = t; c < platform.cpus(); c += w_eff) gid[nw++] = c;
  const int ncpu = nw;
  for (int g = t; g < platform.gpus(); g += w_eff) {
    gid[nw++] = platform.cpus() + g;
  }
  assert(nw > 0 && "w_eff is clamped so that every slice owns a worker");

  const auto wcount = static_cast<std::size_t>(nw);
  const std::size_t wpad = (wcount + 1) & ~std::size_t{1};
  double* wfinish = arena.alloc<double>(wpad);  ///< +inf = idle
  double* wstart = arena.alloc<double>(wcount);
  double* wlast = arena.alloc<double>(wcount);  ///< time of the last event
  std::uint32_t* wpos = arena.alloc<std::uint32_t>(wcount);  ///< running
  std::uint32_t* wchain = arena.alloc<std::uint32_t>(wcount);  ///< last done
  for (std::size_t w = 0; w < wpad; ++w) wfinish[w] = kInf;
  for (std::size_t w = 0; w < wcount; ++w) {
    wlast[w] = 0.0;
    wchain[w] = kNone;
  }
  const std::uint64_t all_mask = (std::uint64_t{1} << nw) - 1;
  const std::uint64_t cpu_mask = (std::uint64_t{1} << ncpu) - 1;
  const std::uint64_t gpu_mask = all_mask & ~cpu_mask;
  std::uint64_t idle_mask = all_mask;
  int busy_by_type[2] = {0, 0};
  // scan_fails[type]: the last spoliation scan for an idle lane of `type`
  // found no victim, and no lane of the other type has started a task
  // since. Later scans would fail too — victims only leave the set, and a
  // later clock only makes the strict improvement harder — so they are
  // counted but not repeated.
  bool scan_fails[2] = {false, false};

  LocalRun front;
  LocalRun back;
  std::uint32_t claimed[kClaimBatch];
  bool drained = false;  ///< a claim found every shard empty: for good
  double now = 0.0;
  double peer_min = 0.0;  ///< cached lower bound of the live slice clocks

  const detail::VictimLess victim_less{run.victim_order ==
                                       VictimOrder::kPriority};
  detail::VictimKey* victims = arena.alloc<detail::VictimKey>(wcount);

  const auto pace = [&] {
    my_clock.now.store(now, std::memory_order_relaxed);
    if (now <= peer_min + horizon) return;
    Backoff backoff;
    for (;;) {
      double lag = now;
      for (int u = 0; u < w_eff; ++u) {
        if (u == t) continue;
        lag = std::min(lag, run.clocks[u].now.load(std::memory_order_relaxed));
      }
      peer_min = lag;
      if (now <= peer_min + horizon) return;
      backoff.pause();
    }
  };

  const auto take = [&](bool gpu, std::uint32_t& pos) -> bool {
    LocalRun& own = gpu ? front : back;
    if (own.empty() && !drained) {
      pace();
      const std::size_t got =
          run.rs->claim_batch(static_cast<std::size_t>(t),
                              static_cast<std::size_t>(t), gpu, kClaimBatch,
                              claimed, out.counters);
      if (got == 0) {
        drained = true;
      } else {
        // Blocks hold consecutive positions and a claim takes a contiguous
        // slice of one block, so the run is a position range.
        assert(claimed[got - 1] == claimed[0] + got - 1);
        own = LocalRun{claimed[0],
                       claimed[0] + static_cast<std::uint32_t>(got)};
      }
    }
    if (!own.empty()) {
      pos = own.pop(gpu);
      return true;
    }
    LocalRun& other = gpu ? back : front;
    if (other.empty()) return false;
    pos = other.pop(gpu);
    return true;
  };

  const auto start_task = [&](int lane, std::uint32_t pos) {
    const bool is_gpu = lane >= ncpu;
    const auto li = static_cast<std::size_t>(lane);
    wfinish[li] = now + (is_gpu ? ready[pos].gpu : ready[pos].cpu);
    wstart[li] = now;
    wpos[li] = pos;
    idle_mask &= ~(std::uint64_t{1} << lane);
    ++busy_by_type[is_gpu ? 1 : 0];
    scan_fails[is_gpu ? 0 : 1] = false;  // a new victim for the other type
  };

  const auto try_spoliate = [&](int lane) -> bool {
    ++out.stats.spoliation_attempts;
    const bool is_gpu = lane >= ncpu;
    // Victim keys carry the *lane* as their worker: VictimLess never looks
    // at it (task ids make the order total).
    std::uint64_t busy_other = ~idle_mask & (is_gpu ? cpu_mask : gpu_mask);
    std::size_t count = 0;
    while (busy_other != 0) {
      const int v = std::countr_zero(busy_other);
      busy_other &= busy_other - 1;
      const ReadyEntry& e = ready[wpos[static_cast<std::size_t>(v)]];
      victims[count++] = detail::VictimKey{
          wfinish[static_cast<std::size_t>(v)], e.priority,
          static_cast<TaskId>(e.id), v};
    }
    std::sort(victims, victims + count, victim_less);
    for (std::size_t c = 0; c < count; ++c) {
      const detail::VictimKey& key = victims[c];
      const auto vi = static_cast<std::size_t>(key.worker);
      const std::uint32_t pos = wpos[vi];
      const double dt = is_gpu ? ready[pos].gpu : ready[pos].cpu;
      if (!detail::strictly_better(now + dt, key.finish)) continue;
      out.aborted.push_back(
          AbortedSegment{key.task, gid[vi], wstart[vi], now});
      wlast[vi] = now;
      wfinish[vi] = kInf;
      idle_mask |= std::uint64_t{1} << key.worker;
      --busy_by_type[key.worker >= ncpu ? 1 : 0];
      ++out.stats.spoliations;
      start_task(lane, pos);
      return true;
    }
    return false;
  };

  const auto dispatch = [&] {
    bool acted = true;
    while (acted) {
      acted = false;
      const std::uint64_t snap_gpu = idle_mask & gpu_mask;
      const std::uint64_t snap_cpu = idle_mask & cpu_mask;
      for (int half = 0; half < 2; ++half) {
        const bool is_gpu = half == 0;
        std::uint64_t snap = is_gpu ? snap_gpu : snap_cpu;
        while (snap != 0) {
          const int lane = std::countr_zero(snap);
          snap &= snap - 1;
          if ((idle_mask >> lane & 1) == 0) continue;  // filled this pass
          std::uint32_t pos;
          if (take(is_gpu, pos)) {
            start_task(lane, pos);
            acted = true;
            continue;
          }
          out.stats.first_idle_time = std::min(out.stats.first_idle_time, now);
          if (!run.spoliation) continue;
          if (busy_by_type[is_gpu ? 0 : 1] == 0) {
            ++out.stats.spoliation_skips;
          } else if (scan_fails[is_gpu ? 1 : 0]) {
            ++out.stats.spoliation_attempts;
          } else if (try_spoliate(lane)) {
            acted = true;
          } else {
            scan_fails[is_gpu ? 1 : 0] = true;
          }
        }
      }
    }
  };

  dispatch();
  while (idle_mask != all_mask) {
    now = detail::min_finish_time(wfinish, wpad);
    my_clock.now.store(now, std::memory_order_relaxed);
    std::uint64_t done =
        detail::equal_finish_mask(wfinish, wpad, now) & all_mask;
    while (done != 0) {
      const int lane = std::countr_zero(done);
      done &= done - 1;
      const auto li = static_cast<std::size_t>(lane);
      placed[wpos[li]] = PlacedEntry{wstart[li], now, gid[li], wchain[li]};
      wchain[li] = wpos[li];
      wlast[li] = now;
      wfinish[li] = kInf;
      idle_mask |= std::uint64_t{1} << lane;
      --busy_by_type[lane >= ncpu ? 1 : 0];
    }
    // One-idle fast path, as in the sequential engine: a single freed lane
    // whose own run is non-empty needs no snapshot passes. (The single-bit
    // test avoids std::popcount, a libgcc call without -mpopcnt; the batch
    // above freed at least one lane, so the mask is not zero.)
    assert(idle_mask != 0);
    if ((idle_mask & (idle_mask - 1)) == 0) {
      const int lane = std::countr_zero(idle_mask);
      if (lane >= ncpu ? !front.empty() : !back.empty()) {
        start_task(lane, lane >= ncpu ? front.lo++ : --back.hi);
        continue;
      }
    }
    dispatch();
  }

  for (std::size_t li = 0; li < wcount; ++li) {
    const auto w = static_cast<std::size_t>(gid[li]);
    run.avail[w] = wlast[li];
    run.last_on_worker[w] = wchain[li];
  }
  my_clock.now.store(kInf, std::memory_order_relaxed);
}

/// Copy shard `t`'s placements from ready-position order into the by-task
/// Schedule. Runs once every slice has finished simulating (stolen
/// positions are placed by other slices); the writes land at random task
/// ids, so the target lines are prefetched ahead as in the sequential
/// engine's final scatter.
void scatter_shard(FreeRun& run, int t) {
  const std::size_t n = run.tasks.size();
  const std::size_t lo = shard_lo(n, run.w_eff, t);
  const std::size_t hi = shard_lo(n, run.w_eff, t + 1);
  Schedule& schedule = *run.schedule;
  for (std::size_t pos = lo; pos < hi; ++pos) {
    if (pos + kPrefetchAhead < hi) {
      __builtin_prefetch(&schedule.placement(static_cast<TaskId>(
                             run.ready[pos + kPrefetchAhead].id)),
                         1);
    }
    const PlacedEntry& p = run.placed[pos];
    schedule.place(static_cast<TaskId>(run.ready[pos].id), p.worker, p.start,
                   p.end);
  }
}

/// End-game spoliation fix-up: while the makespan-defining task would
/// finish strictly earlier started on some other worker at that worker's
/// availability point, move it there (recording the lost progress as an
/// aborted segment when any was made). At the fixpoint every worker b
/// satisfies avail[b] + time(tau, b) >= makespan — the last-task
/// spoliation inequality the proven ratio bounds build on (and, on
/// homogeneous platforms, exactly the ingredient of Graham's 2 - 1/w
/// argument). Shard racing can violate it transiently; this pass restores
/// it deterministically after the threads join, walking each worker's
/// placement chain back from `last_on_worker`.
std::uint64_t endgame_fixup(const FreeRun& run, double* abort_high,
                            HeteroPrioStats& stats) {
  const std::size_t n = run.tasks.size();
  const Platform& platform = *run.platform;
  const int workers = platform.workers();
  Schedule& schedule = *run.schedule;
  PlacedEntry* placed = run.placed;
  std::uint32_t* last = run.last_on_worker;
  double* avail = run.avail;
  // Small instances (the fuzz/ratio-checked domain) run to the fixpoint;
  // huge ones keep a bounded best-effort pass — quality there is measured
  // by throughput, not ratio checks.
  const std::uint64_t cap =
      n <= 4096 ? 4 * static_cast<std::uint64_t>(n) + 64 : 256;
  std::uint64_t moves = 0;
  while (moves < cap) {
    int a = -1;
    double makespan = -1.0;
    for (int w = 0; w < workers; ++w) {
      const std::uint32_t pos = last[static_cast<std::size_t>(w)];
      if (pos != kNone && placed[pos].end > makespan) {
        makespan = placed[pos].end;
        a = w;
      }
    }
    if (a < 0) break;
    const auto ai = static_cast<std::size_t>(a);
    const std::uint32_t pos = last[ai];
    const PlacedEntry rec = placed[pos];
    const std::uint32_t task = run.ready[pos].id;
    int best_b = -1;
    double best_end = kInf;
    for (int b = 0; b < workers; ++b) {
      if (b == a) continue;
      const double cand =
          avail[static_cast<std::size_t>(b)] +
          Platform::time_on(run.tasks[task], platform.type_of(b));
      if (cand < best_end) {
        best_end = cand;
        best_b = b;
      }
    }
    if (best_b < 0 || !detail::strictly_better(best_end, rec.end)) break;
    const auto bi = static_cast<std::size_t>(best_b);
    const double t0 = avail[bi];
    last[ai] = rec.prev;
    avail[ai] = std::max(rec.prev == kNone ? 0.0 : placed[rec.prev].end,
                         abort_high[ai]);
    if (t0 > rec.start) {
      // The move is a spoliation: progress [start, t0) on `a` is lost.
      schedule.add_aborted(static_cast<TaskId>(task), a, rec.start, t0);
      abort_high[ai] = std::max(abort_high[ai], t0);
      avail[ai] = std::max(avail[ai], t0);
      ++stats.spoliations;
    }
    schedule.place(static_cast<TaskId>(task), best_b, t0, best_end);
    placed[pos] = PlacedEntry{t0, best_end, best_b, last[bi]};
    last[bi] = pos;
    avail[bi] = best_end;
    ++moves;
  }
  return moves;
}

}  // namespace

void HeteroPrioParStats::export_counters(obs::CounterRegistry& registry) const {
  registry.set("par_threads_requested", threads_requested);
  registry.set("par_threads_used", threads_used);
  registry.set("par_canonical", canonical ? 1.0 : 0.0);
  registry.set("par_delegated", delegated ? 1.0 : 0.0);
  registry.set("par_claims", static_cast<double>(claims));
  registry.set("par_steals", static_cast<double>(steals));
  registry.set("par_steal_failures", static_cast<double>(steal_failures));
  registry.set("par_blocks_retired", static_cast<double>(blocks_retired));
  registry.set("par_blocks_reclaimed", static_cast<double>(blocks_reclaimed));
  registry.set("par_endgame_moves", static_cast<double>(endgame_moves));
  for (std::size_t s = 0; s < shard_published.size(); ++s) {
    registry.set("par_shard" + std::to_string(s) + "_published",
                 static_cast<double>(shard_published[s]));
  }
  for (std::size_t s = 0; s < shard_steals.size(); ++s) {
    registry.set("par_shard" + std::to_string(s) + "_steals",
                 static_cast<double>(shard_steals[s]));
  }
}

Schedule heteroprio_par_run(std::span<const Task> tasks,
                            const Platform& platform,
                            const HeteroPrioOptions& options,
                            HeteroPrioStats* stats,
                            HeteroPrioParStats* par_stats) {
  const std::size_t n = tasks.size();
  const int threads = std::max(1, options.threads);
  HeteroPrioParStats local_par;
  local_par.threads_requested = options.threads;
  local_par.canonical = options.canonical;

  const bool sink_live =
      options.sink != nullptr ||
      (options.log != nullptr && options.log->enabled());
  const bool faulty = options.faults != nullptr && !options.faults->empty();
  const bool coverable = !sink_live && !faulty && platform.workers() > 0 &&
                         platform.workers() <= 63;

  // Outside the fast-path preconditions — or with too little work to be
  // worth sharding — the sequential engine is the answer (bitwise the same
  // result by definition of canonical mode).
  if (!coverable || threads <= 1 ||
      n < 2 * static_cast<std::size_t>(threads)) {
    local_par.threads_used = 1;
    local_par.delegated = !coverable;
    if (par_stats != nullptr) *par_stats = local_par;
    return detail::run_heteroprio(tasks, nullptr, platform, options, stats);
  }

  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope arena_scope(arena);

  // Free-running engages only when it can beat the canonical contract:
  // noise-free (beliefs == actuals inside the slices), no collector (the
  // profile scopes are single-threaded), and a platform it can slice.
  const int w_eff_raw =
      platform.cpus() > 0 && platform.gpus() > 0
          ? std::min({threads, platform.cpus(), platform.gpus()})
          : std::min(threads, platform.workers());
  const bool free_running = !options.canonical && w_eff_raw > 1 &&
                            options.actual_times.empty() &&
                            options.metrics == nullptr;

  if (!free_running) {
    // Canonical: sharded sort -> deterministic merge -> the sequential
    // simulation over the merged order. Bitwise-identical by construction.
    local_par.threads_used = threads;
    std::uint32_t* order = arena.alloc<std::uint32_t>(n);
    {
      const obs::PhaseScope sort_scope(options.metrics, obs::Phase::kSort);
      const ShardedRuns runs = sharded_sort(tasks, threads, arena);
      merge_runs(runs, n, threads, order);
    }
    local_par.shard_published.resize(static_cast<std::size_t>(threads));
    for (int s = 0; s < threads; ++s) {
      local_par.shard_published[static_cast<std::size_t>(s)] =
          shard_lo(n, threads, s + 1) - shard_lo(n, threads, s);
    }
    if (par_stats != nullptr) *par_stats = local_par;
    return detail::run_independent_presorted({order, n}, tasks, platform,
                                             options, stats);
  }

  // Free-running: each slice sorts and publishes its own shard as
  // two-ended ready blocks, waits at the start barrier for the others, then
  // claims and steals concurrently. Slice 0 runs on the calling thread.
  const int w_eff = w_eff_raw;
  const auto shards = static_cast<std::size_t>(w_eff);
  const auto workers = static_cast<std::size_t>(platform.workers());
  local_par.threads_used = w_eff;

  const auto block_capacity = static_cast<std::uint32_t>(
      std::clamp<std::size_t>(n / (shards * 4) + 1, 16, 4096));
  ReadyShards rs(shards, block_capacity);
  rs.begin_publish(shards);
  // Every shard's blocks: the sum of ceil(m_t / cap) is at most
  // n / cap + shards.
  rs.reserve_blocks(n / block_capacity + shards);
  local_par.shard_published.resize(shards);
  for (int s = 0; s < w_eff; ++s) {
    local_par.shard_published[static_cast<std::size_t>(s)] =
        shard_lo(n, w_eff, s + 1) - shard_lo(n, w_eff, s);
  }

  Schedule schedule(n);
  std::vector<SliceClock> clocks(shards);
  std::vector<double> shard_horizon(shards, 0.0);
  std::vector<FreeThreadResult> results(shards);

  // Every worker belongs to exactly one slice, which fills its per-worker
  // entries before the join.
  FreeRun run;
  run.tasks = tasks;
  run.platform = &platform;
  run.spoliation = options.enable_spoliation;
  run.victim_order = options.victim_order == VictimOrder::kAuto
                         ? VictimOrder::kCompletionTime
                         : options.victim_order;
  run.w_eff = w_eff;
  run.rs = &rs;
  run.schedule = &schedule;
  run.ready = arena.alloc<ReadyEntry>(n);
  run.placed = arena.alloc<PlacedEntry>(n);
  run.last_on_worker = arena.alloc<std::uint32_t>(workers);
  run.avail = arena.alloc<double>(workers);
  run.clocks = clocks.data();
  run.shard_horizon = shard_horizon.data();
  run.results = results.data();

  auto slice = [&run](int t) {
    int arrived = 0;  // barriers this slice has reached
    try {
      util::Arena& ta = util::scratch_arena();
      const util::ArenaScope scope(ta);
      publish_shard(run, t, ta);
      run.published.fetch_add(1, std::memory_order_release);
      arrived = 1;
      Backoff backoff;
      while (run.published.load(std::memory_order_acquire) != run.w_eff) {
        backoff.pause();
      }
      // Pacing window: one worst-case *well-assigned* task of slack
      // between the fastest and the slowest live slice clock — max over
      // tasks of the duration on the task's favored available resource.
      // Using the worse resource instead would inflate the window past the
      // whole makespan on acceleration-skewed instances (q = p/rho with
      // rho < 1) and let a wall-clock-fast slice hoard the instance into a
      // runaway timeline. The window does bind: on a 4-thread box at W = 2
      // a slice never waited at n = 1e3, but at n = 1e6 it re-read the
      // peer clocks on 9-19K of its ~31K claims and waited ~4.5 ms of a
      // ~40 ms simulation.
      const double horizon = *std::max_element(
          run.shard_horizon, run.shard_horizon + run.w_eff);
      simulate_slice(run, t, horizon, ta);
      run.simulated.fetch_add(1, std::memory_order_acq_rel);
      arrived = 2;
      while (run.simulated.load(std::memory_order_acquire) != run.w_eff) {
        backoff.pause();
      }
      scatter_shard(run, t);
    } catch (...) {
      // A throwing slice must not strand its peers at a barrier or behind
      // its pacing clock; run_on_crew rethrows once every slice is done.
      run.clocks[t].now.store(kInf, std::memory_order_relaxed);
      if (arrived < 1) run.published.fetch_add(1, std::memory_order_release);
      if (arrived < 2) run.simulated.fetch_add(1, std::memory_order_release);
      throw;
    }
  };
  run_on_crew(w_eff, slice);
  rs.reclaim_now();

  // Merge per-thread artifacts (deterministic order given the run content).
  HeteroPrioStats total;
  total.first_idle_time = kInf;
  double* abort_high = arena.alloc<double>(workers);
  std::fill(abort_high, abort_high + workers, 0.0);
  local_par.shard_steals.resize(shards);
  for (std::size_t t = 0; t < shards; ++t) {
    const FreeThreadResult& r = results[t];
    for (const AbortedSegment& seg : r.aborted) {
      schedule.add_aborted(seg.task, seg.worker, seg.start, seg.abort_time);
      double& high = abort_high[static_cast<std::size_t>(seg.worker)];
      high = std::max(high, seg.abort_time);
    }
    total.first_idle_time =
        std::min(total.first_idle_time, r.stats.first_idle_time);
    total.spoliations += r.stats.spoliations;
    total.spoliation_attempts += r.stats.spoliation_attempts;
    total.spoliation_skips += r.stats.spoliation_skips;
    local_par.claims += r.counters.claims;
    local_par.steals += r.counters.steals;
    local_par.steal_failures += r.counters.steal_failures;
    local_par.shard_steals[t] = r.counters.steals;
  }
  local_par.blocks_retired = rs.blocks_retired();
  local_par.blocks_reclaimed = rs.blocks_reclaimed();

  if (options.enable_spoliation) {
    local_par.endgame_moves = endgame_fixup(run, abort_high, total);
  }

  if (!std::isfinite(total.first_idle_time)) {
    total.first_idle_time = schedule.makespan();
  }
  if (stats != nullptr) *stats = total;
  if (par_stats != nullptr) *par_stats = local_par;
  return schedule;
}

}  // namespace hp::par
