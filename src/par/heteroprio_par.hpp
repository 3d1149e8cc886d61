#pragma once
// Multi-threaded HeteroPrio over sharded ready structures (docs/parallel.md).
//
// `heteroprio_par_run` schedules one independent instance with W =
// HeteroPrioOptions::threads scheduler threads. Two contracts, selected by
// HeteroPrioOptions::canonical:
//
//  * Canonical (default): the ready order is built by a sharded sort —
//    contiguous task-id ranges, per-shard SoA key packing and stable
//    counting sort fanned over a thread pool — then merged with the
//    deterministic min-(key0[, key1], id) cross-shard tie-break. Because
//    the sequential sort is stable over ascending-id input and the shard
//    ranges are contiguous, the merge reproduces the sequential sorted
//    order *exactly*, and the merged order drives the same simulation
//    (detail::run_independent_presorted). Placements, aborted segments and
//    every counter are bitwise-identical to the sequential engine — the
//    property test_par_regression and the `par` fuzz property enforce.
//
//  * Free-running (canonical = false): W_eff threads — each owning a
//    disjoint slice of the platform with at least one CPU and one GPU when
//    both exist — sort their own shards and publish them unmerged as
//    two-ended ready blocks (par::ReadyShards), then claim on demand in
//    batches: idle GPUs take runs from shard fronts, idle CPUs from backs,
//    stealing from other shards round the ring on a miss, under a
//    simulated-time pacing window checked once per batch. Spoliation runs
//    within each slice, and an end-game pass moves the makespan-defining
//    task to whichever worker finishes it strictly earlier (recording the
//    aborted progress), restoring the last-task spoliation inequality the
//    proven ratio bounds rest on. The result is a valid schedule within
//    the watchdog bounds, not a bitwise-identical one.
//
// Both modes run their W bodies on persistent scheduler threads
// (par/scheduler_crew.hpp), slice 0 on the calling thread.
//
// Cases outside the fast-path preconditions (DAGs via the dag entry, fault
// plans, attached sinks/logs, > 63 workers) delegate to the sequential
// engine; `HeteroPrioParStats::delegated` records that.

#include <cstdint>
#include <span>
#include <vector>

#include "core/heteroprio.hpp"

namespace hp {
namespace obs {
class CounterRegistry;  // obs/counters.hpp
}

namespace par {

/// Parallel-engine observability, one record per run. Aggregates are over
/// every claiming thread; the per-shard vectors are indexed by shard.
struct HeteroPrioParStats {
  int threads_requested = 0;
  int threads_used = 0;  ///< W_eff; 1 means the run was effectively serial
  bool canonical = true;
  bool delegated = false;  ///< fell back to the sequential general engine
  std::uint64_t claims = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_failures = 0;
  std::uint64_t blocks_retired = 0;
  std::uint64_t blocks_reclaimed = 0;
  std::uint64_t endgame_moves = 0;  ///< end-game spoliation relocations
  std::vector<std::uint64_t> shard_published;  ///< shard occupancy at publish
  std::vector<std::uint64_t> shard_steals;     ///< steals per claiming thread

  /// Export as `par_*` counters (par_steals, par_steal_failures,
  /// par_shard<i>_published, ...) into an obs:: registry.
  void export_counters(obs::CounterRegistry& registry) const;
};

/// Schedule `tasks` on `platform` with the parallel HeteroPrio engine.
/// `options.threads` <= 1 or non-coverable cases run sequentially (bitwise
/// the sequential engine). `stats` mirrors the sequential stats contract;
/// `par_stats` (optional) receives the parallel-engine record.
[[nodiscard]] Schedule heteroprio_par_run(std::span<const Task> tasks,
                                          const Platform& platform,
                                          const HeteroPrioOptions& options,
                                          HeteroPrioStats* stats = nullptr,
                                          HeteroPrioParStats* par_stats =
                                              nullptr);

}  // namespace par
}  // namespace hp
