#pragma once
// Sharded double-ended ready structure for the parallel HeteroPrio engine.
//
// The sequential engine keeps one presorted ready array with two cursors:
// idle GPUs pop the front (most GPU-friendly, highest acceleration), idle
// CPUs pop the back (§2.2). To let W scheduler threads claim concurrently,
// the sorted order is split into W shards (contiguous task-id ranges, each
// sorted by the same packed keys), and every shard is further chunked into
// fixed-capacity *ready blocks*. A block exposes one packed atomic
// `head:32 | tail:32` word, so claiming from either end is a single CAS and
// the two ends never contend on separate control words.
//
// A claim takes a run of ids: one CAS moves a block end by the whole run,
// which the free-running engine buffers slice-locally.
//
// Stealing follows the Chase–Lev discipline adapted to HeteroPrio's
// two-ended contract: a thief pops the same end its resource type always
// pops — GPUs steal fronts, CPUs steal backs — walking the shard ring from
// its home shard. A worker therefore idles only when every shard is empty,
// which is the work-conservation property the makespan bounds lean on
// (docs/parallel.md).
//
// Reclamation: a drained block is retired exactly once (atomic flag) into a
// util::StripedEpoch. Its id storage returns to the block pool only after
// every participant has left the epoch the retirement happened in — a
// claimer that won a CAS may still be reading ids[h] — and is recycled by
// the next publish cycle. Claimers must hold an EpochGuard for their slot
// across a claim; ReadyShards::claim_batch does this internally.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/striped_epoch.hpp"

namespace hp::par {

/// Per-claimant statistics, aggregated into the run's obs:: counters.
struct ClaimCounters {
  std::uint64_t claims = 0;          ///< successful pops from the home shard
  std::uint64_t steals = 0;          ///< successful pops from another shard
  std::uint64_t steal_failures = 0;  ///< non-home shards probed and empty
};

class ReadyShards {
 public:
  /// `slots` epoch participants (claiming threads). `block_capacity` ids
  /// per ready block; small capacities force frequent retirement (tests).
  explicit ReadyShards(std::size_t slots, std::uint32_t block_capacity = 1024);

  ReadyShards(const ReadyShards&) = delete;
  ReadyShards& operator=(const ReadyShards&) = delete;

  /// Start a publish cycle with `shards` empty shards. Single-threaded:
  /// no claim may be in flight. Reclaims grace-elapsed retired blocks from
  /// the previous cycle into the pool first.
  void begin_publish(std::size_t shards);

  /// Top the storage pool up to `count` blocks with one allocation on the
  /// calling thread. The free-running engine reserves a call's blocks
  /// before its slices publish: blocks the slices allocated themselves
  /// were freed by the caller, across malloc arenas. On a 4-thread box,
  /// timed as `hp_sched perf --quick` times n = 1e3, that held W = 2 to a
  /// median 1.44-1.53x W = 1 (147-149 wins in 150), against 1.56-1.60x
  /// (150 in 150) with the reservation.
  void reserve_blocks(std::size_t count);

  /// Publish shard `shard`'s ready ids, already in ready order (ascending
  /// packed key: GPU end first). Distinct shards may be published
  /// concurrently; every claim must happen after every publish of the
  /// cycle (the free-running engine's start barrier).
  void publish(std::size_t shard, std::span<const std::uint32_t> ids);

  /// Claim a run of up to `max_ids` ids with one epoch guard and one CAS.
  /// `slot` is the caller's epoch slot; `home` its home shard. GPU claims
  /// pop fronts, CPU claims pop backs, from the first non-empty block at
  /// that end; on a miss the other shards are probed round the ring from
  /// home+1 (stealing, same end). In a shard's last live block the run
  /// never exceeds a 1/(2 * num_shards()) share of what the block held,
  /// rounded up, so runs shrink as the shard drains and its tail spreads
  /// over every claimant. `out` receives the ids in ready order (ascending
  /// key) for either end. Returns the count; 0 only when every shard is
  /// empty — and since ids are never re-inserted within a cycle, emptiness
  /// is permanent. Counters count ids, so claims + steals totals the
  /// instance.
  [[nodiscard]] std::size_t claim_batch(std::size_t slot, std::size_t home,
                                        bool gpu_end, std::uint32_t max_ids,
                                        std::uint32_t* out,
                                        ClaimCounters& counters);

  /// Grace-elapsed reclamation outside the publish path (engine teardown,
  /// tests). Returns the number of blocks recycled into the pool.
  std::size_t reclaim_now();

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] util::StripedEpoch& epoch() noexcept { return epoch_; }

  /// Ids published into `shard` this cycle (the shard-occupancy counter).
  [[nodiscard]] std::size_t shard_published(std::size_t shard) const {
    return shards_[shard]->published;
  }

  [[nodiscard]] std::uint64_t blocks_retired() const noexcept {
    return blocks_retired_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t blocks_reclaimed() const noexcept {
    return blocks_reclaimed_;
  }
  /// Distinct storage allocations so far; stays flat across publish cycles
  /// once the pool covers the working set (the reclamation regression).
  [[nodiscard]] std::size_t storage_allocated() const noexcept {
    return storage_.size();
  }

 private:
  struct Block {
    std::atomic<std::uint64_t> bounds{0};  ///< head:32 | tail:32
    std::atomic<bool> retired{false};
    std::uint32_t* ids = nullptr;

    /// Pop up to `max_ids` (at most ceil(remaining / share)) from one end
    /// with a single CAS; ids land in `out` in ascending key order.
    [[nodiscard]] std::uint32_t pop(bool front, std::uint32_t max_ids,
                                    std::uint32_t share,
                                    std::uint32_t* out) noexcept;
    [[nodiscard]] bool empty() const noexcept {
      const std::uint64_t b = bounds.load(std::memory_order_acquire);
      return static_cast<std::uint32_t>(b >> 32) >=
             static_cast<std::uint32_t>(b);
    }
  };

  struct alignas(util::kEpochSlotStride) Shard {
    std::unique_ptr<Block[]> blocks;
    std::uint32_t num_blocks = 0;
    std::size_t published = 0;
    /// Advisory cursors: first (last) possibly non-drained block. Claims
    /// re-scan from the hint, so a stale hint costs probes, never tasks.
    std::atomic<std::uint32_t> front_hint{0};
    std::atomic<std::uint32_t> back_hint{0};
  };

  /// Pop a run from shard `s`; retires blocks it finds drained on the way.
  [[nodiscard]] std::uint32_t pop_shard(Shard& s, std::size_t slot, bool front,
                                        std::uint32_t max_ids,
                                        std::uint32_t* out);

  [[nodiscard]] std::uint32_t* acquire_storage();

  std::uint32_t block_capacity_;
  util::StripedEpoch epoch_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Storage pool. `storage_` owns every allocation for the object's
  // lifetime; `free_` holds the recycled ones. Mutated only in the
  // single-threaded publish/reclaim phases (guarded anyway for safety).
  std::mutex pool_mutex_;
  std::vector<std::unique_ptr<std::uint32_t[]>> storage_;
  std::vector<std::uint32_t*> free_;
  std::vector<void*> reclaim_scratch_;
  std::atomic<std::uint64_t> blocks_retired_{0};
  std::uint64_t blocks_reclaimed_ = 0;
};

}  // namespace hp::par
