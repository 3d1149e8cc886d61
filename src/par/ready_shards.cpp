#include "par/ready_shards.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace hp::par {

namespace {

constexpr std::uint64_t pack_bounds(std::uint32_t head,
                                    std::uint32_t tail) noexcept {
  return (static_cast<std::uint64_t>(head) << 32) | tail;
}

}  // namespace

std::uint32_t ReadyShards::Block::pop(bool front, std::uint32_t max_ids,
                                      std::uint32_t share,
                                      std::uint32_t* out) noexcept {
  std::uint64_t b = bounds.load(std::memory_order_acquire);
  for (;;) {
    const auto head = static_cast<std::uint32_t>(b >> 32);
    const auto tail = static_cast<std::uint32_t>(b);
    if (head >= tail) return 0;
    const std::uint32_t left = tail - head;
    const std::uint32_t take = std::min(max_ids, (left + share - 1) / share);
    const std::uint64_t next = front ? pack_bounds(head + take, tail)
                                     : pack_bounds(head, tail - take);
    if (bounds.compare_exchange_weak(b, next, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      // The storage read is protected by the caller's epoch guard: the
      // block may drain and retire concurrently, but it cannot be recycled
      // until we leave the epoch.
      std::memcpy(out, ids + (front ? head : tail - take),
                  take * sizeof(std::uint32_t));
      return take;
    }
  }
}

ReadyShards::ReadyShards(std::size_t slots, std::uint32_t block_capacity)
    : block_capacity_(std::max<std::uint32_t>(1, block_capacity)),
      epoch_(slots) {}

std::uint32_t* ReadyShards::acquire_storage() {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  if (!free_.empty()) {
    std::uint32_t* p = free_.back();
    free_.pop_back();
    return p;
  }
  storage_.push_back(std::make_unique<std::uint32_t[]>(block_capacity_));
  return storage_.back().get();
}

void ReadyShards::reserve_blocks(std::size_t count) {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  if (free_.size() >= count) return;
  count -= free_.size();
  storage_.push_back(
      std::make_unique<std::uint32_t[]>(count * block_capacity_));
  std::uint32_t* chunk = storage_.back().get();
  for (std::size_t b = 0; b < count; ++b, chunk += block_capacity_) {
    free_.push_back(chunk);
  }
}

void ReadyShards::begin_publish(std::size_t shards) {
  reclaim_now();
  shards_.clear();
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ReadyShards::publish(std::size_t shard, std::span<const std::uint32_t> ids) {
  assert(shard < shards_.size());
  Shard& s = *shards_[shard];
  assert(s.num_blocks == 0 && "publish is once per shard per cycle");
  const std::size_t n = ids.size();
  s.published = n;
  const std::size_t nblocks =
      n == 0 ? 0 : (n + block_capacity_ - 1) / block_capacity_;
  s.blocks = std::make_unique<Block[]>(nblocks);
  s.num_blocks = static_cast<std::uint32_t>(nblocks);
  s.front_hint.store(0, std::memory_order_relaxed);
  s.back_hint.store(static_cast<std::uint32_t>(nblocks),
                    std::memory_order_relaxed);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t lo = b * block_capacity_;
    const std::size_t len = std::min<std::size_t>(block_capacity_, n - lo);
    Block& blk = s.blocks[b];
    blk.ids = acquire_storage();
    std::memcpy(blk.ids, ids.data() + lo, len * sizeof(std::uint32_t));
    blk.bounds.store(pack_bounds(0, static_cast<std::uint32_t>(len)),
                     std::memory_order_release);
  }
}

std::uint32_t ReadyShards::pop_shard(Shard& s, std::size_t slot, bool front,
                                     std::uint32_t max_ids,
                                     std::uint32_t* out) {
  if (s.num_blocks == 0) return 0;
  // Runs shrink only in a shard's last live block, where the shard's tail
  // is spread over every claimant; elsewhere a claim takes a full run.
  const auto tail_share = static_cast<std::uint32_t>(2 * shards_.size());
  if (front) {
    for (std::uint32_t b = s.front_hint.load(std::memory_order_acquire);
         b < s.num_blocks; ++b) {
      Block& blk = s.blocks[b];
      const bool last = b + 1 >= s.back_hint.load(std::memory_order_relaxed);
      if (const std::uint32_t got =
              blk.pop(true, max_ids, last ? tail_share : 1, out)) {
        return got;
      }
      // Drained for good (no re-inserts within a cycle): advance the hint
      // and retire the block exactly once.
      std::uint32_t hint = b;
      s.front_hint.compare_exchange_strong(hint, b + 1,
                                           std::memory_order_acq_rel);
      if (!blk.retired.exchange(true, std::memory_order_acq_rel)) {
        epoch_.retire(slot, blk.ids);
        blocks_retired_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return 0;
  }
  for (std::uint32_t b = s.back_hint.load(std::memory_order_acquire); b > 0;
       --b) {
    Block& blk = s.blocks[b - 1];
    const bool last = b <= s.front_hint.load(std::memory_order_relaxed) + 1;
    if (const std::uint32_t got =
            blk.pop(false, max_ids, last ? tail_share : 1, out)) {
      return got;
    }
    std::uint32_t hint = b;
    s.back_hint.compare_exchange_strong(hint, b - 1,
                                        std::memory_order_acq_rel);
    if (!blk.retired.exchange(true, std::memory_order_acq_rel)) {
      epoch_.retire(slot, blk.ids);
      blocks_retired_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return 0;
}

std::size_t ReadyShards::claim_batch(std::size_t slot, std::size_t home,
                                     bool gpu_end, std::uint32_t max_ids,
                                     std::uint32_t* out,
                                     ClaimCounters& counters) {
  const std::size_t nshards = shards_.size();
  if (nshards == 0 || max_ids == 0) return 0;
  const util::EpochGuard guard(epoch_, slot);
  if (home < nshards) {
    if (const std::uint32_t got =
            pop_shard(*shards_[home], slot, gpu_end, max_ids, out)) {
      counters.claims += got;
      return got;
    }
  }
  for (std::size_t d = 1; d < nshards; ++d) {
    const std::size_t victim = (home + d) % nshards;
    if (const std::uint32_t got =
            pop_shard(*shards_[victim], slot, gpu_end, max_ids, out)) {
      counters.steals += got;
      return got;
    }
    ++counters.steal_failures;
  }
  return 0;
}

std::size_t ReadyShards::reclaim_now() {
  reclaim_scratch_.clear();
  const std::size_t got = epoch_.try_reclaim(reclaim_scratch_);
  if (got != 0) {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    for (void* p : reclaim_scratch_) {
      free_.push_back(static_cast<std::uint32_t*>(p));
    }
  }
  blocks_reclaimed_ += got;
  return got;
}

}  // namespace hp::par
