// Tests for par/ready_shards: the sharded double-ended ready structure of
// the parallel engine. Contracts under test: GPU claims pop shard fronts
// and CPU claims pop backs (the §2.2 two-ended discipline), stealing walks
// the ring from the home shard and pops the same end, every published id is
// claimed exactly once, drained blocks retire into the epoch and their
// storage is recycled across publish cycles (the allocation count stays
// flat), and the concurrent hammer stays linearizable (TSan workload).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "par/ready_shards.hpp"

namespace hp::par {
namespace {

std::vector<std::uint32_t> iota_ids(std::uint32_t lo, std::uint32_t n) {
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), lo);
  return ids;
}

/// One-id claim: a run of at most one.
bool claim_one(ReadyShards& rs, std::size_t slot, std::size_t home,
               bool gpu_end, std::uint32_t& id, ClaimCounters& counters) {
  return rs.claim_batch(slot, home, gpu_end, 1, &id, counters) != 0;
}

TEST(ReadyShards, GpuClaimsPopTheFrontCpuClaimsPopTheBack) {
  ReadyShards rs(1, 4);  // tiny blocks: the scan crosses block boundaries
  rs.begin_publish(1);
  rs.publish(0, iota_ids(0, 10));
  ClaimCounters counters;
  std::uint32_t id = 0;

  ASSERT_TRUE(claim_one(rs, 0, 0, /*gpu_end=*/true, id, counters));
  EXPECT_EQ(id, 0u);
  ASSERT_TRUE(claim_one(rs, 0, 0, true, id, counters));
  EXPECT_EQ(id, 1u);
  ASSERT_TRUE(claim_one(rs, 0, 0, /*gpu_end=*/false, id, counters));
  EXPECT_EQ(id, 9u);
  ASSERT_TRUE(claim_one(rs, 0, 0, false, id, counters));
  EXPECT_EQ(id, 8u);
  EXPECT_EQ(counters.claims, 4u);
  EXPECT_EQ(counters.steals, 0u);
}

TEST(ReadyShards, TwoEndsMeetInTheMiddleWithoutLossOrDuplication) {
  ReadyShards rs(1, 3);
  rs.begin_publish(1);
  rs.publish(0, iota_ids(0, 11));
  ClaimCounters counters;
  std::vector<std::uint32_t> got;
  std::uint32_t id = 0;
  for (bool front = true; claim_one(rs, 0, 0, front, id, counters);
       front = !front) {
    got.push_back(id);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, iota_ids(0, 11));
  EXPECT_FALSE(claim_one(rs, 0, 0, true, id, counters));
  EXPECT_FALSE(claim_one(rs, 0, 0, false, id, counters));
}

TEST(ReadyShards, StealingWalksTheRingFromHome) {
  ReadyShards rs(1, 8);
  rs.begin_publish(3);
  rs.publish(0, {});             // home shard empty
  rs.publish(1, iota_ids(10, 2));
  rs.publish(2, iota_ids(20, 2));
  ClaimCounters counters;
  std::uint32_t id = 0;

  // Home is 0: the ring visits 1 first.
  ASSERT_TRUE(claim_one(rs, 0, 0, true, id, counters));
  EXPECT_EQ(id, 10u);
  EXPECT_EQ(counters.claims, 0u);
  EXPECT_EQ(counters.steals, 1u);

  // Home is 2: its own ids come first, no steal counted.
  ASSERT_TRUE(claim_one(rs, 0, 2, true, id, counters));
  EXPECT_EQ(id, 20u);
  EXPECT_EQ(counters.claims, 1u);

  // CPU steals pop the back of the victim, preserving the discipline.
  ASSERT_TRUE(claim_one(rs, 0, 0, false, id, counters));
  EXPECT_EQ(id, 11u);
  EXPECT_EQ(counters.steals, 2u);

  ASSERT_TRUE(claim_one(rs, 0, 0, true, id, counters));
  EXPECT_EQ(id, 21u);
  EXPECT_FALSE(claim_one(rs, 0, 0, true, id, counters));
  EXPECT_GT(counters.steal_failures, 0u);
}

TEST(ReadyShards, DrainedBlocksRetireAndStorageRecyclesAcrossCycles) {
  ReadyShards rs(1, 4);  // 16 ids -> 4 blocks per cycle
  for (int cycle = 0; cycle < 5; ++cycle) {
    rs.begin_publish(1);
    rs.publish(0, iota_ids(0, 16));
    ClaimCounters counters;
    std::uint32_t id = 0;
    while (claim_one(rs, 0, 0, cycle % 2 == 0, id, counters)) {
    }
  }
  rs.reclaim_now();
  EXPECT_EQ(rs.blocks_retired(), 5u * 4u);
  // The pool covers one cycle's working set; later cycles reuse it. Without
  // recycling this would be 20 allocations.
  EXPECT_LE(rs.storage_allocated(), 8u);
  EXPECT_GT(rs.blocks_reclaimed(), 0u);
}

TEST(ReadyShards, ReservedBlocksServeEveryPublishWithOneAllocation) {
  ReadyShards rs(2, 4);
  rs.begin_publish(2);
  rs.reserve_blocks(5);  // 10 ids -> 3 blocks, 3 ids -> 1 block
  rs.publish(0, iota_ids(0, 10));
  rs.publish(1, iota_ids(10, 3));
  EXPECT_EQ(rs.storage_allocated(), 1u);
  ClaimCounters counters;
  std::vector<std::uint32_t> got;
  std::uint32_t id = 0;
  while (claim_one(rs, 0, 0, true, id, counters)) got.push_back(id);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, iota_ids(0, 13));
}

TEST(ReadyShards, PublishedCountsAreVisible) {
  ReadyShards rs(2, 4);
  rs.begin_publish(2);
  rs.publish(0, iota_ids(0, 7));
  rs.publish(1, iota_ids(7, 3));
  EXPECT_EQ(rs.num_shards(), 2u);
  EXPECT_EQ(rs.shard_published(0), 7u);
  EXPECT_EQ(rs.shard_published(1), 3u);
}

TEST(ReadyShards, BatchedClaimsTakeOrderedRunsAndShrinkInTheLastBlock) {
  ReadyShards rs(1, 8);
  rs.begin_publish(1);
  rs.publish(0, iota_ids(0, 20));  // blocks [0,8) [8,16) [16,20)
  ClaimCounters counters;
  std::uint32_t out[8];

  // Front runs come in ascending order and never span blocks.
  ASSERT_EQ(rs.claim_batch(0, 0, /*gpu_end=*/true, 5, out, counters), 5u);
  EXPECT_EQ(std::vector<std::uint32_t>(out, out + 5), iota_ids(0, 5));
  ASSERT_EQ(rs.claim_batch(0, 0, true, 5, out, counters), 3u);
  EXPECT_EQ(std::vector<std::uint32_t>(out, out + 3), iota_ids(5, 3));
  // Back runs too: the CPU end's id is the run's last element.
  ASSERT_EQ(rs.claim_batch(0, 0, /*gpu_end=*/false, 3, out, counters), 3u);
  EXPECT_EQ(std::vector<std::uint32_t>(out, out + 3), iota_ids(17, 3));
  EXPECT_EQ(counters.claims, 11u);

  // In the shard's last live block a run takes at most half (2 * 1 shard)
  // of what the block holds, rounded up.
  rs.begin_publish(1);
  rs.publish(0, iota_ids(0, 12));  // blocks [0,8) [8,12)
  ClaimCounters tail;
  ASSERT_EQ(rs.claim_batch(0, 0, true, 8, out, tail), 8u);
  ASSERT_EQ(rs.claim_batch(0, 0, true, 8, out, tail), 2u);
  EXPECT_EQ(std::vector<std::uint32_t>(out, out + 2), iota_ids(8, 2));
  ASSERT_EQ(rs.claim_batch(0, 0, true, 8, out, tail), 1u);
  EXPECT_EQ(out[0], 10u);
  ASSERT_EQ(rs.claim_batch(0, 0, false, 8, out, tail), 1u);
  EXPECT_EQ(out[0], 11u);
  EXPECT_EQ(rs.claim_batch(0, 0, false, 8, out, tail), 0u);
  EXPECT_EQ(tail.claims, 12u);
  EXPECT_EQ(tail.steals, 0u);
}

// Concurrent hammer (also the TSan workload): several claimers — half
// popping GPU fronts, half CPU backs — race over a multi-shard publish, with
// single-id and batched claims. Every id must be claimed exactly once
// across all threads, and the counters must total the instance.
TEST(ReadyShards, ConcurrentClaimsCoverEveryIdExactlyOnce) {
  constexpr std::uint32_t kIds = 2000;
  constexpr int kThreads = 4;
  constexpr int kShards = 3;
  constexpr std::uint32_t kMaxBatch = 7;

  for (const std::uint32_t batch : {1u, kMaxBatch}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    ReadyShards rs(kThreads, 16);  // small blocks: heavy retirement traffic
    rs.begin_publish(kShards);
    std::uint32_t next = 0;
    for (int s = 0; s < kShards; ++s) {
      const std::uint32_t len =
          kIds / kShards +
          (static_cast<std::uint32_t>(s) < kIds % kShards ? 1 : 0);
      rs.publish(static_cast<std::size_t>(s), iota_ids(next, len));
      next += len;
    }

    std::vector<std::atomic<int>> hits(kIds);
    std::vector<ClaimCounters> counters(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&rs, &hits, &counters, batch, t] {
        std::uint32_t out[kMaxBatch];
        ClaimCounters local;
        while (const std::size_t got = rs.claim_batch(
                   static_cast<std::size_t>(t),
                   static_cast<std::size_t>(t % kShards), t % 2 == 0, batch,
                   out, local)) {
          for (std::size_t i = 0; i < got; ++i) {
            hits[out[i]].fetch_add(1, std::memory_order_relaxed);
          }
        }
        counters[static_cast<std::size_t>(t)] = local;
      });
    }
    for (std::thread& t : threads) t.join();

    for (std::uint32_t i = 0; i < kIds; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "id " << i;
    }
    std::uint64_t claimed = 0;
    for (const ClaimCounters& c : counters) claimed += c.claims + c.steals;
    EXPECT_EQ(claimed, kIds);
    rs.reclaim_now();
    EXPECT_EQ(rs.blocks_retired(), rs.blocks_reclaimed());
  }
}

}  // namespace
}  // namespace hp::par
