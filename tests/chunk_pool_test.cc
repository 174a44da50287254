// Unit tests for the pooled run-store allocator and its budget layer
// (chunk_pool.h). The pool is a process-wide singleton with monotonic
// counters, so every expectation works on deltas between GetStats()
// snapshots rather than absolute values.

#include "cea/mem/chunk_pool.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "cea/common/machine.h"
#include "cea/mem/chunked_array.h"

namespace cea {
namespace {

TEST(SizeClassTest, MatchesGeometricChunkSchedule) {
  EXPECT_EQ(ChunkPool::SizeClass(512), 0);
  EXPECT_EQ(ChunkPool::SizeClass(1024), 1);
  EXPECT_EQ(ChunkPool::SizeClass(2048), 2);
  EXPECT_EQ(ChunkPool::SizeClass(4096), 3);
  EXPECT_EQ(ChunkPool::SizeClass(8192), 4);
  // Everything off the schedule is unpooled.
  EXPECT_EQ(ChunkPool::SizeClass(0), -1);
  EXPECT_EQ(ChunkPool::SizeClass(511), -1);
  EXPECT_EQ(ChunkPool::SizeClass(513), -1);
  EXPECT_EQ(ChunkPool::SizeClass(16384), -1);
  // The schedule covers ChunkedArray's chunk range end to end.
  EXPECT_EQ(ChunkPool::SizeClass(ChunkedArray::kMinChunkElems), 0);
  EXPECT_EQ(ChunkPool::SizeClass(ChunkedArray::kMaxChunkElems),
            ChunkPool::kNumClasses - 1);
}

TEST(ChunkPoolTest, AllocationIsCacheLineAligned) {
  ChunkPool& pool = ChunkPool::Global();
  for (size_t elems : {size_t{512}, size_t{8192}, size_t{12345}}) {
    uint64_t* p = pool.Allocate(elems);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kCacheLineBytes, 0u)
        << "elems=" << elems;
    p[0] = 1;
    p[elems - 1] = 2;  // the whole block must be writable
    pool.Free(p, elems);
  }
}

TEST(ChunkPoolTest, EveryCarvedBlockStaysCacheLineAligned) {
  // The NT-store flush path (ChunkedArray::AppendLine via
  // StreamStoreLine) requires 64-byte-aligned chunk bases. Mixed-class
  // allocation sequences advance the slab bump pointer by varying amounts
  // and cross at least one slab boundary here; every block handed out must
  // still be line-aligned.
  ChunkPool& pool = ChunkPool::Global();
  const size_t classes[] = {512, 1024, 2048, 4096, 8192};
  std::vector<std::pair<uint64_t*, size_t>> held;
  // > 2 MiB (one slab) of fresh allocations, never freed in between so
  // nothing is recycled and the bump pointer does all the work.
  for (int round = 0; round < 100; ++round) {
    size_t elems = classes[round % 5];
    uint64_t* p = pool.Allocate(elems);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kCacheLineBytes, 0u)
        << "round " << round << " elems " << elems;
    p[0] = 1;
    p[elems - 1] = 2;
    held.emplace_back(p, elems);
  }
  for (auto& [p, elems] : held) pool.Free(p, elems);
}

TEST(ChunkPoolTest, OddOversizeAllocationsAreCacheLineAligned) {
  // Oversize (unpooled) capacities with sizes that are not multiples of a
  // cache line still come back aligned and fully writable.
  ChunkPool& pool = ChunkPool::Global();
  for (size_t elems : {size_t{515}, size_t{8193}, size_t{12345}}) {
    uint64_t* p = pool.Allocate(elems);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kCacheLineBytes, 0u)
        << "elems=" << elems;
    p[0] = 1;
    p[elems - 1] = 2;
    pool.Free(p, elems);
  }
}

TEST(ChunkPoolTest, FreedBlockIsRecycled) {
  ChunkPool& pool = ChunkPool::Global();
  uint64_t* first = pool.Allocate(1024);
  pool.Free(first, 1024);

  ChunkPool::Stats before = pool.GetStats();
  uint64_t* second = pool.Allocate(1024);
  ChunkPool::Stats after = pool.GetStats();

  // LIFO thread cache: the block we just freed comes straight back, with
  // no fresh carving.
  EXPECT_EQ(second, first);
  EXPECT_EQ(after.recycled_chunks, before.recycled_chunks + 1);
  EXPECT_EQ(after.fresh_chunks, before.fresh_chunks);
  EXPECT_EQ(after.slabs_allocated, before.slabs_allocated);
  pool.Free(second, 1024);
}

TEST(ChunkPoolTest, DistinctClassesDoNotShareBlocks) {
  ChunkPool& pool = ChunkPool::Global();
  uint64_t* small = pool.Allocate(512);
  pool.Free(small, 512);
  // A different class must not be served the 512-element block.
  uint64_t* large = pool.Allocate(8192);
  EXPECT_NE(large, small);
  pool.Free(large, 8192);
}

TEST(ChunkPoolTest, OversizeAllocationsBypassThePool) {
  ChunkPool& pool = ChunkPool::Global();
  MemoryBudget& budget = MemoryBudget::Global();
  constexpr size_t kElems = 100'000;  // not a size class
  size_t used_before = budget.used();
  ChunkPool::Stats before = pool.GetStats();

  uint64_t* p = pool.Allocate(kElems);
  ASSERT_NE(p, nullptr);
  ChunkPool::Stats mid = pool.GetStats();
  EXPECT_EQ(mid.oversize_chunks, before.oversize_chunks + 1);
  EXPECT_GE(budget.used(), used_before + kElems * sizeof(uint64_t));

  pool.Free(p, kElems);
  EXPECT_EQ(budget.used(), used_before);  // released immediately, not pooled
  EXPECT_EQ(pool.GetStats().frees, before.frees + 1);
}

TEST(ChunkPoolTest, FlushThreadCachePublishesBlocksToShards) {
  ChunkPool& pool = ChunkPool::Global();
  uint64_t* p = pool.Allocate(2048);
  pool.Free(p, 2048);
  pool.FlushThreadCache();
  // The block is now in a shared shard; reallocating must still recycle
  // (refill path) rather than carve fresh memory.
  ChunkPool::Stats before = pool.GetStats();
  uint64_t* q = pool.Allocate(2048);
  ChunkPool::Stats after = pool.GetStats();
  EXPECT_EQ(after.recycled_chunks, before.recycled_chunks + 1);
  EXPECT_EQ(after.fresh_chunks, before.fresh_chunks);
  pool.Free(q, 2048);
}

TEST(ChunkPoolTest, BlocksFreedOnAnotherThreadCirculateBack) {
  // A pass's runs are routinely freed by a different worker than the one
  // that filled them; blocks must survive the round trip.
  ChunkPool& pool = ChunkPool::Global();
  std::vector<uint64_t*> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(pool.Allocate(4096));

  std::thread other([&] {
    for (uint64_t* b : blocks) ChunkPool::Global().Free(b, 4096);
    // Thread exit flushes the cache to a shard automatically; flush
    // explicitly too so the test does not depend on destructor order.
    ChunkPool::Global().FlushThreadCache();
  });
  other.join();

  ChunkPool::Stats before = pool.GetStats();
  std::vector<uint64_t*> again;
  for (int i = 0; i < 8; ++i) again.push_back(pool.Allocate(4096));
  ChunkPool::Stats after = pool.GetStats();
  // All eight came from freelists (possibly via a shard refill), none from
  // fresh slab memory.
  EXPECT_EQ(after.recycled_chunks, before.recycled_chunks + 8);
  EXPECT_EQ(after.fresh_chunks, before.fresh_chunks);
  for (uint64_t* b : again) pool.Free(b, 4096);
}

TEST(MemoryBudgetTest, ReserveReleaseAndPeakTracking) {
  MemoryBudget& budget = MemoryBudget::Global();
  size_t base = budget.used();
  budget.ResetPeak();
  EXPECT_EQ(budget.peak(), base);

  budget.Reserve(1 << 20);
  EXPECT_EQ(budget.used(), base + (1 << 20));
  EXPECT_EQ(budget.peak(), base + (1 << 20));

  budget.Reserve(1 << 20);
  budget.Release(1 << 20);
  EXPECT_EQ(budget.used(), base + (1 << 20));
  // Peak keeps the high-water mark across the release.
  EXPECT_EQ(budget.peak(), base + (2 << 20));

  budget.Release(1 << 20);
  EXPECT_EQ(budget.used(), base);
}

TEST(MemoryBudgetTest, ExceededLimitThrowsAndRollsBack) {
  MemoryBudget& budget = MemoryBudget::Global();
  size_t base = budget.used();
  budget.SetLimit(base + (1 << 20));

  budget.Reserve(1 << 19);  // fits
  try {
    budget.Reserve(1 << 20);  // would exceed
    budget.SetLimit(0);
    FAIL() << "Reserve over the limit must throw";
  } catch (const MemoryBudgetExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("memory budget exceeded"),
              std::string::npos);
  }
  // The failed reservation was rolled back.
  EXPECT_EQ(budget.used(), base + (1 << 19));
  budget.Release(1 << 19);
  budget.SetLimit(0);
}

TEST(MemoryBudgetTest, ExceptionIsABadAlloc) {
  // Generic allocation-failure handlers (catch std::bad_alloc) must keep
  // working on the pool's failure path.
  MemoryBudget& budget = MemoryBudget::Global();
  budget.SetLimit(1);  // nothing fits
  EXPECT_THROW(budget.Reserve(1 << 20), std::bad_alloc);
  budget.SetLimit(0);
}

TEST(MemoryBudgetTest, PoolAllocationsHitTheLimit) {
  // Exhaustion at the slab layer surfaces through Allocate.
  ChunkPool& pool = ChunkPool::Global();
  MemoryBudget& budget = MemoryBudget::Global();
  pool.FlushThreadCache();

  budget.SetLimit(budget.used() == 0 ? 1 : budget.used());
  // Drain every freelist: keep allocating until the pool must carve a
  // fresh slab, which the limit forbids.
  std::vector<uint64_t*> taken;
  bool threw = false;
  try {
    for (int i = 0; i < 1 << 16; ++i) taken.push_back(pool.Allocate(8192));
  } catch (const MemoryBudgetExceeded&) {
    threw = true;
  }
  budget.SetLimit(0);
  EXPECT_TRUE(threw);
  for (uint64_t* b : taken) pool.Free(b, 8192);

  // With the limit lifted the same allocation succeeds again.
  uint64_t* p = pool.Allocate(8192);
  EXPECT_NE(p, nullptr);
  pool.Free(p, 8192);
}

TEST(MemoryBudgetTest, OversizeChunksAloneExhaustTheBudget) {
  // Oversize chunks bypass the slab carver entirely, so their accounting
  // is a separate code path: each Allocate must Reserve and each Free must
  // Release, with nothing pooled in between. Exhaust the budget purely
  // through oversize chunks to prove the path is wired to the limit.
  ChunkPool& pool = ChunkPool::Global();
  MemoryBudget& budget = MemoryBudget::Global();
  constexpr size_t kElems = 100'000;  // not a size class
  constexpr size_t kBytes = kElems * sizeof(uint64_t);
  const size_t used_before = budget.used();
  // Room for exactly two oversize chunks on top of current usage.
  budget.SetLimit(used_before + 2 * kBytes + 1024);

  std::vector<uint64_t*> taken;
  bool threw = false;
  std::string message;
  try {
    for (int i = 0; i < 3; ++i) taken.push_back(pool.Allocate(kElems));
  } catch (const MemoryBudgetExceeded& e) {
    threw = true;
    message = e.what();
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(taken.size(), 2u);
  // The failed Reserve rolled back: usage reflects the two live chunks
  // only, so freeing them restores the starting level exactly.
  EXPECT_NE(message.find("memory budget"), std::string::npos) << message;
  for (uint64_t* b : taken) pool.Free(b, kElems);
  EXPECT_EQ(budget.used(), used_before);

  // With the freed headroom the same allocation succeeds again.
  uint64_t* p = pool.Allocate(kElems);
  EXPECT_NE(p, nullptr);
  pool.Free(p, kElems);
  budget.SetLimit(0);
}

TEST(ChunkedArrayPoolTest, ClearReturnsChunksForRecycling) {
  ChunkPool& pool = ChunkPool::Global();
  ChunkPool::Stats before = pool.GetStats();
  {
    ChunkedArray a;
    for (uint64_t i = 0; i < 4 * ChunkedArray::kMinChunkElems; ++i) {
      a.Append(i);
    }
    EXPECT_EQ(a.size(), 4 * ChunkedArray::kMinChunkElems);
  }  // destructor clears -> chunks go back to the pool
  ChunkPool::Stats after = pool.GetStats();
  EXPECT_GT(after.frees, before.frees);

  // A second array of the same shape is served from recycled blocks.
  ChunkPool::Stats before2 = pool.GetStats();
  ChunkedArray b;
  for (uint64_t i = 0; i < 4 * ChunkedArray::kMinChunkElems; ++i) {
    b.Append(i);
  }
  ChunkPool::Stats after2 = pool.GetStats();
  EXPECT_EQ(after2.fresh_chunks, before2.fresh_chunks);
  EXPECT_GT(after2.recycled_chunks, before2.recycled_chunks);
  // Contents survive the recycled memory (no aliasing between arrays).
  for (uint64_t i = 0; i < 16; ++i) EXPECT_EQ(b.At(i), i);
}

}  // namespace
}  // namespace cea
