#include "cea/mem/chunk_pool.h"

#include <cstdio>
#include <cstdlib>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "cea/common/check.h"
#include "cea/common/machine.h"

namespace cea {

namespace {

std::string HumanBytes(size_t bytes) {
  char buf[32];
  if (bytes >= (size_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  }
  return buf;
}

}  // namespace

MemoryBudget& MemoryBudget::Global() {
  // Leaked singleton: worker threads flush chunk caches at thread exit,
  // which may run after static destructors on the main thread.
  static MemoryBudget* budget = new MemoryBudget();
  return *budget;
}

void MemoryBudget::Reserve(size_t bytes) {
  size_t limit = limit_.load(std::memory_order_relaxed);
  size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (limit != 0 && now > limit) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    throw MemoryBudgetExceeded(
        "memory budget exceeded: " + HumanBytes(now - bytes) + " in use + " +
        HumanBytes(bytes) + " requested > limit " + HumanBytes(limit));
  }
  size_t p = peak_.load(std::memory_order_relaxed);
  while (now > p &&
         !peak_.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
  }
}

void MemoryBudget::Release(size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------

struct ChunkPool::ThreadCache {
  std::vector<uint64_t*> blocks[kNumClasses];
  // Shard assignment rotates across threads so worker caches do not all
  // contend on one shard when they spill or refill.
  int shard = -1;

  ~ThreadCache() {
    if (shard >= 0) ChunkPool::Global().FlushCache(this);
  }
};

ChunkPool& ChunkPool::Global() {
  static ChunkPool* pool = new ChunkPool();  // leaked, see MemoryBudget
  return *pool;
}

ChunkPool::ThreadCache& ChunkPool::Cache() {
  static thread_local ThreadCache cache;
  if (cache.shard < 0) {
    cache.shard =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  }
  return cache;
}

ChunkPool::Shard& ChunkPool::ShardForThisThread() {
  return shards_[Cache().shard];
}

void ChunkPool::RefillFromShard(int k, size_t want,
                                std::vector<uint64_t*>* out) {
  // Start with this thread's home shard, then steal from the others:
  // blocks freed by a different worker sit in that worker's shard and must
  // still be preferred over carving fresh slab memory.
  const int home = Cache().shard;
  for (int i = 0; i < kNumShards && want != 0; ++i) {
    Shard& shard = shards_[(home + i) % kNumShards];
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<uint64_t*>& list = shard.free_lists[k];
    while (want != 0 && !list.empty()) {
      out->push_back(list.back());
      list.pop_back();
      --want;
    }
  }
}

uint64_t* ChunkPool::CarveFresh(size_t bytes) {
  // Every carve is rounded up to a whole number of cache lines so the bump
  // pointer never leaves 64-byte alignment — the NT-store flush path
  // (StreamStoreLine via ChunkedArray::AppendLine) requires it.
  bytes = (bytes + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1);
  std::lock_guard<std::mutex> lock(slab_mutex_);
  if (static_cast<size_t>(bump_end_ - bump_next_) < bytes) {
    // The slab tail (< one max-class block) is abandoned; at 64 KiB of
    // 2 MiB that is a ~3% bound on carving waste.
    //
    // Grow the slab registry before reserving budget: a bad_alloc out of
    // push_back after Reserve+aligned_alloc succeeded would leak the slab
    // and leave the budget permanently charged for it.
    slabs_.reserve(slabs_.size() + 1);
    MemoryBudget::Global().Reserve(kSlabBytes);
    void* slab = std::aligned_alloc(kSlabBytes, kSlabBytes);
    if (slab == nullptr) {
      MemoryBudget::Global().Release(kSlabBytes);
      throw MemoryBudgetExceeded(
          "allocation failure: OS refused a " + HumanBytes(kSlabBytes) +
          " run-store slab (" + HumanBytes(MemoryBudget::Global().used()) +
          " accounted)");
    }
#if defined(__linux__)
    if (huge_pages()) {
      // Best effort; ignore failures (THP disabled, sanitizer runtimes).
      (void)madvise(slab, kSlabBytes, MADV_HUGEPAGE);
    }
#endif
    slabs_.push_back(slab);
    slabs_allocated_.fetch_add(1, std::memory_order_relaxed);
    bump_next_ = static_cast<char*>(slab);
    bump_end_ = bump_next_ + kSlabBytes;
  }
  uint64_t* block = reinterpret_cast<uint64_t*>(bump_next_);
  bump_next_ += bytes;
  CEA_DCHECK((reinterpret_cast<uintptr_t>(block) & (kCacheLineBytes - 1)) ==
             0);
  return block;
}

uint64_t* ChunkPool::Allocate(size_t elems) {
  const int k = SizeClass(elems);
  if (k < 0) {
    // Odd capacity (only produced by bulk appends larger than the class
    // range): direct allocation, budget-accounted, never pooled.
    size_t bytes = (elems * sizeof(uint64_t) + kCacheLineBytes - 1) &
                   ~(kCacheLineBytes - 1);
    MemoryBudget::Global().Reserve(bytes);
    void* mem = std::aligned_alloc(kCacheLineBytes, bytes);
    if (mem == nullptr) {
      MemoryBudget::Global().Release(bytes);
      throw MemoryBudgetExceeded("allocation failure: OS refused a " +
                                 HumanBytes(bytes) + " oversize run chunk");
    }
    oversize_chunks_.fetch_add(1, std::memory_order_relaxed);
    fresh_chunks_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<uint64_t*>(mem);
  }

  std::vector<uint64_t*>& local = Cache().blocks[k];
  if (local.empty()) {
    RefillFromShard(k, kMaxCachedPerClass / 2, &local);
  }
  if (!local.empty()) {
    uint64_t* block = local.back();
    local.pop_back();
    free_bytes_.fetch_sub(elems * sizeof(uint64_t), std::memory_order_relaxed);
    recycled_chunks_.fetch_add(1, std::memory_order_relaxed);
    return block;
  }
  uint64_t* block = CarveFresh(elems * sizeof(uint64_t));
  fresh_chunks_.fetch_add(1, std::memory_order_relaxed);
  return block;
}

void ChunkPool::Free(uint64_t* data, size_t elems) {
  frees_.fetch_add(1, std::memory_order_relaxed);
  const int k = SizeClass(elems);
  if (k < 0) {
    size_t bytes = (elems * sizeof(uint64_t) + kCacheLineBytes - 1) &
                   ~(kCacheLineBytes - 1);
    std::free(data);
    MemoryBudget::Global().Release(bytes);
    return;
  }
  // Cached and sharded blocks both count as idle inventory; the counter is
  // decremented only when Allocate hands a recycled block back out.
  free_bytes_.fetch_add(elems * sizeof(uint64_t), std::memory_order_relaxed);
  std::vector<uint64_t*>& local = Cache().blocks[k];
  local.push_back(data);
  if (local.size() > kMaxCachedPerClass) {
    Shard& shard = ShardForThisThread();
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<uint64_t*>& list = shard.free_lists[k];
    while (local.size() > kMaxCachedPerClass / 2) {
      list.push_back(local.back());
      local.pop_back();
    }
  }
}

ChunkPool::Stats ChunkPool::GetStats() const {
  Stats s;
  s.fresh_chunks = fresh_chunks_.load(std::memory_order_relaxed);
  s.recycled_chunks = recycled_chunks_.load(std::memory_order_relaxed);
  s.slabs_allocated = slabs_allocated_.load(std::memory_order_relaxed);
  s.oversize_chunks = oversize_chunks_.load(std::memory_order_relaxed);
  s.frees = frees_.load(std::memory_order_relaxed);
  return s;
}

void ChunkPool::FlushThreadCache() { FlushCache(&Cache()); }

void ChunkPool::FlushCache(ThreadCache* cache) {
  Shard& shard = shards_[cache->shard];
  std::lock_guard<std::mutex> lock(shard.mutex);
  for (int k = 0; k < kNumClasses; ++k) {
    std::vector<uint64_t*>& local = cache->blocks[k];
    std::vector<uint64_t*>& list = shard.free_lists[k];
    list.insert(list.end(), local.begin(), local.end());
    local.clear();
  }
}

}  // namespace cea
