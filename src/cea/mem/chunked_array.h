// ChunkedArray: the two-level run storage of Section 4.2.
//
// Radix partitioning does not know the final size of each partition before
// processing. Wassenberg et al. over-allocate every partition with virtual
// memory tricks; the paper instead uses a two-level data structure — a list
// of arrays — which composes with the memory management of a database
// system and costs ~2% bandwidth (Figure 3, "two-level" bar). ChunkedArray
// is that structure: appends go to the tail chunk, a new chunk is linked
// when the tail is full. Chunks are 64-byte aligned so software
// write-combining can flush whole cache lines into them with non-temporal
// stores.
//
// Chunk capacities grow geometrically from kMinChunkElems to
// kMaxChunkElems, so the many small runs produced at deep recursion levels
// do not waste memory while large runs amortize chunk management.
//
// Chunk memory is drawn from the process-wide ChunkPool (chunk_pool.h):
// the geometric schedule maps onto the pool's size classes, so the chunks
// a completed pass releases are recycled by the next pass instead of
// round-tripping through the allocator, and allocation failure surfaces
// as MemoryBudgetExceeded rather than a CHECK abort.

#ifndef CEA_MEM_CHUNKED_ARRAY_H_
#define CEA_MEM_CHUNKED_ARRAY_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "cea/common/check.h"
#include "cea/common/machine.h"
#include "cea/mem/stream_store.h"

namespace cea {

class ChunkedArray {
 public:
  static constexpr size_t kMinChunkElems = 512;    // 4 KiB
  static constexpr size_t kMaxChunkElems = 8192;   // 64 KiB
  static constexpr size_t kLineElems = kCacheLineBytes / sizeof(uint64_t);

  ChunkedArray() = default;
  ~ChunkedArray();

  ChunkedArray(ChunkedArray&& other) noexcept;
  ChunkedArray& operator=(ChunkedArray&& other) noexcept;
  ChunkedArray(const ChunkedArray&) = delete;
  ChunkedArray& operator=(const ChunkedArray&) = delete;

  // Appends a single element.
  void Append(uint64_t v) {
    if (tail_left_ == 0) AddChunk(1);
    *tail_++ = v;
    --tail_left_;
    ++size_;
  }

  // Appends n elements from src.
  void AppendBulk(const uint64_t* src, size_t n);

  // Appends one cache line (kLineElems elements). Uses a non-temporal store
  // when the tail is line-aligned (the common case when a partition is fed
  // exclusively through a write-combining buffer); falls back to a normal
  // copy otherwise, so line and scalar appends may be freely mixed.
  void AppendLine(const uint64_t* line) {
    if (tail_left_ < kLineElems) {
      AppendBulk(line, kLineElems);
      return;
    }
    if ((reinterpret_cast<uintptr_t>(tail_) & (kCacheLineBytes - 1)) == 0) {
      StreamStoreLine(tail_, line);
    } else {
      std::memcpy(tail_, line, kCacheLineBytes);
    }
    tail_ += kLineElems;
    tail_left_ -= kLineElems;
    size_ += kLineElems;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Random access; O(#chunks) — for tests and small fix-ups only.
  uint64_t At(size_t i) const;

  // Invokes f(const uint64_t* data, size_t n) for every non-empty chunk in
  // order. This is how the routines stream over runs.
  template <typename F>
  void ForEachChunk(F&& f) const {
    for (const Chunk& c : chunks_) {
      size_t used = ChunkUsed(c);
      if (used != 0) f(c.data, used);
    }
  }

  // Copies all elements into dst (must have room for size()).
  void CopyTo(uint64_t* dst) const;

  // Returns all elements as a vector (convenience for tests).
  std::vector<uint64_t> ToVector() const;

  // Releases all chunks.
  void Clear();

  // Total bytes of chunk memory owned (capacity, not size).
  size_t allocated_bytes() const { return allocated_bytes_; }

 private:
  struct Chunk {
    uint64_t* data;
    size_t capacity;
  };

  size_t ChunkUsed(const Chunk& c) const {
    // All chunks but the tail are full; the tail's fill is derived from the
    // write cursor.
    if (!chunks_.empty() && c.data == chunks_.back().data) {
      return static_cast<size_t>(tail_ - c.data);
    }
    return c.capacity;
  }

  void AddChunk(size_t min_capacity);

  std::vector<Chunk> chunks_;
  uint64_t* tail_ = nullptr;   // next write position in the tail chunk
  size_t tail_left_ = 0;       // remaining capacity in the tail chunk
  size_t size_ = 0;
  size_t allocated_bytes_ = 0;
};

}  // namespace cea

#endif  // CEA_MEM_CHUNKED_ARRAY_H_
