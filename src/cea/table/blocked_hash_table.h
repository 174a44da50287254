// BlockedOpenHashTable: the cache-resident hash table of the HASHING
// routine (Sections 3.1 and 4.1).
//
// A single-level table with linear probing, fixed to (a per-thread share
// of) the L3 cache and considered full at a 25% fill rate, so collisions
// are rare and no CPU cycles are lost on collision chains. Probing is
// confined to *blocks*: the table is organized as kFanOut (256) blocks,
// where a key's block is its radix digit at the current recursion level.
// A full table can therefore be split into one run per radix partition by
// a purely logical operation — each partition's groups occupy a contiguous
// slot range ("hashing is sorting by hash value").
//
// Layout is columnar: one array per grouping key word plus one array per
// aggregate state word, so splitting and value application stream over
// dense arrays. Occupancy is a bitmap: Clear() touches capacity/8 bytes
// and the split scans skip empty 64-slot words, which keeps per-bucket
// costs low when a deep recursion level processes many small buckets
// against a large table.

#ifndef CEA_TABLE_BLOCKED_HASH_TABLE_H_
#define CEA_TABLE_BLOCKED_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "cea/columnar/aggregate_function.h"
#include "cea/common/bits.h"
#include "cea/common/check.h"
#include "cea/hash/key_hash.h"
#include "cea/hash/radix.h"

namespace cea {

class ChunkedArray;

class BlockedOpenHashTable {
 public:
  // Sentinel slot value returned when the table must be flushed.
  static constexpr uint32_t kFull = 0xffffffffu;

  // Sizes the table for `budget_bytes` of cache, given the key width and
  // aggregate state layout. Capacity is the largest power of two whose
  // key+state+bitmap footprint fits, but at least 2 * kFanOut slots.
  BlockedOpenHashTable(size_t budget_bytes, int key_words,
                       const StateLayout& layout, double max_fill = 0.25);

  // Single-key convenience used by baselines and tests.
  BlockedOpenHashTable(size_t budget_bytes, const StateLayout& layout,
                       double max_fill = 0.25)
      : BlockedOpenHashTable(budget_bytes, 1, layout, max_fill) {}

  BlockedOpenHashTable(const BlockedOpenHashTable&) = delete;
  BlockedOpenHashTable& operator=(const BlockedOpenHashTable&) = delete;

  // Finds or claims the slot for the key whose `key_words()` words are
  // gathered at `key`, with hash `hash`, at radix `level`. Newly claimed
  // slots have their state words set to the function identities. Returns
  // kFull when the fill cap is reached or the key's block overflows; the
  // caller must Split()+Clear() and retry.
  uint32_t FindOrInsert(const uint64_t* key, uint64_t hash, int level) {
    uint32_t block = RadixDigit(hash, level);
    uint32_t base = block << block_bits_;
    uint32_t mask = (1u << block_bits_) - 1;
    uint32_t i = static_cast<uint32_t>(hash) & mask;
    uint32_t start = i;
    do {
      uint32_t slot = base + i;
      if (!TestOccupied(slot)) {
        if (fill_ >= max_fill_slots_) return kFull;
        SetOccupied(slot);
        StoreKey(slot, key);
        InitSlotState(slot);
        ++fill_;
        return slot;
      }
      if (KeyAtSlotEquals(slot, key)) return slot;
      i = (i + 1) & mask;
    } while (i != start);
    return kFull;  // block overflow (only with extreme fill or tiny blocks)
  }

  // Single-word-key fast path: a dedicated probe loop without the
  // multi-word compare/copy helpers.
  uint32_t FindOrInsert(uint64_t key, uint64_t hash, int level) {
    CEA_DCHECK(key_words_ == 1);
    uint32_t block = RadixDigit(hash, level);
    uint32_t base = block << block_bits_;
    uint32_t mask = (1u << block_bits_) - 1;
    uint32_t i = static_cast<uint32_t>(hash) & mask;
    uint32_t start = i;
    do {
      uint32_t slot = base + i;
      if (!TestOccupied(slot)) {
        if (fill_ >= max_fill_slots_) return kFull;
        SetOccupied(slot);
        keys_[slot] = key;
        InitSlotState(slot);
        ++fill_;
        return slot;
      }
      if (keys_[slot] == key) return slot;
      i = (i + 1) & mask;
    } while (i != start);
    return kFull;
  }

  // Appends every occupied slot of radix block `b` as one row of
  // `key_cols`/`states` and returns the number of rows emitted. Used by
  // Split in the HASHING routine and by tests.
  size_t EmitBlock(uint32_t b, std::vector<ChunkedArray>* key_cols,
                   std::vector<ChunkedArray>* states) const;

  // Resets the table to empty (bitmap only; O(capacity / 8) bytes).
  void Clear();

  bool TestOccupied(uint32_t slot) const {
    return (occupied_[slot >> 6] >> (slot & 63)) & 1;
  }

  // Accessors -----------------------------------------------------------
  uint32_t capacity() const { return capacity_; }
  uint32_t block_capacity() const { return 1u << block_bits_; }
  uint32_t fill() const { return fill_; }
  uint32_t max_fill_slots() const { return max_fill_slots_; }
  bool empty() const { return fill_ == 0; }
  int key_words() const { return key_words_; }

  const uint64_t* key_array(int word = 0) const {
    return keys_.data() + static_cast<size_t>(word) * capacity_;
  }
  uint64_t* state_array(int word) {
    return states_.data() + static_cast<size_t>(word) * capacity_;
  }
  const uint64_t* state_array(int word) const {
    return states_.data() + static_cast<size_t>(word) * capacity_;
  }

 private:
  void SetOccupied(uint32_t slot) {
    occupied_[slot >> 6] |= uint64_t{1} << (slot & 63);
  }

  bool KeyAtSlotEquals(uint32_t slot, const uint64_t* key) const {
    if (keys_[slot] != key[0]) return false;
    for (int w = 1; w < key_words_; ++w) {
      if (keys_[static_cast<size_t>(w) * capacity_ + slot] != key[w]) {
        return false;
      }
    }
    return true;
  }

  void StoreKey(uint32_t slot, const uint64_t* key) {
    keys_[slot] = key[0];
    for (int w = 1; w < key_words_; ++w) {
      keys_[static_cast<size_t>(w) * capacity_ + slot] = key[w];
    }
  }

  void InitSlotState(uint32_t slot) {
    for (int w = 0; w < layout_words_; ++w) {
      states_[static_cast<size_t>(w) * capacity_ + slot] = identities_[w];
    }
  }

  uint32_t capacity_ = 0;
  int block_bits_ = 0;  // log2(slots per block)
  uint32_t fill_ = 0;
  uint32_t max_fill_slots_ = 0;
  int key_words_ = 1;
  int layout_words_ = 0;

  std::vector<uint64_t> keys_;      // [key word][capacity]
  std::vector<uint64_t> states_;    // [state word][capacity]
  std::vector<uint64_t> occupied_;  // bitmap, capacity/64 words
  std::vector<uint64_t> identities_;  // per state word
};

}  // namespace cea

#endif  // CEA_TABLE_BLOCKED_HASH_TABLE_H_
