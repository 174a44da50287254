// Software write-combining buffer (Section 4.2).
//
// Radix partitioning writes to kFanOut (256) output streams at once; naive
// stores thrash the TLB and pay a read-for-ownership per line. The SWC
// buffer keeps exactly one cache line per partition in (L1-resident) local
// memory and flushes full lines into the destination ChunkedArray with a
// non-temporal store. The buffer footprint is 256 x 64 B = 16 KiB per
// column stream, small enough to stay cached while processing.

#ifndef CEA_MEM_SWC_BUFFER_H_
#define CEA_MEM_SWC_BUFFER_H_

#include <array>
#include <cstdint>
#include <memory>

#include "cea/common/check.h"
#include "cea/common/machine.h"
#include "cea/hash/radix.h"
#include "cea/mem/chunked_array.h"

namespace cea {

class SwcWriter {
 public:
  SwcWriter() : lines_(new Line[kFanOut]) {
    counts_.fill(0);
    dests_.fill(nullptr);
  }

  SwcWriter(const SwcWriter&) = delete;
  SwcWriter& operator=(const SwcWriter&) = delete;

  // Binds partition p to its destination array. Contract: every partition
  // that will receive appends must be bound first — Append on an unbound
  // partition is undefined (it dereferences the destination when a line
  // fills). Rebinding requires a Flush first so no buffered values leak
  // into the new destination.
  void SetDest(uint32_t p, ChunkedArray* dest) {
    CEA_DCHECK(p < kFanOut);
    CEA_DCHECK(counts_[p] == 0);
    dests_[p] = dest;
  }

  // Buffers v for partition p; flushes a full line with a streaming store.
  // The bind invariant (SetDest before the first Append) is checked here
  // in debug builds — in release an unbound partition would segfault only
  // when its line fills, far from the missing SetDest.
  void Append(uint32_t p, uint64_t v) {
    CEA_DCHECK(p < kFanOut);
    CEA_DCHECK(dests_[p] != nullptr);
    uint8_t c = counts_[p];
    lines_[p].v[c] = v;
    if (++c == ChunkedArray::kLineElems) {
      dests_[p]->AppendLine(lines_[p].v);
      c = 0;
    }
    counts_[p] = c;
  }

  // Drops all buffered values and destination bindings without writing
  // anything. Only for error recovery: after an aborted pass the partial
  // lines are garbage and the dests point into freed runs.
  void Reset() {
    counts_.fill(0);
    dests_.fill(nullptr);
  }

  // Drains all partial lines with scalar appends and publishes the
  // streaming stores. Call once at the end of a partitioning pass.
  void Flush() {
    for (uint32_t p = 0; p < kFanOut; ++p) {
      if (counts_[p] != 0) {
        dests_[p]->AppendBulk(lines_[p].v, counts_[p]);
        counts_[p] = 0;
      }
    }
    StreamFence();
  }

 private:
  // Line flushes go through StreamStoreLine, which moves exactly one
  // cache line per call; the buffer line must be that line, no more and
  // no less.
  struct alignas(kCacheLineBytes) Line {
    uint64_t v[ChunkedArray::kLineElems];
  };
  static_assert(sizeof(Line) == kCacheLineBytes,
                "SWC lines must be exactly one cache line");

  std::unique_ptr<Line[]> lines_;
  std::array<uint8_t, kFanOut> counts_;
  std::array<ChunkedArray*, kFanOut> dests_;
};

}  // namespace cea

#endif  // CEA_MEM_SWC_BUFFER_H_
