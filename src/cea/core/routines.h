// The two run-producing routines of the framework (Algorithm 1) and the
// per-worker context that executes them with seamless switching.
//
// A *pass* processes all runs of one bucket at one radix level. The pass
// input is cut into morsels (one per source chunk); workers claim morsels
// from a shared atomic cursor — this is the work-stealing parallelization
// of the main loop (Section 3.2). Each worker owns a PassContext holding
// its private hash table, SWC buffers and output run set; nothing on the
// processing path is shared between threads.
//
// HASHING inserts rows into the cache-sized blocked table, aggregating
// early; a full table is split into one (distinct) run per partition.
// PARTITIONING moves rows to per-partition runs via software
// write-combining, producing a per-morsel mapping vector that the
// aggregate columns replay in tight per-column loops (Section 3.3).
// The Policy decides which routine handles the next stretch of rows; the
// switch happens between segments and never discards completed work.

#ifndef CEA_CORE_ROUTINES_H_
#define CEA_CORE_ROUTINES_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cea/columnar/aggregate_function.h"
#include "cea/core/policy.h"
#include "cea/core/run.h"
#include "cea/exec/cancellation.h"
#include "cea/hash/radix.h"
#include "cea/mem/swc_buffer.h"
#include "cea/obs/perf_counters.h"
#include "cea/table/blocked_hash_table.h"

namespace cea {

class SpillManager;

// One contiguous stretch of pass input. `key_cols` holds one pointer per
// grouping key word. For raw (level-0) input, `cols` holds one pointer
// per aggregate spec — the caller's input column, or nullptr for
// COUNT(*). For run input, `cols` holds one pointer per aggregate state
// word.
struct Morsel {
  std::vector<const uint64_t*> key_cols;
  size_t n = 0;
  bool raw = false;
  std::vector<const uint64_t*> cols;
};

// The ExecStats counter schema, one row per scalar counter, from which the
// struct, Merge, ExecStatsToJson and the runtime profile are generated:
//   X(field = JSON key, type, merge rule, profile section, name, unit)
// The merge rule (kSum or kMax) also governs the profile counter; section
// "" (never a profile child) keeps a counter out of the profile. Adding a counter is one row here
// plus the line that increments it. The chunk/peak and spill rows are
// set per execution by the operator (ChunkPool/MemoryBudget deltas,
// SpillManager totals).
#define CEA_EXEC_STATS_COUNTERS(X)                                         \
  X(rows_hashed, uint64_t, kSum, "", "", kRows)                            \
  X(rows_partitioned, uint64_t, kSum, "", "", kRows)                       \
  X(max_level, int, kMax, "", "", kNone)                                   \
  X(sum_alpha, double, kSum, "", "", kNone)                                \
  X(num_alpha, uint64_t, kSum, "strategy", "alpha_samples", kNone)         \
  X(switches_to_partition, uint64_t, kSum, "strategy",                     \
    "switches_to_partition", kNone)                                        \
  X(switches_to_hash, uint64_t, kSum, "strategy", "switches_to_hash", kNone) \
  X(final_hash_passes, uint64_t, kSum, "strategy", "final_hash_passes",    \
    kNone)                                                                 \
  X(distinct_shortcut_runs, uint64_t, kSum, "strategy",                    \
    "distinct_shortcut_runs", kNone)                                       \
  X(fallback_buckets, uint64_t, kSum, "strategy", "fallback_buckets", kNone) \
  X(passes, uint64_t, kSum, "passes", "passes", kNone)                     \
  X(morsels, uint64_t, kSum, "passes", "morsels", kNone)                   \
  X(tables_flushed, uint64_t, kSum, "passes", "tables_flushed", kNone)     \
  X(mem_peak_bytes, uint64_t, kMax, "memory", "peak_bytes", kBytes)        \
  X(chunks_allocated, uint64_t, kSum, "memory", "chunks_fresh", kNone)     \
  X(chunks_recycled, uint64_t, kSum, "memory", "chunks_recycled", kNone)   \
  X(spilled_bytes, uint64_t, kSum, "spill", "spilled_bytes", kBytes)       \
  X(spill_read_bytes, uint64_t, kSum, "spill", "read_bytes", kBytes)       \
  X(spill_files, uint64_t, kSum, "spill", "files", kNone)

// The per-radix-level arrays (summed on merge), rendered as the JSON
// "levels" entries and the profile's passes/level_N nodes:
//   X(field, type, JSON key, profile name, profile unit, profile scale)
#define CEA_EXEC_STATS_LEVEL_COUNTERS(X)                                   \
  X(passes_at_level, uint64_t, "passes", "passes", kNone, 1)               \
  X(rows_hashed_at_level, uint64_t, "rows_hashed", "rows_hashed", kRows, 1) \
  X(rows_partitioned_at_level, uint64_t, "rows_partitioned",               \
    "rows_partitioned", kRows, 1)                                          \
  X(seconds_at_level, double, "seconds", "cpu_time", kNanos, 1e9)

// Execution telemetry, kept per worker and merged by the operator. The
// per-level breakdowns drive the Figure 4/5 pass-breakdown benches; the
// alpha statistics drive Figure 10.
struct ExecStats {
#define CEA_EXEC_STATS_FIELD(field, type, ...) type field = 0;
#define CEA_EXEC_STATS_LEVEL_FIELD(field, type, ...) \
  std::array<type, kMaxRadixLevel + 1> field{};
  CEA_EXEC_STATS_COUNTERS(CEA_EXEC_STATS_FIELD)
  CEA_EXEC_STATS_LEVEL_COUNTERS(CEA_EXEC_STATS_LEVEL_FIELD)
#undef CEA_EXEC_STATS_FIELD
#undef CEA_EXEC_STATS_LEVEL_FIELD

  void Merge(const ExecStats& other);
  double mean_alpha() const {
    return num_alpha == 0 ? 0.0 : sum_alpha / static_cast<double>(num_alpha);
  }
};

// Reusable per-worker heavy state (hash table, staging buffers, SWC
// writers). A worker processes at most one pass at a time, so one
// WorkerResources instance per worker serves all passes.
class WorkerResources {
 public:
  WorkerResources(int key_words, const StateLayout& layout,
                  size_t table_bytes, size_t max_morsel_rows,
                  double table_max_fill = 0.25);
  WorkerResources(const StateLayout& layout, size_t table_bytes,
                  size_t max_morsel_rows)
      : WorkerResources(1, layout, table_bytes, max_morsel_rows) {}

  WorkerResources(const WorkerResources&) = delete;
  WorkerResources& operator=(const WorkerResources&) = delete;

  BlockedOpenHashTable& table() { return table_; }
  uint32_t* slots() { return slots_.data(); }
  uint8_t* dests() { return dests_.data(); }
  SwcWriter& key_writer(int word) { return *key_writers_[word]; }
  SwcWriter& state_writer(int word) { return *state_writers_[word]; }
  size_t max_morsel_rows() const { return slots_.size(); }
  int key_words() const { return key_words_; }

  // Hardware counters of this worker slot; intervals are opened around
  // each pass by the operator when an ObsContext is attached and stay
  // dormant (no perf fds) otherwise.
  obs::WorkerCounters& counters() { return counters_; }

  // Restores the invariants PassContext's constructor relies on after an
  // aborted pass (error-propagation path): buffered SWC lines are garbage
  // and their destinations point into freed runs, so drop both and empty
  // the table. Never called on the hot path.
  void ResetForRecovery() {
    table_.Clear();
    for (auto& w : key_writers_) w->Reset();
    for (auto& w : state_writers_) w->Reset();
  }

 private:
  int key_words_;
  BlockedOpenHashTable table_;
  std::vector<uint32_t> slots_;  // hashing mapping vector (slot per row)
  std::vector<uint8_t> dests_;   // partitioning mapping vector (digit per row)
  std::vector<std::unique_ptr<SwcWriter>> key_writers_;
  std::vector<std::unique_ptr<SwcWriter>> state_writers_;
  obs::WorkerCounters counters_;
};

// Per-(worker, pass) execution state.
class PassContext {
 public:
  // key width is taken from `resources` (which owns the table).
  // `control`, when non-null, is polled at morsel entry and at table-flush
  // boundaries; a fired token unwinds the pass by throwing StatusError
  // (cea/exec/cancellation.h), which the scheduler converts back into a
  // typed Status.
  // `spill`, when non-null, is consulted at the same morsel/flush
  // boundaries: under memory pressure completed partition runs are written
  // to the pass's spill streams (keyed by `pass_id`) and their chunks
  // returned to the pool.
  PassContext(const StateLayout& layout, const Policy& policy,
              WorkerResources* resources, int level, ExecStats* stats,
              const QueryControl* control = nullptr,
              SpillManager* spill = nullptr, uint64_t pass_id = 0);

  // Processes one morsel with the current mode, switching routines at
  // table-flush / quota boundaries as the policy dictates. Throws
  // StatusError when the attached QueryControl fired (cooperative
  // cancellation at morsel/flush granularity, never per row).
  void ProcessMorsel(const Morsel& morsel);

  // Called once when the worker can claim no more morsels. If this worker
  // alone processed the entire pass (`rows_processed() == pass_total_rows`)
  // with pure, never-flushed hashing, the table holds the bucket's final
  // aggregate: it is emitted as one distinct run into *final_run and the
  // function returns true. Otherwise leftovers are split/flushed into
  // runs() and false is returned.
  bool Finalize(size_t pass_total_rows, Run* final_run);

  std::array<Run, kFanOut>& runs() { return runs_; }
  size_t rows_processed() const { return rows_processed_; }
  Mode mode() const { return mode_; }

 private:
  // Inserts rows [from, from+n) of the morsel's keys into the table,
  // recording slots into the mapping buffer at absolute positions
  // [from, from+*consumed). Returns true if the table filled up (then
  // *consumed < n).
  bool InsertKeys(const Morsel& m, size_t from, size_t n, size_t* consumed);

  void ApplyValuesHash(const Morsel& m, size_t from, size_t len);
  void PartitionRange(const Morsel& m, size_t from, size_t to);
  void SplitTable();
  // Under budget pressure, flushes the SWC writers and spills every run
  // that accumulated at least kMinSpillRunRows to this pass's streams.
  void MaybeSpill();

  const StateLayout& layout_;
  const Policy& policy_;
  WorkerResources& res_;
  int level_;
  ExecStats* stats_;
  const QueryControl* control_;
  SpillManager* spill_;
  uint64_t pass_id_;

  std::array<Run, kFanOut> runs_;
  std::array<uint32_t, kFanOut> split_touches_{};  // splits that hit partition p
  bool partitioned_any_ = false;

  Mode mode_;
  uint64_t partition_budget_ = 0;
  uint64_t table_rows_in_ = 0;   // rows inserted since last Clear
  uint64_t rows_processed_ = 0;
  uint32_t flushes_ = 0;

  // Test access to the private routine entry points (InsertKeys contracts
  // are covered directly in routines_test).
  friend struct PassContextTestPeer;
};

// Exact-key aggregation of a morsel sequence with a growable table. Used
// for max-depth fallback buckets and PartitionAlways' final pass. Appends
// the aggregate as one distinct run. `control`, when non-null, is polled
// between morsels (throws StatusError once it fired).
void AggregateExact(const std::vector<Morsel>& morsels, int key_words,
                    const StateLayout& layout, size_t expected_groups,
                    Run* final_run, const QueryControl* control = nullptr);

// Builds the morsel list of a bucket (one morsel per key chunk, with the
// state chunks attached). The bucket must stay alive while morsels are
// used.
std::vector<Morsel> MorselsForBucket(const Bucket& bucket, int key_words,
                                     const StateLayout& layout);

}  // namespace cea

#endif  // CEA_CORE_ROUTINES_H_
