// Section 4.1 micro-benchmark: insertion cost of the cache-resident blocked
// hash table. The paper reports < 6 ns per in-cache insertion — roughly 4x
// an L1 access and an order of magnitude cheaper than an out-of-cache
// insertion, which is what makes the external-memory analysis meaningful.
//
// Usage: sec41_hash_table_microbench [--log_n=23] [--reps=3]
//        [--json[=PATH]]

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "cea/columnar/aggregate_function.h"
#include "cea/common/machine.h"
#include "cea/common/random.h"
#include "cea/hash/murmur.h"
#include "cea/table/blocked_hash_table.h"
#include "cea/table/growable_hash_table.h"

int main(int argc, char** argv) {
  cea::bench::Flags flags(argc, argv);
  const size_t n = size_t{1} << flags.GetUint("log_n", 23);
  const int reps = static_cast<int>(flags.GetUint("reps", 3));
  cea::MachineInfo machine = cea::DetectMachine();
  const size_t table_bytes =
      flags.GetUint("table_bytes", machine.l3_bytes_per_thread);

  cea::StateLayout layout(std::vector<cea::AggregateSpec>{});
  cea::BlockedOpenHashTable table(table_bytes, layout);
  cea::bench::BenchReporter reporter("sec41_hash_table_microbench", flags);

  if (!reporter.enabled()) {
    std::printf("# Section 4.1: hash table insertion cost "
                "(table %.1f MiB, %u slots, fill cap %u)\n",
                table_bytes / 1048576.0, table.capacity(),
                table.max_fill_slots());
    std::printf("%-28s %12s\n", "scenario", "ns/insert");
  }

  auto emit = [&](const char* scenario, uint64_t k_groups, size_t inserts,
                  const cea::bench::TimingStats& timing) {
    if (reporter.enabled()) {
      cea::bench::BenchRecord r;
      r.Param("scenario", scenario)
          .Param("k_groups", k_groups)
          .Param("log_n", flags.GetUint("log_n", 23))
          .Param("table_bytes", uint64_t{table_bytes});
      r.Metric("ns_per_insert", timing.median_s / inserts * 1e9);
      r.Timing(timing);
      reporter.Emit(r);
    } else {
      char label[64];
      std::snprintf(label, sizeof(label), "%s, K=%llu", scenario,
                    (unsigned long long)k_groups);
      std::printf("%-28s %12.2f\n", label, timing.median_s / inserts * 1e9);
    }
  };

  cea::Rng rng(1);
  std::vector<uint64_t> keys(n);

  // In-cache: few groups, hot table — the HASHING fast path.
  for (uint64_t k_groups : {uint64_t{64}, uint64_t{1} << 10,
                            uint64_t{table.max_fill_slots() / 4}}) {
    for (auto& k : keys) k = rng.NextBounded(k_groups);
    cea::bench::TimingStats t = cea::bench::MeasureSeconds(reps, [&] {
      table.Clear();
      for (size_t i = 0; i < n; ++i) {
        uint32_t s = table.FindOrInsert(keys[i], cea::MurmurHash64(keys[i]), 0);
        cea::bench::DoNotOptimize(s);
      }
    });
    emit("in-cache", k_groups, n, t);
  }

  // Out-of-cache: a growable exact table much larger than L3 — every
  // insert misses. This is what recursive partitioning avoids.
  {
    const size_t big_n = n / 2;
    for (size_t i = 0; i < big_n; ++i) keys[i] = rng.Next();
    cea::bench::TimingStats t = cea::bench::MeasureSeconds(reps, [&] {
      cea::GrowableHashTable big(layout, big_n);
      for (size_t i = 0; i < big_n; ++i) {
        cea::bench::DoNotOptimize(big.FindOrInsert(keys[i]));
      }
    });
    emit("out-of-cache", big_n, big_n, t);
  }
  return 0;
}
