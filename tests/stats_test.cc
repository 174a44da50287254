// Tests of the execution telemetry and of the adaptive behavior the
// telemetry exposes (the mechanics behind Figures 4, 5, 9 and 11).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cea/common/random.h"
#include "cea/datagen/generators.h"
#include "test_util.h"

namespace cea {
namespace {

ExecStats RunWith(const std::vector<uint64_t>& keys,
                  AggregationOptions options) {
  AggregationOperator op({{AggFn::kCount, -1}}, options);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ResultTable result;
  ExecStats stats;
  Status s = op.Execute(input, &result, &stats);
  EXPECT_TRUE(s.ok());
  return stats;
}

std::vector<uint64_t> UniformKeys(uint64_t n, uint64_t k, uint64_t seed = 1) {
  GenParams gp;
  gp.n = n;
  gp.k = k;
  gp.seed = seed;
  return GenerateKeys(gp);
}

TEST(Stats, PerLevelBreakdownSumsToTotals) {
  ExecStats s = RunWith(UniformKeys(120000, 40000), TinyCacheOptions(2));
  uint64_t hashed = 0, partitioned = 0;
  for (size_t l = 0; l < s.rows_hashed_at_level.size(); ++l) {
    hashed += s.rows_hashed_at_level[l];
    partitioned += s.rows_partitioned_at_level[l];
  }
  EXPECT_EQ(hashed, s.rows_hashed);
  EXPECT_EQ(partitioned, s.rows_partitioned);
  // Every input row is processed at least once.
  EXPECT_GE(s.rows_hashed + s.rows_partitioned, 120000u);
}

TEST(Stats, HashingOnlyNeverPartitions) {
  AggregationOptions o = TinyCacheOptions(2);
  o.policy = AggregationOptions::PolicyKind::kHashingOnly;
  ExecStats s = RunWith(UniformKeys(100000, 30000), o);
  EXPECT_EQ(s.rows_partitioned, 0u);
  EXPECT_EQ(s.switches_to_partition, 0u);
  EXPECT_GT(s.tables_flushed, 0u);
}

TEST(Stats, PartitionAlwaysPartitionsEveryRowAtLevel0) {
  AggregationOptions o = TinyCacheOptions(2);
  o.policy = AggregationOptions::PolicyKind::kPartitionAlways;
  o.partition_passes = 2;
  ExecStats s = RunWith(UniformKeys(100000, 30000), o);
  EXPECT_EQ(s.rows_partitioned_at_level[0], 100000u);
  EXPECT_EQ(s.rows_hashed_at_level[0], 0u);
  // The final pass hashes everything once.
  EXPECT_EQ(s.rows_hashed_at_level[1], 100000u);
}

TEST(Stats, AdaptiveSwitchesOnUniformLargeK) {
  ExecStats s = RunWith(UniformKeys(150000, 150000), TinyCacheOptions(1));
  EXPECT_GE(s.switches_to_partition, 1u);
  EXPECT_GT(s.rows_partitioned, 0u);
  // Uniform all-distinct input: reduction factor near 1.
  EXPECT_LT(s.mean_alpha(), 3.0);
}

TEST(Stats, AdaptiveStaysHashingOnSmallK) {
  AggregationOptions o;
  o.num_threads = 1;
  o.table_bytes = 4 << 20;
  ExecStats s = RunWith(UniformKeys(100000, 64), o);
  EXPECT_EQ(s.switches_to_partition, 0u);
  EXPECT_EQ(s.tables_flushed, 0u);
  EXPECT_EQ(s.passes, 1u);
  EXPECT_GE(s.final_hash_passes, 1u);
}

TEST(Stats, AdaptiveExploitsClusteredLocality) {
  // moving-cluster with a small window: high locality, so hashing keeps
  // reducing the input and partitioning stays rare even for large K.
  GenParams gp;
  gp.n = 200000;
  gp.k = 10000;  // ~20 repetitions per key, all within the sliding window
  gp.dist = Distribution::kMovingCluster;
  gp.cluster_window = 256;
  std::vector<uint64_t> clustered = GenerateKeys(gp);
  AggregationOptions o = TinyCacheOptions(1, /*table_bytes=*/1 << 17);
  ExecStats s = RunWith(clustered, o);
  // Locality: most rows are absorbed by hashing.
  EXPECT_GT(s.rows_hashed, s.rows_partitioned);
  EXPECT_GT(s.mean_alpha(), 3.0);
}

TEST(Stats, AdaptiveReactsToDistributionChange) {
  // First half: one hot key (alpha huge). Second half: all distinct
  // (alpha ~ 1). With c small the operator must switch at least twice.
  std::vector<uint64_t> keys(100000, 7);
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) keys.push_back(rng.Next() | 1);
  AggregationOptions o = TinyCacheOptions(1, /*table_bytes=*/1 << 16);
  o.c = 2;
  ExecStats s = RunWith(keys, o);
  EXPECT_GE(s.switches_to_partition, 1u);
  EXPECT_GE(s.switches_to_hash, 1u);
  EXPECT_GT(s.rows_hashed, 0u);
  EXPECT_GT(s.rows_partitioned, 0u);
}

TEST(Stats, LargerCMeansFewerSwitchbacks) {
  std::vector<uint64_t> keys = UniformKeys(200000, 200000, 9);
  AggregationOptions lo = TinyCacheOptions(1);
  lo.c = 1;
  AggregationOptions hi = TinyCacheOptions(1);
  hi.c = 50;
  ExecStats s_lo = RunWith(keys, lo);
  ExecStats s_hi = RunWith(keys, hi);
  EXPECT_GT(s_lo.switches_to_hash, s_hi.switches_to_hash);
}

TEST(Stats, SecondsPerLevelArePopulated) {
  ExecStats s = RunWith(UniformKeys(100000, 50000), TinyCacheOptions(2));
  double total = 0;
  for (double sec : s.seconds_at_level) total += sec;
  EXPECT_GT(total, 0.0);
}

TEST(Stats, MaxLevelGrowsWithK) {
  AggregationOptions o = TinyCacheOptions(1, /*table_bytes=*/1 << 14);
  ExecStats small = RunWith(UniformKeys(50000, 16), o);
  ExecStats large = RunWith(UniformKeys(50000, 50000), o);
  EXPECT_EQ(small.max_level, 0);
  EXPECT_GE(large.max_level, 1);
}

TEST(Stats, MergeAccumulates) {
  ExecStats a, b;
  a.rows_hashed = 10;
  a.max_level = 2;
  a.sum_alpha = 5;
  a.num_alpha = 1;
  b.rows_hashed = 20;
  b.max_level = 1;
  b.sum_alpha = 7;
  b.num_alpha = 1;
  a.Merge(b);
  EXPECT_EQ(a.rows_hashed, 30u);
  EXPECT_EQ(a.max_level, 2);
  EXPECT_DOUBLE_EQ(a.mean_alpha(), 6.0);
}

TEST(Stats, EmptyStatsMeanAlphaIsZero) {
  ExecStats s;
  EXPECT_EQ(s.mean_alpha(), 0.0);
}

// Populate EVERY field of two ExecStats with distinct non-zero values and
// verify the merge: every counter sums, except the memory peak and the
// deepest level, which take the max. The fields come from the counter
// table in routines.h, so a new row is covered here without an edit; its
// rule is checked against this test's own list of max fields.
TEST(Stats, MergeAccumulatesEveryField) {
  auto fill = [](uint64_t v) {
    ExecStats s;
#define FILL_FIELD(field, type, ...) s.field = static_cast<type>(++v);
#define FILL_LEVEL(field, type, ...) \
  for (auto& x : s.field) x = static_cast<type>(++v);
    CEA_EXEC_STATS_COUNTERS(FILL_FIELD)
    CEA_EXEC_STATS_LEVEL_COUNTERS(FILL_LEVEL)
    return s;
  };
  const ExecStats a0 = fill(1000);
  const ExecStats b = fill(31);
  ExecStats a = a0;
  a.Merge(b);

  const std::set<std::string> max_fields = {"mem_peak_bytes", "max_level"};
#define CHECK_FIELD(field, ...)                                        \
  EXPECT_EQ(a.field, max_fields.count(#field) != 0                     \
                         ? std::max(a0.field, b.field)                 \
                         : a0.field + b.field)                         \
      << #field;
#define CHECK_LEVEL(field, ...)                                        \
  for (size_t l = 0; l < a.field.size(); ++l) {                        \
    EXPECT_EQ(a.field[l], a0.field[l] + b.field[l])                    \
        << #field << "[" << l << "]";                                  \
  }
  CEA_EXEC_STATS_COUNTERS(CHECK_FIELD)
  CEA_EXEC_STATS_LEVEL_COUNTERS(CHECK_LEVEL)
#undef FILL_FIELD
#undef FILL_LEVEL
#undef CHECK_FIELD
#undef CHECK_LEVEL
}

TEST(Stats, MergeIntoDefaultEqualsCopy) {
  ExecStats src;
  src.rows_hashed = 42;
  src.max_level = 3;
  src.sum_alpha = 9.5;
  src.num_alpha = 2;
  src.rows_hashed_at_level[3] = 42;
  src.seconds_at_level[3] = 0.25;

  ExecStats dst;
  dst.Merge(src);
  EXPECT_EQ(dst.rows_hashed, src.rows_hashed);
  EXPECT_EQ(dst.max_level, src.max_level);
  EXPECT_DOUBLE_EQ(dst.sum_alpha, src.sum_alpha);
  EXPECT_EQ(dst.num_alpha, src.num_alpha);
  EXPECT_EQ(dst.rows_hashed_at_level[3], 42u);
  EXPECT_DOUBLE_EQ(dst.seconds_at_level[3], 0.25);
}

}  // namespace
}  // namespace cea
