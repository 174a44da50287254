// Randomized differential tests: for a sequence of seeds, draw a random
// configuration (input size, key distribution, key width, aggregate list,
// thread count, table budget and fill cap, cardinality hint, policy,
// adaptive constants) and check the operator against the scalar
// reference. Complements the structured sweeps with configuration
// combinations nobody thought to write down. A second suite streams the
// same kind of random case through the push-based interface in random
// batch splits (including empty batches).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "cea/common/random.h"
#include "cea/datagen/generators.h"
#include "test_util.h"

namespace cea {
namespace {

// A self-contained random case: the columns own the data the InputTable
// points into, so keep the struct alive while using `input`.
struct FuzzCase {
  std::vector<Column> keys;
  std::vector<Column> values;
  std::vector<AggregateSpec> specs;
  AggregationOptions options;
  InputTable input;
  std::string trace;
};

FuzzCase MakeFuzzCase(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FuzzCase fc;

  // Input shape.
  const size_t n = 1 + rng.NextBounded(60000);
  const int key_cols = 1 + static_cast<int>(rng.NextBounded(5));
  GenParams gp;
  gp.n = n;
  gp.k = 1 + rng.NextBounded(n);
  auto dists = AllDistributions();
  gp.dist = dists[rng.NextBounded(dists.size())];
  gp.seed = rng.Next();

  fc.keys.resize(key_cols);
  fc.keys[0] = GenerateKeys(gp);
  for (int c = 1; c < key_cols; ++c) {
    fc.keys[c].resize(n);
    // Low-cardinality secondary columns so composites repeat.
    for (auto& v : fc.keys[c]) v = rng.NextBounded(1 + rng.NextBounded(16));
  }

  // Aggregates: 0..5 random functions over 1..3 value columns.
  const int num_values = 1 + static_cast<int>(rng.NextBounded(3));
  fc.values.resize(num_values);
  for (auto& col : fc.values) col = GenerateValues(n, rng.Next());
  const AggFn fns[] = {AggFn::kCount, AggFn::kSum, AggFn::kMin, AggFn::kMax,
                       AggFn::kAvg};
  const int num_specs = static_cast<int>(rng.NextBounded(6));
  for (int s = 0; s < num_specs; ++s) {
    AggFn fn = fns[rng.NextBounded(5)];
    fc.specs.push_back(
        {fn, NeedsInput(fn) ? static_cast<int>(rng.NextBounded(num_values))
                            : -1});
  }

  // Operator configuration. Table budgets go down to a single byte, which
  // clamps to the minimum table and forces block overflows and deep
  // recursion; fill caps sweep 0.1..0.9.
  AggregationOptions& options = fc.options;
  options.num_threads = 1 + static_cast<int>(rng.NextBounded(8));
  options.table_bytes = size_t{1} << rng.NextBounded(21);  // 1B..1M
  options.table_max_fill = 0.1 + 0.8 * rng.NextDouble();
  options.morsel_rows = size_t{1} << (8 + rng.NextBounded(9));
  switch (rng.NextBounded(3)) {
    case 0:
      options.policy = AggregationOptions::PolicyKind::kAdaptive;
      options.alpha0 = 1.0 + rng.NextDouble() * 30.0;
      options.c = rng.NextBounded(30);
      break;
    case 1:
      options.policy = AggregationOptions::PolicyKind::kHashingOnly;
      break;
    default:
      options.policy = AggregationOptions::PolicyKind::kPartitionAlways;
      options.partition_passes = 1 + static_cast<int>(rng.NextBounded(3));
      break;
  }
  // Cardinality hint: absent, truthful, or a lie (hints are advisory and
  // must never change the result).
  switch (rng.NextBounded(3)) {
    case 0:
      break;
    case 1:
      options.k_hint = gp.k;
      break;
    default:
      options.k_hint = 1 + rng.NextBounded(2 * n);
      break;
  }

  fc.input.keys = fc.keys[0].data();
  for (int c = 1; c < key_cols; ++c) {
    fc.input.extra_keys.push_back(fc.keys[c].data());
  }
  for (const Column& col : fc.values) fc.input.values.push_back(col.data());
  fc.input.num_rows = n;

  fc.trace = "seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
             " k=" + std::to_string(gp.k) +
             " dist=" + DistributionName(gp.dist) +
             " key_cols=" + std::to_string(key_cols) +
             " specs=" + std::to_string(fc.specs.size()) +
             " threads=" + std::to_string(options.num_threads) +
             " table_bytes=" + std::to_string(options.table_bytes) +
             " fill=" + std::to_string(options.table_max_fill) +
             " k_hint=" + std::to_string(options.k_hint);
  return fc;
}

class OperatorFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OperatorFuzz, RandomConfigMatchesReference) {
  FuzzCase fc = MakeFuzzCase(GetParam());
  SCOPED_TRACE(fc.trace);
  ExpectMatchesReference(fc.specs, fc.input, fc.options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorFuzz,
                         ::testing::Range<uint64_t>(0, 128),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

class StreamingFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingFuzz, RandomBatchSplitsMatchReference) {
  // Distinct case space from OperatorFuzz (offset seed), plus a random
  // batch partition of the rows — with occasional empty batches.
  FuzzCase fc = MakeFuzzCase(GetParam() + 1000);
  SCOPED_TRACE(fc.trace);
  Rng rng(GetParam() * 0xc2b2ae3d27d4eb4fULL + 7);

  const size_t n = fc.input.num_rows;
  const int key_cols = static_cast<int>(fc.keys.size());
  AggregationOperator op(fc.specs, fc.options);
  ASSERT_TRUE(op.BeginStream(key_cols).ok());

  size_t off = 0;
  int empties = 0;
  while (off < n) {
    size_t len;
    if (empties < 3 && rng.NextBounded(4) == 0) {
      len = 0;  // empty batches must be accepted and change nothing
      ++empties;
    } else {
      len = 1 + rng.NextBounded(n - off);
    }
    // Copy into scratch buffers that die after the call: ConsumeBatch
    // must not retain pointers into the batch.
    std::vector<Column> kbuf(key_cols), vbuf(fc.values.size());
    InputTable batch;
    for (int c = 0; c < key_cols; ++c) {
      kbuf[c].assign(fc.keys[c].begin() + off, fc.keys[c].begin() + off + len);
    }
    for (size_t v = 0; v < fc.values.size(); ++v) {
      vbuf[v].assign(fc.values[v].begin() + off,
                     fc.values[v].begin() + off + len);
    }
    batch.keys = kbuf[0].data();
    for (int c = 1; c < key_cols; ++c) {
      batch.extra_keys.push_back(kbuf[c].data());
    }
    for (const Column& col : vbuf) batch.values.push_back(col.data());
    batch.num_rows = len;
    ASSERT_TRUE(op.ConsumeBatch(batch).ok()) << "offset " << off;
    off += len;
  }

  ResultTable got;
  ASSERT_TRUE(op.FinishStream(&got).ok());
  ResultTable expect = ReferenceAggregate(fc.input, fc.specs);
  ExpectResultsMatch(&got, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingFuzz,
                         ::testing::Range<uint64_t>(0, 32),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

class CancellationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CancellationFuzz, CancelAtRandomPointThenRerunMatchesReference) {
  // Random config, token fired from the fault hook after a random number
  // of pass tasks. Two legal outcomes: the run finished before the hook
  // reached the trigger (must match the reference), or it was cancelled
  // (typed status). Either way, clearing the token and rerunning the SAME
  // operator must match the reference exactly — no partial state of the
  // interrupted run may survive into the next execution.
  FuzzCase fc = MakeFuzzCase(GetParam() + 5000);
  SCOPED_TRACE(fc.trace);
  Rng rng(GetParam() * 0x2545f4914f6cdd1dULL + 11);

  CancellationSource source;
  std::atomic<uint64_t> hook_calls{0};
  const uint64_t fire_at = rng.NextBounded(16);
  fc.options.cancel_token = source.token();
  fc.options.fault_hook = [&](int) {
    if (hook_calls.fetch_add(1) == fire_at) source.Cancel("fuzz cancel");
  };

  AggregationOperator op(fc.specs, fc.options);
  ResultTable expect = ReferenceAggregate(fc.input, fc.specs);
  ResultTable got;
  Status s = op.Execute(fc.input, &got);
  if (s.ok()) {
    ExpectResultsMatch(&got, expect);
  } else {
    ASSERT_TRUE(s.IsCancelled()) << s.message();
  }

  op.set_cancel_token(CancellationToken());
  ResultTable rerun;
  ASSERT_TRUE(op.Execute(fc.input, &rerun).ok());
  ExpectResultsMatch(&rerun, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancellationFuzz,
                         ::testing::Range<uint64_t>(0, 48),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cea
