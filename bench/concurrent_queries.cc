// Concurrent-query benchmark: N client threads push aggregation queries of
// mixed cardinalities through one QuerySession (shared scheduler, shared
// chunk pool, shared memory budget) and report the end-to-end latency
// distribution (p50/p95/p99, admission wait included), the admission
// queue-time distribution, plus the turnaround of cooperatively cancelled
// queries — the time from firing the token to the operator returning
// kCancelled.
//
// Percentiles come from per-client lock-free log-linear histograms
// (obs::HistogramMetric) merged after the clients join — the same
// mergeable-snapshot machinery the metric registry exposes on /metrics —
// not from sorting a latency vector, so the bench measures the production
// percentile path and scales to any query count without O(n log n)
// post-processing.
//
// Usage: concurrent_queries [--log_n=20] [--queries=32] [--concurrency=8]
//        [--threads=N] [--admission_mb=MB] [--cancel_every=8] [--reps=1]
//        [--json[=PATH]]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cea/core/aggregation_operator.h"
#include "cea/datagen/generators.h"
#include "cea/exec/query_session.h"
#include "cea/obs/metrics.h"

using namespace cea;         // NOLINT
using namespace cea::bench;  // NOLINT

namespace {

// Cardinalities cycled over the query stream: small enough for pure
// hashing, large enough to force recursive partitioning.
constexpr int kLogKs[] = {6, 10, 14, 18};

struct QueryOutcome {
  double turnaround_s = 0;  // Cancel() fire to Execute() return (cancelled)
  enum class Kind { kOk, kCancelled, kRejected } kind = Kind::kOk;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

// Histogram quantile in milliseconds (values recorded in microseconds).
double QuantileMs(const obs::HistogramMetric::Snapshot& s, double q) {
  return static_cast<double>(s.ValueAtQuantile(q)) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t n = uint64_t{1} << flags.GetUint("log_n", 20);
  const int queries = static_cast<int>(flags.GetUint("queries", 32));
  const int concurrency = static_cast<int>(flags.GetUint("concurrency", 8));
  MachineInfo machine = DetectMachine();
  const int threads =
      static_cast<int>(flags.GetUint("threads", machine.hardware_threads));
  const size_t admission_mb = flags.GetUint("admission_mb", 0);
  // Every cancel_every-th query is cancelled at its first pass task
  // (0 disables cancellation).
  const int cancel_every = static_cast<int>(flags.GetUint("cancel_every", 8));
  const int reps = static_cast<int>(flags.GetUint("reps", 1));

  BenchReporter reporter("concurrent_queries", flags);

  // One key set per cardinality, generated once and shared read-only by
  // all clients, so the measured section is pure query execution.
  std::vector<std::vector<uint64_t>> key_sets;
  for (int lk : kLogKs) {
    GenParams gp;
    gp.n = n;
    gp.k = uint64_t{1} << lk;
    gp.seed = 42 + lk;
    key_sets.push_back(GenerateKeys(gp));
  }

  if (!reporter.enabled()) {
    std::printf("# Concurrent queries: %d queries x 2^%llu rows, "
                "%d clients, %d workers\n",
                queries, (unsigned long long)flags.GetUint("log_n", 20),
                concurrency, threads);
    std::printf("%5s %8s %8s %8s %8s %8s %10s %6s %6s %6s\n", "rep",
                "p50ms", "p95ms", "p99ms", "q50ms", "cxlms", "qps", "ok",
                "cxl", "rej");
  }

  for (int rep = 0; rep < reps; ++rep) {
    QuerySession::Options so;
    so.num_threads = threads;
    so.admission_bytes = admission_mb << 20;
    QuerySession session(so);

    // Per-client histograms (microsecond values), merged after the join:
    // end-to-end latency of successful queries and admission queue time of
    // every admitted query. Exact count conservation across the merge is
    // what makes the reported percentiles trustworthy.
    std::vector<std::unique_ptr<obs::HistogramMetric>> lat_hists;
    std::vector<std::unique_ptr<obs::HistogramMetric>> queue_hists;
    for (int c = 0; c < concurrency; ++c) {
      lat_hists.push_back(std::make_unique<obs::HistogramMetric>());
      queue_hists.push_back(std::make_unique<obs::HistogramMetric>());
    }

    std::vector<QueryOutcome> outcomes(queries);
    std::atomic<int> next{0};
    Timer wall;
    std::vector<std::thread> clients;
    for (int c = 0; c < concurrency; ++c) {
      clients.emplace_back([&, c] {
        obs::HistogramMetric& lat_hist = *lat_hists[c];
        obs::HistogramMetric& queue_hist = *queue_hists[c];
        for (int q = next.fetch_add(1); q < queries; q = next.fetch_add(1)) {
          const std::vector<uint64_t>& keys =
              key_sets[q % key_sets.size()];
          InputTable input;
          input.keys = keys.data();
          input.num_rows = keys.size();

          const bool cancel = cancel_every > 0 && q % cancel_every == 0;
          CancellationSource source;
          std::atomic<int> hook_calls{0};
          std::atomic<int64_t> cancel_ns{0};
          // Vary the cancellation point across victims: the q-th victim
          // lets a few pass tasks run before firing.
          const int fire_at = cancel ? (q / cancel_every) % 5 : 0;

          Timer latency;
          QuerySession::Admission grant;
          Status s = session.Admit(/*bytes=*/16 << 20, &grant);
          if (s.ok()) {
            queue_hist.Record(grant.queue_ns() / 1000);
            AggregationOptions options;
            options.scheduler = session.scheduler();
            options.query_id = grant.query_id();
            if (cancel) {
              options.cancel_token = source.token();
              options.fault_hook = [&](int) {
                if (hook_calls.fetch_add(1) == fire_at) {
                  cancel_ns.store(SteadyNowNs());
                  source.Cancel("bench victim");
                }
              };
            }
            AggregationOperator op({{AggFn::kCount, -1}}, options);
            ResultTable result;
            s = op.Execute(input, &result);
            DoNotOptimize(result.keys.data());
          }
          if (s.ok()) {
            outcomes[q].kind = QueryOutcome::Kind::kOk;
            lat_hist.Record(
                static_cast<uint64_t>(latency.Seconds() * 1e6));
          } else if (s.IsCancelled()) {
            outcomes[q].kind = QueryOutcome::Kind::kCancelled;
            if (cancel_ns.load() != 0) {
              outcomes[q].turnaround_s =
                  static_cast<double>(SteadyNowNs() - cancel_ns.load()) * 1e-9;
            }
          } else {
            outcomes[q].kind = QueryOutcome::Kind::kRejected;
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    const double wall_s = wall.Seconds();

    obs::HistogramMetric::Snapshot lat;
    obs::HistogramMetric::Snapshot queue;
    for (int c = 0; c < concurrency; ++c) {
      lat.Merge(lat_hists[c]->TakeSnapshot());
      queue.Merge(queue_hists[c]->TakeSnapshot());
    }

    std::vector<double> cxl_turn;
    int ok = 0, cancelled = 0, rejected = 0;
    for (const QueryOutcome& o : outcomes) {
      switch (o.kind) {
        case QueryOutcome::Kind::kOk:
          ++ok;
          break;
        case QueryOutcome::Kind::kCancelled:
          ++cancelled;
          if (o.turnaround_s > 0) cxl_turn.push_back(o.turnaround_s);
          break;
        case QueryOutcome::Kind::kRejected:
          ++rejected;
          break;
      }
    }
    const double p50 = QuantileMs(lat, 0.50);
    const double p95 = QuantileMs(lat, 0.95);
    const double p99 = QuantileMs(lat, 0.99);
    const double q50 = QuantileMs(queue, 0.50);
    const double q95 = QuantileMs(queue, 0.95);
    const double q99 = QuantileMs(queue, 0.99);
    const double cxl_p50 = Percentile(cxl_turn, 0.50) * 1e3;
    const double cxl_max =
        cxl_turn.empty()
            ? 0
            : *std::max_element(cxl_turn.begin(), cxl_turn.end()) * 1e3;
    const double qps = static_cast<double>(queries) / wall_s;

    if (reporter.enabled()) {
      BenchRecord r;
      r.Param("log_n", flags.GetUint("log_n", 20))
          .Param("queries", queries)
          .Param("concurrency", concurrency)
          .Param("threads", threads)
          .Param("admission_mb", static_cast<uint64_t>(admission_mb))
          .Param("cancel_every", cancel_every)
          .Param("rep", rep);
      r.Metric("latency_p50_ms", p50)
          .Metric("latency_p95_ms", p95)
          .Metric("latency_p99_ms", p99)
          .Metric("admission_queue_p50_ms", q50)
          .Metric("admission_queue_p95_ms", q95)
          .Metric("admission_queue_p99_ms", q99)
          .Metric("admission_queue_mean_ms",
                  queue.TotalCount() == 0
                      ? 0.0
                      : static_cast<double>(queue.sum) /
                            static_cast<double>(queue.TotalCount()) / 1e3)
          .Metric("cancel_turnaround_p50_ms", cxl_p50)
          .Metric("cancel_turnaround_max_ms", cxl_max)
          .Metric("wall_s", wall_s)
          .Metric("queries_per_s", qps);
      r.MetricUint("latency_samples", lat.TotalCount())
          .MetricUint("admitted_samples", queue.TotalCount())
          .MetricUint("ok", ok)
          .MetricUint("cancelled", cancelled)
          .MetricUint("rejected", rejected);
      reporter.Emit(r);
    } else {
      std::printf("%5d %8.2f %8.2f %8.2f %8.2f %8.2f %10.1f %6d %6d %6d\n",
                  rep, p50, p95, p99, q50, cxl_p50, qps, ok, cancelled,
                  rejected);
    }
  }
  return 0;
}
