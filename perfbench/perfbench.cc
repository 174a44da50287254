// perfbench: workload driver of the repository benchmark (see README.md).
//
// One process runs one workload in one of two modes:
//   --mode=measure  builds the inputs and the oracle, times set-up, then
//                   runs the untraced timed phase and reports end-to-end
//                   metrics with the raw samples run.py pools across
//                   processes;
//   --mode=trace    runs an untraced and a traced phase back to back and
//                   reports per-layer metrics plus the tracing overhead.
// Every query is COUNT(*), SUM(v) over GenerateKeys/GenerateValues input
// and goes through the public API only: AggregationOperator::Execute, or
// QuerySession::Admit followed by Execute. Layers are measured from the
// outside: spans around those calls, the counters the API returns
// (ExecStats, TaskScheduler::GetStats, Admission::queue_ns) and getrusage.
//
// The last stdout line is one JSON record (mode, seed, machine and build
// fingerprint, sample counts, metrics); run.py turns the records of one
// benchmark run into its result line.
//
// Usage: perfbench --workload=NAME --mode=measure|trace --seed=N
//                  --seconds=S [--spill_dir=DIR] [--trace_out=PATH]
//                  [--corrupt]

#include <cpuid.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cea/baselines/reference.h"
#include "cea/core/aggregation_operator.h"
#include "cea/core/stats_io.h"
#include "cea/datagen/generators.h"
#include "cea/exec/query_session.h"
#include "cea/exec/task_scheduler.h"
#include "cea/hash/murmur.h"
#include "cea/hash/radix.h"
#include "cea/mem/chunk_pool.h"
#include "cea/mem/chunked_array.h"
#include "cea/mem/swc_buffer.h"
#include "cea/obs/obs.h"
#include "cea/table/blocked_hash_table.h"

namespace {

using cea::AggFn;
using cea::AggregateSpec;
using cea::AggregationOperator;
using cea::AggregationOptions;
using cea::Column;
using cea::Distribution;
using cea::ExecStats;
using cea::InputTable;
using cea::QuerySession;
using cea::ResultTable;
using cea::Status;
using Clock = std::chrono::steady_clock;

const std::vector<AggregateSpec> kSpecs = {{AggFn::kCount, -1},
                                           {AggFn::kSum, 0}};
constexpr int kWorkers = 4;
constexpr double kMiB = 1024.0 * 1024.0;
// Operator spans kept for the trace file (the self-time metric uses every
// span regardless); the cap keeps partition_highk's file tens of MiB.
constexpr size_t kMaxKeptOpSpans = 200000;
// Rows per input the primitive timings run over, and their repetitions.
constexpr size_t kPrimitiveRows = size_t{1} << 22;
constexpr int kPrimitiveReps = 5;

// ---------------------------------------------------------------------------
// Workloads (README.md records why each exists)

struct InputSpec {
  uint64_t n;
  uint64_t k;
  Distribution dist;
};

struct Workload {
  const char* name;
  std::vector<InputSpec> inputs;
  // Input indices of each client's set-up queries, run in this order, and
  // of its timed cycle, which it runs in rounds, each round in a fresh
  // seeded order.
  std::vector<int> warmup;
  std::vector<int> cycle;
  int clients;           // closed-loop clients
  bool session;          // QuerySession::Admit, then one operator per query
  int max_concurrent;    // session admission slots
  size_t budget_mib;     // process MemoryBudget limit; 0 = unlimited
  bool spill;            // the operator spills into --spill_dir
};

std::vector<Workload> Workloads() {
  constexpr uint64_t n22 = uint64_t{1} << 22;
  constexpr uint64_t n23 = uint64_t{1} << 23;
  constexpr uint64_t n24 = uint64_t{1} << 24;
  constexpr Distribution kUniform = Distribution::kUniform;
  constexpr Distribution kZipf = Distribution::kZipf;
  return {
      {"hash_lowk", {{n24, 1u << 10, kUniform}}, {0, 0, 0}, {0}, 1, false, 0,
       0, false},
      {"partition_highk", {{n24, 1u << 20, kUniform}}, {0, 0}, {0}, 1, false,
       0, 0, false},
      {"session_mix",
       {{n22, 1u << 8, kZipf},
        {n22, 1u << 12, kZipf},
        {n22, 1u << 16, kZipf},
        {n22, 1u << 20, kZipf}},
       // Warm-up starts with K=2^20 on every client, so both slots carve
       // the pool for the largest shape at once and the timed phase
       // recycles rather than grows it.
       {3, 2, 1, 0}, {0, 1, 2, 3}, kWorkers, true, 2, 0, false},
      // Set-up runs a small query, then the big one, whose spill trips the
      // process-wide latch; every timed small query then spills. Not in
      // BENCHMARK.json: too unsteady to gate on (README.md).
      {"spill_mix",
       {{n22, 1u << 12, kUniform}, {n23, 1u << 20, kUniform}},
       {0, 1}, {0}, 1, false, 0, 192, true},
  };
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Oracle: an order-insensitive fingerprint of a COUNT(*), SUM(v) result.

struct Fingerprint {
  uint64_t groups = 0;
  uint64_t mix = 0;  // wrapping sum of a mixed hash of (key, count, sum)
  bool operator==(const Fingerprint& o) const {
    return groups == o.groups && mix == o.mix;
  }
};

// Returns false when the result does not have the COUNT, SUM shape.
bool FingerprintOf(const ResultTable& r, Fingerprint* fp) {
  const size_t groups = r.keys.size();
  if (r.aggregates.size() != 2 || r.aggregates[0].u64.size() != groups ||
      r.aggregates[1].u64.size() != groups) {
    return false;
  }
  const uint64_t* counts = r.aggregates[0].u64.data();
  const uint64_t* sums = r.aggregates[1].u64.data();
  Fingerprint f;
  f.groups = groups;
  for (size_t i = 0; i < groups; ++i) {
    f.mix += SplitMix(r.keys[i] ^ SplitMix(counts[i] ^ SplitMix(sums[i])));
  }
  *fp = f;
  return true;
}

struct Input {
  Column keys;
  Column values;
  Fingerprint oracle;
  InputTable Table() const { return InputTable::FromColumns(keys, {&values}); }
};

// ReferenceAggregate's fingerprint of `in`. The oracle's std::map costs
// about 2 us a row at K=2^20, so the rows are split into key-disjoint parts
// aggregated on kWorkers threads; disjoint groups make the parts'
// fingerprints add up to the whole result's.
Fingerprint OracleFingerprint(const Input& in) {
  constexpr int kPartBits = 8;
  constexpr size_t kParts = size_t{1} << kPartBits;
  auto part_of = [](uint64_t key) { return SplitMix(key) >> (64 - kPartBits); };
  std::vector<size_t> sizes(kParts, 0);
  for (uint64_t key : in.keys) ++sizes[part_of(key)];
  std::vector<Column> keys(kParts), values(kParts);
  for (size_t p = 0; p < kParts; ++p) {
    keys[p].reserve(sizes[p]);
    values[p].reserve(sizes[p]);
  }
  for (size_t i = 0; i < in.keys.size(); ++i) {
    const size_t p = part_of(in.keys[i]);
    keys[p].push_back(in.keys[i]);
    values[p].push_back(in.values[i]);
  }
  std::vector<Fingerprint> fps(kParts);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&] {
      for (size_t p = next++; p < kParts; p = next++) {
        const ResultTable ref = cea::ReferenceAggregate(
            InputTable::FromColumns(keys[p], {&values[p]}), kSpecs);
        CEA_CHECK(FingerprintOf(ref, &fps[p]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Fingerprint total;
  for (const Fingerprint& f : fps) {
    total.groups += f.groups;
    total.mix += f.mix;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Process-level measurements and the machine/build fingerprint

struct Usage {
  double maxrss_mib = 0;
  uint64_t minflt = 0;
  uint64_t ctx_switches = 0;
};

Usage GetUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  u.minflt = static_cast<uint64_t>(ru.ru_minflt);
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  return s;
}

std::string FsType(const std::string& dir) {
  struct statfs st {};
  if (dir.empty() || statfs(dir.c_str(), &st) != 0) return "none";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// The SIMD tier as stats_io renders it, so the benchmark does not include
// the dispatch header.
std::string SimdTier(const ExecStats& stats) {
  const std::string json = cea::ExecStatsToJson(stats);
  const std::string key = "\"simd_tier\":\"";
  size_t at = json.find(key);
  if (at == std::string::npos) return "unknown";
  at += key.size();
  return json.substr(at, json.find('"', at) - at);
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  const char* name;
  int tid;  // client, or 100 + worker for operator spans
  uint64_t query;
  int64_t start_ns;  // since the benchmark's epoch
  int64_t dur_ns;
};

// The operator's pass/exact spans of one execution, parsed from its Chrome
// trace (the recorder exposes its spans only as that JSON) and shifted by
// `shift_ns` onto the benchmark's epoch.
std::vector<Span> ParseOperatorSpans(const std::string& json, int64_t shift_ns,
                                     uint64_t query) {
  std::vector<Span> spans;
  const std::string name_key = "{\"name\":\"";
  for (size_t at = json.find(name_key); at != std::string::npos;
       at = json.find(name_key, at + 1)) {
    const size_t name_at = at + name_key.size();
    const size_t ph = json.find("\"ph\":\"", name_at);
    if (ph == std::string::npos || json[ph + 6] != 'X') continue;  // metadata
    const size_t tid = json.find("\"tid\":", ph);
    const size_t ts = json.find("\"ts\":", ph);
    const size_t dur = json.find("\"dur\":", ph);
    if (tid == std::string::npos || ts == std::string::npos ||
        dur == std::string::npos) {
      break;
    }
    Span s;
    s.name = json.compare(name_at, 5, "pass\"") == 0 ? "op.pass" : "op.exact";
    s.tid = 100 + std::atoi(json.c_str() + tid + 6);
    s.query = query;
    s.start_ns = std::llround(std::strtod(json.c_str() + ts + 5, nullptr) * 1e3) +
                 shift_ns;
    s.dur_ns = std::llround(std::strtod(json.c_str() + dur + 6, nullptr) * 1e3);
    spans.push_back(s);
  }
  return spans;
}

// Length of [begin, end) covered by the union of `spans`.
int64_t CoveredNs(std::vector<Span> spans, int64_t begin, int64_t end) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  int64_t covered = 0;
  int64_t cursor = begin;
  for (const Span& s : spans) {
    const int64_t lo = std::max(s.start_ns, cursor);
    const int64_t hi = std::min(s.start_ns + s.dur_ns, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

// ---------------------------------------------------------------------------
// Runner

struct Args {
  std::string workload;
  std::string mode = "measure";
  uint64_t seed = 1;
  double seconds = 10;
  std::string spill_dir;
  std::string trace_out;
  bool corrupt = false;  // self-test: falsify one aggregate before checking
};

struct QueryRecord {
  int input = 0;
  bool ok = false;
  bool mismatch = false;  // returned OK, but differs from the oracle
  double ms = 0;  // from the client's call until the result returns
  uint64_t queue_ns = 0;
  int64_t exec_start_ns = 0;
  int64_t exec_end_ns = 0;
  double exec_self_ms = 0;  // traced phase only
  ExecStats stats;
};

struct Phase {
  std::vector<QueryRecord> queries;
  double wall_s = 0;
  uint64_t rows = 0;  // input rows of correct queries
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t tasks = 0;
  uint64_t helped = 0;
  uint64_t minflt = 0;
  uint64_t ctx_switches = 0;
};

class Runner {
 public:
  Runner(const Workload& w, const Args& args)
      : w_(w), args_(args), epoch_(Clock::now()) {}

  void MakeInputs() {
    inputs_.resize(w_.inputs.size());
    for (size_t i = 0; i < w_.inputs.size(); ++i) {
      const InputSpec& spec = w_.inputs[i];
      Input& in = inputs_[i];
      cea::GenParams gp;
      gp.n = spec.n;
      gp.k = spec.k;
      gp.dist = spec.dist;
      gp.seed = SplitMix(args_.seed * 64 + 2 * i);
      in.keys = cea::GenerateKeys(gp);
      in.values =
          cea::GenerateValues(spec.n, SplitMix(args_.seed * 64 + 2 * i + 1));
    }
    ComputeOracles();
  }

  // The oracle runs in a child process, so its memory (a copy of the input
  // and the reference's std::map) stays out of this process's peak RSS.
  void ComputeOracles() {
    int fds[2];
    CEA_CHECK(pipe(fds) == 0);
    const pid_t pid = fork();
    CEA_CHECK(pid >= 0);
    if (pid == 0) {
      close(fds[0]);
      for (const Input& in : inputs_) {
        const Fingerprint fp = OracleFingerprint(in);
        if (write(fds[1], &fp, sizeof(fp)) != sizeof(fp)) _exit(1);
      }
      _exit(0);
    }
    close(fds[1]);
    bool complete = true;
    for (Input& in : inputs_) {
      complete = complete &&
                 read(fds[0], &in.oracle, sizeof(in.oracle)) == sizeof(in.oracle);
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    CEA_CHECK_MSG(complete && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                  "the oracle process failed");
  }

  // Operator or session construction plus the warm-up queries, the first
  // of which carves the pool's slabs. Returns seconds, or a negative value
  // when a warm-up query failed. Warm-up results are not checked.
  double Setup() {
    const Clock::time_point t0 = Clock::now();
    if (w_.budget_mib > 0) {
      cea::MemoryBudget::Global().SetLimit(w_.budget_mib << 20);
    }
    if (w_.session) {
      QuerySession::Options so;
      so.num_threads = kWorkers;
      so.max_concurrent = w_.max_concurrent;
      session_ = std::make_unique<QuerySession>(so);
    } else {
      scheduler_ = std::make_unique<cea::TaskScheduler>(kWorkers);
      op_ = std::make_unique<AggregationOperator>(kSpecs, Options(nullptr));
    }
    rounds_.assign(w_.clients, Round{});
    for (int c = 0; c < w_.clients; ++c) {
      rounds_[c].rng = SplitMix(args_.seed * 64 + 48 + c);
    }
    std::atomic<int> failures{0};
    RunClients([&](int c) {
      for (const int input : w_.warmup) {
        QueryRecord rec;
        ResultTable result;
        Status s = RunQuery(c, input, 0, nullptr, &rec, &result);
        if (!s.ok()) {
          std::fprintf(stderr, "perfbench: %s warm-up query failed: %s\n",
                       w_.name, s.message().c_str());
          ++failures;
        }
        if (c == 0) warm_stats_ = rec.stats;
      }
    });
    return failures.load() == 0 ? Seconds(t0, Clock::now()) : -1;
  }

  // Closed-loop clients until `seconds` have passed. Every result is
  // checked against the oracle outside the timed interval.
  Phase RunPhase(double seconds, bool traced) {
    std::vector<std::unique_ptr<cea::obs::ObsContext>> obs(w_.clients);
    if (traced) {
      cea::obs::ObsContext::Options oo;
      oo.counters = false;  // no PMU here; rusage gives the software events
      oo.profile = false;
      for (auto& o : obs) o = std::make_unique<cea::obs::ObsContext>(oo);
      if (!w_.session) {
        // An operator binds its ObsContext at construction, so the traced
        // phase gets its own operator, warmed by one untimed query.
        op_ = std::make_unique<AggregationOperator>(kSpecs,
                                                    Options(obs[0].get()));
        QueryRecord rec;
        ResultTable result;
        RunQuery(0, NextInput(0), 0, nullptr, &rec, &result);
        obs[0]->trace().Clear();
      }
    }
    std::vector<std::vector<QueryRecord>> per_client(w_.clients);
    const cea::TaskScheduler::Stats s0 = Scheduler()->GetStats();
    const Usage u0 = GetUsage();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    RunClients([&](int c) {
      while (Clock::now() < deadline) {
        const uint64_t query = next_query_.fetch_add(1) + 1;
        const int input = NextInput(c);
        QueryRecord rec;
        ResultTable result;
        const int64_t root_start = NowNs();
        Status s = RunQuery(c, input, query, obs[c].get(), &rec, &result);
        const int64_t verify_start = NowNs();
        if (args_.corrupt && query == 1 && !result.keys.empty()) {
          ++result.aggregates[1].u64[0];
        }
        Fingerprint fp;
        rec.mismatch = s.ok() && !(FingerprintOf(result, &fp) &&
                                   fp == inputs_[input].oracle);
        rec.ok = s.ok() && !rec.mismatch;
        if (!rec.ok) {
          std::fprintf(stderr, "perfbench: %s query %" PRIu64 " failed: %s\n",
                       w_.name, query,
                       rec.mismatch ? "result differs from the oracle"
                                    : s.message().c_str());
        }
        if (traced) {
          TraceQuery(c, query, root_start, verify_start, NowNs(), obs[c].get(),
                     &rec);
        }
        per_client[c].push_back(std::move(rec));
      }
    });
    Phase p;
    p.wall_s = Seconds(t0, Clock::now());
    const Usage u1 = GetUsage();
    const cea::TaskScheduler::Stats s1 = Scheduler()->GetStats();
    p.tasks = s1.executed - s0.executed;
    p.helped = s1.helped - s0.helped;
    p.minflt = u1.minflt - u0.minflt;
    p.ctx_switches = u1.ctx_switches - u0.ctx_switches;
    for (auto& recs : per_client) {
      for (QueryRecord& r : recs) {
        if (r.ok) {
          p.rows += inputs_[r.input].keys.size();
        } else {
          ++p.failed;
        }
        p.mismatched += r.mismatch ? 1 : 0;
        p.queries.push_back(std::move(r));
      }
    }
    return p;
  }

  // Writes the kept spans as a Chrome trace-event file.
  bool WriteTrace(const std::string& path) const;

  const std::vector<Input>& inputs() const { return inputs_; }
  const ExecStats& warm_stats() const { return warm_stats_; }

 private:
  // Thread-safe span log, kept in memory and written at exit.
  struct SpanLog {
    std::mutex mu;
    std::vector<Span> spans;
    size_t dropped = 0;
  };

  AggregationOptions Options(cea::obs::ObsContext* obs) {
    AggregationOptions o;
    o.scheduler = Scheduler();
    if (w_.spill) o.spill_dir = args_.spill_dir;
    o.obs = obs;
    return o;
  }

  cea::TaskScheduler* Scheduler() {
    return w_.session ? session_->scheduler() : scheduler_.get();
  }

  // A fixed order with per-client offsets phase-locks the closed loop:
  // admission pairs the same shapes for a whole run, and the pairing a run
  // settled into changed session_mix's per-K execute times by up to 2x
  // between runs. Shuffled rounds keep every input's share exact and make
  // the pairings random.
  int NextInput(int c) {
    Round& r = rounds_[c];
    if (r.pos == r.order.size()) {
      r.order = w_.cycle;
      for (size_t i = r.order.size(); i > 1; --i) {
        r.rng = SplitMix(r.rng);
        std::swap(r.order[i - 1], r.order[r.rng % i]);
      }
      r.pos = 0;
    }
    return r.order[r.pos++];
  }

  template <typename Fn>
  void RunClients(Fn fn) {
    if (w_.clients == 1) {
      fn(0);
      return;
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < w_.clients; ++c) threads.emplace_back(fn, c);
    for (std::thread& t : threads) t.join();
  }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  void AddSpan(SpanLog* log, const Span& s, size_t cap) {
    std::lock_guard<std::mutex> lock(log->mu);
    if (log->spans.size() < cap) {
      log->spans.push_back(s);
    } else {
      ++log->dropped;
    }
  }

  Status RunQuery(int c, int input, uint64_t query, cea::obs::ObsContext* obs,
                  QueryRecord* rec, ResultTable* result) {
    const InputTable table = inputs_[input].Table();
    rec->input = input;
    const Clock::time_point t0 = Clock::now();
    Status s;
    if (w_.session) {
      QuerySession::Admission grant;
      const int64_t admit_start = NowNs();
      // Declared run-store footprint: the key and two state words a row.
      s = session_->Admit(table.num_rows * 3 * sizeof(uint64_t), &grant);
      rec->queue_ns = grant.queue_ns();
      if (obs != nullptr) {
        AddSpan(&spans_,
                {"session.admit", c, query, admit_start, NowNs() - admit_start},
                SIZE_MAX);
      }
      if (s.ok()) {
        AggregationOptions o = Options(obs);
        o.query_id = grant.query_id();
        AggregationOperator op(kSpecs, o);
        s = Execute(op, table, result, rec);
      }
    } else {
      s = Execute(*op_, table, result, rec);
    }
    rec->ms = Seconds(t0, Clock::now()) * 1e3;
    return s;
  }

  Status Execute(AggregationOperator& op, const InputTable& table,
                 ResultTable* result, QueryRecord* rec) {
    rec->exec_start_ns = NowNs();
    Status s = op.Execute(table, result, &rec->stats);
    rec->exec_end_ns = NowNs();
    return s;
  }

  // Records the benchmark's spans of one query and its Execute self time:
  // the Execute span minus the union of the operator's pass spans.
  void TraceQuery(int c, uint64_t query, int64_t root_start,
                  int64_t verify_start, int64_t end, cea::obs::ObsContext* obs,
                  QueryRecord* rec) {
    // Map the recorder's epoch onto ours through one shared time point.
    const Clock::time_point ref = Clock::now();
    const int64_t shift =
        std::chrono::duration_cast<std::chrono::nanoseconds>(ref - epoch_)
            .count() -
        static_cast<int64_t>(obs->trace().NsSinceEpoch(ref));
    std::vector<Span> ops =
        ParseOperatorSpans(obs->trace().ToChromeJson(), shift, query);
    obs->trace().Clear();
    rec->exec_self_ms =
        static_cast<double>(rec->exec_end_ns - rec->exec_start_ns -
                            CoveredNs(ops, rec->exec_start_ns,
                                      rec->exec_end_ns)) /
        1e6;
    AddSpan(&spans_, {"workload.query", c, query, root_start, end - root_start},
            SIZE_MAX);
    AddSpan(&spans_,
            {"op.execute", c, query, rec->exec_start_ns,
             rec->exec_end_ns - rec->exec_start_ns},
            SIZE_MAX);
    AddSpan(&spans_, {"verify", c, query, verify_start, end - verify_start},
            SIZE_MAX);
    for (const Span& s : ops) AddSpan(&op_spans_, s, kMaxKeptOpSpans);
  }

  const Workload& w_;
  const Args& args_;
  const Clock::time_point epoch_;
  std::vector<Input> inputs_;
  std::unique_ptr<QuerySession> session_;
  std::unique_ptr<cea::TaskScheduler> scheduler_;
  std::unique_ptr<AggregationOperator> op_;
  struct Round {
    std::vector<int> order;  // this round's order of the cycle's inputs
    size_t pos = 0;
    uint64_t rng = 0;
  };
  std::vector<Round> rounds_;  // per client
  std::atomic<uint64_t> next_query_{0};
  ExecStats warm_stats_;
  SpanLog spans_;
  SpanLog op_spans_;
};

bool Runner::WriteTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"%s\","
               "\"seed\":%" PRIu64 ",\"dropped_op_spans\":%zu},"
               "\"traceEvents\":[\n",
               w_.name, args_.seed, op_spans_.dropped);
  bool first = true;
  for (const SpanLog* log : {&spans_, &op_spans_}) {
    for (const Span& s : log->spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%" PRIu64
                   "}}",
                   first ? "" : ",\n", s.name, s.tid,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, s.query);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Primitives: single-thread timed calls over the workload's key columns.

volatile uint64_t g_sink;

struct PrimitiveTimes {
  double murmur_ns_per_key = 0;
  double insert_ns_per_row = 0;
  double swc_ns_per_row = 0;
};

template <typename Fn>
double MedianNs(Fn fn) {
  std::vector<double> ns;
  for (int r = 0; r < kPrimitiveReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ns.push_back(Seconds(t0, Clock::now()) * 1e9);
  }
  return Percentile(ns, 0.5);
}

PrimitiveTimes TimePrimitives(const std::vector<Input>& inputs) {
  const cea::StateLayout layout(kSpecs);
  const size_t table_bytes = cea::DetectMachine().l3_bytes_per_thread;
  PrimitiveTimes t;
  double rows = 0;
  for (const Input& in : inputs) {
    const size_t n = std::min(in.keys.size(), kPrimitiveRows);
    const uint64_t* keys = in.keys.data();
    std::vector<uint64_t> hashes(n);
    std::vector<uint8_t> digits(n);
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = cea::MurmurHash64(keys[i]);
      digits[i] = static_cast<uint8_t>(cea::RadixDigit(hashes[i], 0));
    }
    t.murmur_ns_per_key += MedianNs([&] {
      uint64_t acc = 0;
      for (size_t i = 0; i < n; ++i) acc += cea::MurmurHash64(keys[i]);
      g_sink = acc;
    });
    // The operator's table: its budget and the 25% fill cap, emptied when
    // full as the HASHING routine does after splitting it.
    cea::BlockedOpenHashTable table(table_bytes, layout, 0.25);
    t.insert_ns_per_row += MedianNs([&] {
      uint64_t acc = 0;
      table.Clear();
      for (size_t i = 0; i < n; ++i) {
        uint32_t slot = table.FindOrInsert(keys[i], hashes[i], 0);
        if (slot == cea::BlockedOpenHashTable::kFull) {
          table.Clear();
          slot = table.FindOrInsert(keys[i], hashes[i], 0);
        }
        acc += slot;
      }
      g_sink = acc;
    });
    t.swc_ns_per_row += MedianNs([&] {
      std::vector<cea::ChunkedArray> parts(cea::kFanOut);
      cea::SwcWriter writer;
      for (uint32_t p = 0; p < cea::kFanOut; ++p) writer.SetDest(p, &parts[p]);
      for (size_t i = 0; i < n; ++i) writer.Append(digits[i], keys[i]);
      writer.Flush();
      g_sink = parts[0].size();
    });
    rows += static_cast<double>(n);
  }
  t.murmur_ns_per_key /= rows;
  t.insert_ns_per_row /= rows;
  t.swc_ns_per_row /= rows;
  return t;
}

// ---------------------------------------------------------------------------
// Metrics and the output record

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<double> Latencies(const Phase& p) {
  std::vector<double> ms;
  for (const QueryRecord& r : p.queries) {
    if (r.ok) ms.push_back(r.ms);
  }
  return ms;
}

std::vector<Metric> EndToEnd(const Phase& p, double setup_s) {
  const std::vector<double> ms = Latencies(p);
  const double attempted = static_cast<double>(p.queries.size());
  return {
      {"query_ms_p50", Percentile(ms, 0.5), "ms"},
      {"query_ms_p90", Percentile(ms, 0.9), "ms"},
      {"rows_per_s", static_cast<double>(p.rows) / p.wall_s, "rows/s"},
      {"peak_rss_mib", GetUsage().maxrss_mib, "MiB"},
      {"setup_s", setup_s, "s"},
      {"ok_frac", (attempted - static_cast<double>(p.failed)) / attempted,
       "fraction"},
  };
}

// Per-layer metrics: counters from the untraced phase, self time and the
// tracing overhead from the traced one. Per query unless the name says
// otherwise; core.max_level is the largest over the phase.
std::vector<Metric> PerLayer(const std::vector<Input>& inputs,
                             const Phase& u, const Phase& t,
                             const PrimitiveTimes& prim) {
  std::vector<double> passes, lvl[3], busy, touched, hashed, flushed, alpha,
      peak, fresh, spilled, read, queue_ms, self_ms;
  double max_level = 0, recycled = 0, chunks = 0, spilling = 0;
  for (const QueryRecord& r : u.queries) {
    const ExecStats& s = r.stats;
    const double exec_s =
        static_cast<double>(r.exec_end_ns - r.exec_start_ns) / 1e9;
    const double rows = static_cast<double>(inputs[r.input].keys.size());
    const double touched_rows =
        static_cast<double>(s.rows_hashed + s.rows_partitioned);
    double level_s = 0;
    for (double sec : s.seconds_at_level) level_s += sec;
    passes.push_back(static_cast<double>(s.passes));
    max_level = std::max(max_level, static_cast<double>(s.max_level));
    for (int l = 0; l < 3; ++l) lvl[l].push_back(s.seconds_at_level[l] * 1e3);
    busy.push_back(exec_s > 0 ? level_s / (kWorkers * exec_s) : 0);
    touched.push_back(touched_rows / rows);
    hashed.push_back(touched_rows > 0
                         ? static_cast<double>(s.rows_hashed) / touched_rows
                         : 0);
    flushed.push_back(static_cast<double>(s.tables_flushed));
    alpha.push_back(s.mean_alpha());
    peak.push_back(static_cast<double>(s.mem_peak_bytes) / kMiB);
    fresh.push_back(static_cast<double>(s.chunks_allocated));
    recycled += static_cast<double>(s.chunks_recycled);
    chunks += static_cast<double>(s.chunks_allocated + s.chunks_recycled);
    spilled.push_back(static_cast<double>(s.spilled_bytes) / kMiB);
    read.push_back(static_cast<double>(s.spill_read_bytes) / kMiB);
    spilling += s.spilled_bytes > 0 ? 1 : 0;
    queue_ms.push_back(static_cast<double>(r.queue_ns) / 1e6);
  }
  for (const QueryRecord& r : t.queries) self_ms.push_back(r.exec_self_ms);
  const double q = std::max<double>(1, static_cast<double>(u.queries.size()));
  const double untraced_p50 = Percentile(Latencies(u), 0.5);
  return {
      {"core.passes", Mean(passes), "count"},
      {"core.max_level", max_level, "level"},
      {"core.level0_cpu_ms", Mean(lvl[0]), "ms"},
      {"core.level1_cpu_ms", Mean(lvl[1]), "ms"},
      {"core.level2_cpu_ms", Mean(lvl[2]), "ms"},
      {"core.worker_busy_frac", Mean(busy), "fraction"},
      {"core.execute_self_ms", Mean(self_ms), "ms"},
      {"core.rows_touched_per_row", Mean(touched), "rows/row"},
      {"core.hashed_frac", Mean(hashed), "fraction"},
      {"core.tables_flushed", Mean(flushed), "count"},
      {"core.mean_alpha", Mean(alpha), "ratio"},
      {"hash.murmur_ns_per_key", prim.murmur_ns_per_key, "ns/key"},
      {"table.insert_ns_per_row", prim.insert_ns_per_row, "ns/row"},
      {"mem.swc_ns_per_row", prim.swc_ns_per_row, "ns/row"},
      {"mem.run_store_peak_mib", Mean(peak), "MiB"},
      {"mem.chunks_fresh", Mean(fresh), "count"},
      {"mem.chunk_recycle_frac", chunks > 0 ? recycled / chunks : 0,
       "fraction"},
      {"mem.minor_faults", static_cast<double>(u.minflt) / q, "count"},
      {"spill.spilled_mib", Mean(spilled), "MiB"},
      {"spill.read_mib", Mean(read), "MiB"},
      {"spill.spilling_query_frac", spilling / q, "fraction"},
      {"exec.admit_queue_ms_p50", Percentile(queue_ms, 0.5), "ms"},
      {"exec.admit_queue_ms_p90", Percentile(queue_ms, 0.9), "ms"},
      {"exec.tasks", static_cast<double>(u.tasks) / q, "count"},
      {"exec.helped_frac",
       u.tasks > 0 ? static_cast<double>(u.helped) / static_cast<double>(u.tasks)
                   : 0,
       "fraction"},
      {"exec.ctx_switches", static_cast<double>(u.ctx_switches) / q, "count"},
      {"obs.trace_overhead_frac",
       untraced_p50 > 0 ? Percentile(Latencies(t), 0.5) / untraced_p50 - 1 : 0,
       "fraction"},
  };
}

void PrintRecord(const Workload& w, const Args& args, const Runner& runner,
                 double setup_s, const std::vector<const Phase*>& phases,
                 const std::vector<Metric>& metrics) {
  uint64_t attempted = 0, failed = 0, mismatched = 0;
  std::string samples;
  for (const Phase* p : phases) {
    attempted += p->queries.size();
    failed += p->failed;
    mismatched += p->mismatched;
    std::vector<uint64_t> per_input(w.inputs.size(), 0);
    for (const QueryRecord& r : p->queries) ++per_input[r.input];
    samples += samples.empty() ? "[" : ",[";
    for (size_t i = 0; i < per_input.size(); ++i) {
      if (i > 0) samples += ",";
      samples += std::to_string(per_input[i]);
    }
    samples += "]";
  }
  std::printf("{\"workload\":\"%s\",\"mode\":\"%s\",\"seed\":%" PRIu64
              ",\"seconds\":%.17g,\"setup_s\":%.17g,\"attempted\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"mismatched\":%" PRIu64
              ",\"queries_per_input\":[%s],",
              w.name, args.mode.c_str(), args.seed, args.seconds, setup_s,
              attempted, failed, mismatched, samples.c_str());
  if (args.mode == "measure") {
    // Raw samples, so that run.py can pool several processes' runs.
    uint64_t rows = 0;
    double wall_s = 0;
    std::string ms;
    for (const Phase* p : phases) {
      rows += p->rows;
      wall_s += p->wall_s;
      for (double v : Latencies(*p)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.6f", ms.empty() ? "" : ",", v);
        ms += buf;
      }
    }
    std::printf("\"rows\":%" PRIu64 ",\"wall_s\":%.17g,\"maxrss_mib\":%.17g,"
                "\"latencies_ms\":[%s],",
                rows, wall_s, GetUsage().maxrss_mib, ms.c_str());
  }
  std::printf("\"machine\":{\"cpu_model\":\"%s\",\"nproc\":%u,"
              "\"workers\":%d,\"build_type\":\"%s\",\"cea_native\":%d,"
              "\"simd_tier\":\"%s\"},\"spill_fs\":\"%s\",\"metrics\":{",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              kWorkers, PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE,
              SimdTier(runner.warm_stats()).c_str(),
              FsType(w.spill ? args.spill_dir : "").c_str());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--mode") {
      args->mode = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--spill_dir") {
      args->spill_dir = val;
    } else if (key == "--trace_out") {
      args->trace_out = val;
    } else if (key == "--corrupt") {
      args->corrupt = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  if (args->mode != "measure" && args->mode != "trace") {
    std::fprintf(stderr, "perfbench: --mode must be measure or trace\n");
    return false;
  }
  if (!(args->seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const std::vector<Workload> workloads = Workloads();
  const Workload* w = nullptr;
  for (const Workload& cand : workloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (w->spill && args.spill_dir.empty()) {
    std::fprintf(stderr, "perfbench: %s needs --spill_dir\n", w->name);
    return 2;
  }

  Runner runner(*w, args);
  runner.MakeInputs();
  const double setup_s = runner.Setup();
  if (setup_s < 0) return 1;

  if (args.mode == "measure") {
    const Phase p = runner.RunPhase(args.seconds, /*traced=*/false);
    PrintRecord(*w, args, runner, setup_s, {&p}, EndToEnd(p, setup_s));
    return p.failed == 0 ? 0 : 1;
  }
  const Phase u = runner.RunPhase(args.seconds / 2, /*traced=*/false);
  const Phase t = runner.RunPhase(args.seconds / 2, /*traced=*/true);
  // The primitives' chunks come from the pool too; a workload's budget
  // must not fail them.
  cea::MemoryBudget::Global().SetLimit(0);
  const PrimitiveTimes prim = TimePrimitives(runner.inputs());
  if (!args.trace_out.empty() && !runner.WriteTrace(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write trace '%s'\n",
                 args.trace_out.c_str());
    return 1;
  }
  PrintRecord(*w, args, runner, setup_s, {&u, &t},
              PerLayer(runner.inputs(), u, t, prim));
  return u.failed + t.failed == 0 ? 0 : 1;
}
