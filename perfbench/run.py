#!/usr/bin/env python3
"""Repository benchmark: one workload per call, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --self-test          # a corrupted result must fail

Run from the repository root. The first call builds perfbench/ (and the
library from the repository's own CMake project) into .bench_build/. Each
workload runs in fresh processes, because the chunk pool, the memory budget
and the spill latch are process-global.

--trace 0 prints the end-to-end metrics, pooled over three measuring
processes that each time a third of --seconds: the timings of one process
tend to move together, and pooling averages that out. setup_s is the median
of their three cold set-ups.
--trace 1 prints the per-layer metrics of one process that runs an untraced
and a traced phase, and writes the traced spans to
.bench_build/perfbench/traces/<workload>-seed<N>.json.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the full record (seed, machine and build fingerprint,
sample counts). The exit code is non-zero when any query failed or returned
a result that differs from the oracle.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; the build of a fresh checkout is not counted.
RUN_BUDGET_S = 170
MEASURE_PROCESSES = 3


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configuring the benchmark failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args, deadline):
    """Runs the driver binary; returns (exit code, last JSON record or None)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before '%s'" % " ".join(args), 1)
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("'%s' ran out of time" % " ".join(args), 1)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    return proc.returncode, json.loads(lines[-1]) if lines else None


def percentile(values, q):
    """Nearest rank, as the driver binary computes it; 0 when empty."""
    if not values:
        return 0
    values = sorted(values)
    rank = min(max(math.ceil(q * len(values)), 1), len(values))
    return values[rank - 1]


def pool(records):
    """One measure record from several processes' records."""
    latencies = [ms for r in records for ms in r.pop("latencies_ms")]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    pooled = {k: records[0][k] for k in ("workload", "mode", "seed")}
    pooled.update({
        "seconds": sum(r["seconds"] for r in records),
        "attempted": attempted,
        "failed": failed,
        "mismatched": sum(r["mismatched"] for r in records),
        "queries_per_input": [q for r in records
                              for q in r["queries_per_input"]],
        "machine": records[0]["machine"],
        "spill_fs": records[0]["spill_fs"],
        "processes": records,
    })
    units = {n: m["unit"] for n, m in records[0]["metrics"].items()}
    values = {
        "query_ms_p50": percentile(latencies, 0.5),
        "query_ms_p90": percentile(latencies, 0.9),
        "rows_per_s": (sum(r["rows"] for r in records)
                       / sum(r["wall_s"] for r in records)),
        "peak_rss_mib": statistics.median(r["maxrss_mib"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "ok_frac": (attempted - failed) / attempted,
    }
    pooled["metrics"] = {n: {"value": v, "unit": units[n]}
                         for n, v in values.items()}
    return pooled


def run_workload(workload, seed, seconds, trace, corrupt):
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload=" + workload, "--seed=%d" % seed]
    spill_dir = tempfile.mkdtemp(prefix="spill-", dir=BUILD)
    common.append("--spill_dir=" + spill_dir)
    code = 0
    try:
        if trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            out = os.path.join(traces, "%s-seed%d.json" % (workload, seed))
            runs = [["--seconds=%s" % seconds, "--mode=trace",
                     "--trace_out=" + out]]
        else:
            runs = [["--seconds=%s" % (seconds / MEASURE_PROCESSES),
                     "--mode=measure"] + (["--corrupt"] if corrupt else [])
                    ] * MEASURE_PROCESSES
        records = []
        for args in runs:
            run_code, record = run_binary(common + args, deadline)
            if record is None:
                fail("%s printed no record (exit %d)" % (workload, run_code), 1)
            code = code or run_code
            records.append(record)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    spec, names = declared_metrics(trace)
    record = records[0] if trace else pool(records)
    metrics = record["metrics"]
    if sorted(metrics) != sorted(names):
        fail("%s reported %s, BENCHMARK.json declares %s"
             % (workload, sorted(metrics), sorted(names)), 1)
    for name in names:
        m = metrics[name]
        print("%-28s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(record))
    result = {
        "correct": record["mismatched"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: metrics[n] for n in names},
    }
    print(json.dumps(result), flush=True)
    return code == 0 and record["failed"] == 0


def self_test():
    """A falsified aggregate must be reported and fail the run."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", "hash_lowk",
           "--seed", "1", "--seconds", "1", "--trace", "0", "--corrupt"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if (proc.returncode != 0 and result.get("correct") is False
            and result.get("failed", 0) >= 1):
        print("self-test passed: the corrupted result was reported "
              "(failed=%d) and the run exited %d" % (result["failed"],
                                                     proc.returncode))
        return True
    print("self-test FAILED: exit %d, last line %r" % (proc.returncode,
                                                        lines[-1:] or None))
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one aggregate of the first query")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json is missing")
    build()
    if args.self_test:
        sys.exit(0 if self_test() else 1)
    if not args.workload:
        fail("--workload is required")
    spec, _ = declared_metrics(args.trace)
    # "all" runs the declared workloads; the driver binary knows the rest.
    todo = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
            else [args.workload])
    ok = True
    for workload in todo:
        ok = run_workload(workload, args.seed, args.seconds, args.trace,
                          args.corrupt) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
