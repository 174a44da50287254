// Machine-readable formatting of execution telemetry and results: JSON
// objects for the bench/trajectory tooling, the runtime-profile rendering
// of ExecStats, CSV for result export.

#ifndef CEA_CORE_STATS_IO_H_
#define CEA_CORE_STATS_IO_H_

#include <string>
#include <vector>

#include "cea/columnar/column.h"
#include "cea/common/machine.h"
#include "cea/core/routines.h"
#include "cea/obs/perf_counters.h"
#include "cea/obs/runtime_profile.h"

namespace cea {

// Compact JSON object with every ExecStats field (scalars plus a "levels"
// array trimmed to max_level). Keys are stable: trajectory tooling diffs
// these records across commits.
std::string ExecStatsToJson(const ExecStats& stats);

// Adds the profiled ExecStats counters (the CEA_EXEC_STATS_COUNTERS
// sections, plus one passes/level_N node per level) to the children of
// `root` that already exist: the caller creates the sections, so it
// decides their order and which ones appear.
void ExecStatsToProfile(const ExecStats& stats, obs::RuntimeProfile* root);

// JSON object of the machine parameters that shaped the run (cache sizes,
// hardware threads). Part of every bench record so results from different
// hosts are distinguishable.
std::string MachineInfoToJson(const MachineInfo& info);

// JSON object mapping each hardware event name to its count; events that
// were unavailable (no perf access) serialize as null, so records parse
// identically on machines without counters.
std::string PerfSampleToJson(const obs::PerfSample& sample);

// RFC 4180 field escaping: fields containing commas, quotes or newlines
// are double-quoted with embedded quotes doubled; all others pass
// through unchanged.
std::string CsvEscapeField(const std::string& field);

// Renders a ResultTable as CSV (header + up to `max_rows` rows; 0 = all).
// Key columns come first (key, key1, key2, ...), then one column per
// aggregate named after its function.
std::string ResultToCsv(const ResultTable& table, size_t max_rows = 0);

// Same, with caller-provided header names (key columns first, then
// aggregates; missing names fall back to the defaults). Names are escaped
// per RFC 4180, so labels containing commas or quotes round-trip.
std::string ResultToCsv(const ResultTable& table, size_t max_rows,
                        const std::vector<std::string>& column_names);

}  // namespace cea

#endif  // CEA_CORE_STATS_IO_H_
