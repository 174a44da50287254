#include "cea/core/stats_io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "cea/obs/json_writer.h"
#include "cea/obs/runtime_profile.h"

namespace cea {
namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

void JsonValue(obs::JsonWriter& w, uint64_t v) { w.Uint(v); }
void JsonValue(obs::JsonWriter& w, int v) { w.Int(v); }
void JsonValue(obs::JsonWriter& w, double v) { w.Double(v); }

// Levels 0..max_level, the ones the JSON and the profile report.
int NumLevels(const ExecStats& stats) {
  return std::min(stats.max_level + 1, kMaxRadixLevel + 1);
}

}  // namespace

std::string ExecStatsToJson(const ExecStats& stats) {
  obs::JsonWriter w;
  w.BeginObject();
#define CEA_JSON_FIELD(field, ...) JsonValue(w.Key(#field), stats.field);
#define CEA_JSON_LEVEL(field, type, key, ...) \
  JsonValue(w.Key(key), stats.field[l]);
  CEA_EXEC_STATS_COUNTERS(CEA_JSON_FIELD)
  w.Key("mean_alpha").Double(stats.mean_alpha());
  w.Key("levels").BeginArray();
  for (int l = 0; l < NumLevels(stats); ++l) {
    w.BeginObject().Key("level").Int(l);
    CEA_EXEC_STATS_LEVEL_COUNTERS(CEA_JSON_LEVEL)
    w.EndObject();
  }
#undef CEA_JSON_FIELD
#undef CEA_JSON_LEVEL
  w.EndArray();
  w.EndObject();
  return w.str();
}

void ExecStatsToProfile(const ExecStats& stats, obs::RuntimeProfile* root) {
  using Unit = obs::RuntimeProfile::Unit;
  using MergeOp = obs::RuntimeProfile::MergeOp;
#define CEA_PROFILE_FIELD(field, type, merge, sect, name, unit) \
  if (obs::RuntimeProfile* node = root->FindChild(sect)) {      \
    node->AddCounter(name, Unit::unit, MergeOp::merge)          \
        ->Set(static_cast<int64_t>(stats.field));               \
  }
#define CEA_PROFILE_LEVEL(field, type, key, name, unit, scale) \
  level->AddCounter(name, Unit::unit)                          \
      ->Set(static_cast<int64_t>(stats.field[l] * scale));
  CEA_EXEC_STATS_COUNTERS(CEA_PROFILE_FIELD)
  if (obs::RuntimeProfile* passes = root->FindChild("passes")) {
    for (int l = 0; l < NumLevels(stats); ++l) {
      obs::RuntimeProfile* level =
          passes->GetOrCreateChild("level_" + std::to_string(l));
      CEA_EXEC_STATS_LEVEL_COUNTERS(CEA_PROFILE_LEVEL)
    }
  }
#undef CEA_PROFILE_FIELD
#undef CEA_PROFILE_LEVEL
}

std::string MachineInfoToJson(const MachineInfo& info) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("hardware_threads").Int(info.hardware_threads);
  w.Key("l3_bytes_total").Uint(info.l3_bytes_total);
  w.Key("l3_bytes_per_thread").Uint(info.l3_bytes_per_thread);
  w.Key("cache_line_bytes").Uint(kCacheLineBytes);
  w.EndObject();
  return w.str();
}

std::string PerfSampleToJson(const obs::PerfSample& sample) {
  obs::JsonWriter w;
  w.BeginObject();
  for (int e = 0; e < obs::kNumPerfEvents; ++e) {
    w.Key(obs::PerfEventName(e));
    if (sample.valid[e]) {
      w.Uint(sample.value[e]);
    } else {
      w.Null();
    }
  }
  w.EndObject();
  return w.str();
}

std::string CsvEscapeField(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string ResultToCsv(const ResultTable& table, size_t max_rows) {
  return ResultToCsv(table, max_rows, {});
}

std::string ResultToCsv(const ResultTable& table, size_t max_rows,
                        const std::vector<std::string>& column_names) {
  const size_t key_cols = 1 + table.extra_keys.size();
  auto header = [&](size_t index, const std::string& fallback) {
    const std::string& name =
        index < column_names.size() ? column_names[index] : fallback;
    return CsvEscapeField(name.empty() ? fallback : name);
  };

  std::string out = header(0, "key");
  for (size_t w = 0; w < table.extra_keys.size(); ++w) {
    out += ",";
    out += header(w + 1, "key" + std::to_string(w + 1));
  }
  for (size_t a = 0; a < table.aggregates.size(); ++a) {
    out += ",";
    out += header(key_cols + a, AggFnName(table.aggregates[a].fn));
  }
  out += "\n";

  size_t rows = table.num_groups();
  if (max_rows != 0 && max_rows < rows) rows = max_rows;
  for (size_t i = 0; i < rows; ++i) {
    Appendf(&out, "%" PRIu64, table.keys[i]);
    for (const auto& col : table.extra_keys) {
      Appendf(&out, ",%" PRIu64, col[i]);
    }
    for (const ResultColumn& col : table.aggregates) {
      if (col.fn == AggFn::kAvg) {
        Appendf(&out, ",%.6g", col.f64[i]);
      } else {
        Appendf(&out, ",%" PRIu64, col.u64[i]);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace cea
