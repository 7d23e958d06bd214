#include "src/experiment/cell_cache.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

namespace aql {

namespace {

inline constexpr int kCellCacheSchemaVersion = 2;

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Fnv1a(const std::string& s, uint64_t h = 14695981039346656037ULL) {
  // Hash the length too, so concatenated fields cannot alias.
  const uint64_t len = s.size();
  h = Fnv1a(&len, sizeof(len), h);
  return Fnv1a(s.data(), s.size(), h);
}

std::string HexHash(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Tolerant comparisons for entry validation: any absent, mistyped or
// out-of-range value is simply "not equal" (=> cache miss), never an abort.
bool UintEquals(const JsonValue* v, uint64_t want) {
  if (v == nullptr) {
    return false;
  }
  if (v->type() == JsonValue::Type::kUint) {
    return v->AsUint() == want;
  }
  if (v->type() == JsonValue::Type::kInt) {
    return v->AsInt() >= 0 && static_cast<uint64_t>(v->AsInt()) == want;
  }
  return false;
}

JsonValue MetricsJson(const std::map<std::string, double>& metrics) {
  JsonValue out = JsonValue::Object();
  for (const auto& [k, v] : metrics) {
    out.Set(k, v);
  }
  return out;
}

bool MetricsFromJson(const JsonValue& doc, std::map<std::string, double>* out,
                     std::string* error) {
  if (!doc.IsObject()) {
    *error = "metrics must be an object";
    return false;
  }
  for (const auto& [k, v] : doc.Members()) {
    if (!v.IsNumber()) {
      *error = "metric '" + k + "' is not a number";
      return false;
    }
    (*out)[k] = v.AsDouble();
  }
  return true;
}

// Fetches a required member, with a readable error on absence.
const JsonValue* Req(const JsonValue& doc, const std::string& key, std::string* error) {
  if (!doc.IsObject()) {
    *error = "expected an object around '" + key + "'";
    return nullptr;
  }
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) {
    *error = "missing field '" + key + "'";
  }
  return v;
}

// Typed required-field readers. Cache entries are external input, so a
// type mismatch must surface as a readable error, never as an accessor
// CHECK-abort.
bool ReadString(const JsonValue& doc, const std::string& key, std::string* out,
                std::string* error) {
  const JsonValue* v = Req(doc, key, error);
  if (v == nullptr) {
    return false;
  }
  if (!v->IsString()) {
    *error = "'" + key + "' must be a string";
    return false;
  }
  *out = v->AsString();
  return true;
}

bool ReadDouble(const JsonValue& doc, const std::string& key, double* out,
                std::string* error) {
  const JsonValue* v = Req(doc, key, error);
  if (v == nullptr) {
    return false;
  }
  if (!v->IsNumber()) {
    *error = "'" + key + "' must be a number";
    return false;
  }
  *out = v->AsDouble();
  return true;
}

bool IntValue(const JsonValue& v, int64_t* out) {
  if (v.type() == JsonValue::Type::kInt) {
    *out = v.AsInt();
    return true;
  }
  if (v.type() == JsonValue::Type::kUint &&
      v.AsUint() <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    *out = static_cast<int64_t>(v.AsUint());
    return true;
  }
  return false;
}

bool ReadI64(const JsonValue& doc, const std::string& key, int64_t* out,
             std::string* error) {
  const JsonValue* v = Req(doc, key, error);
  if (v == nullptr) {
    return false;
  }
  if (!IntValue(*v, out)) {
    *error = "'" + key + "' must be an integer";
    return false;
  }
  return true;
}

bool ReadU64(const JsonValue& doc, const std::string& key, uint64_t* out,
             std::string* error) {
  const JsonValue* v = Req(doc, key, error);
  if (v == nullptr) {
    return false;
  }
  if (v->type() == JsonValue::Type::kUint) {
    *out = v->AsUint();
    return true;
  }
  if (v->type() == JsonValue::Type::kInt && v->AsInt() >= 0) {
    *out = static_cast<uint64_t>(v->AsInt());
    return true;
  }
  *error = "'" + key + "' must be a non-negative integer";
  return false;
}

}  // namespace

JsonValue CellRecordJson(const CellResult& cell) {
  const ScenarioResult& r = cell.result;

  JsonValue reports = JsonValue::Array();
  for (const PerfReport& report : r.reports) {
    JsonValue rj = JsonValue::Object();
    rj.Set("workload", report.workload_name).Set("metrics", MetricsJson(report.metrics));
    reports.Push(std::move(rj));
  }

  JsonValue groups = JsonValue::Array();
  for (const GroupPerf& g : r.groups) {
    JsonValue gj = JsonValue::Object();
    gj.Set("name", g.name)
        .Set("vcpus", g.vcpus)
        .Set("primary", g.primary)
        .Set("metrics", MetricsJson(g.metrics));
    groups.Push(std::move(gj));
  }

  JsonValue result = JsonValue::Object();
  result.Set("scenario", r.scenario)
      .Set("policy", r.policy)
      .Set("measure_window_ns", r.measure_window)
      .Set("cpu_utilization", r.cpu_utilization)
      .Set("controller_overhead_ns", r.controller_overhead)
      .Set("events_processed", r.events_processed)
      .Set("plan_applications", r.plan_applications)
      .Set("wall_seconds", r.wall_seconds)
      .Set("reports", std::move(reports))
      .Set("groups", std::move(groups));

  if (!r.detected_types.empty()) {
    JsonValue types = JsonValue::Object();
    for (const auto& [vcpu, type] : r.detected_types) {
      types.Set(std::to_string(vcpu), VcpuTypeName(type));
    }
    result.Set("detected_types", std::move(types));
  }

  if (!r.pools.empty()) {
    JsonValue pools = JsonValue::Array();
    for (const ScenarioResult::PoolInfo& p : r.pools) {
      JsonValue ids = JsonValue::Array();
      for (int pcpu : p.pcpus) {
        ids.Push(pcpu);
      }
      JsonValue vids = JsonValue::Array();
      for (int vcpu : p.vcpus) {
        vids.Push(vcpu);
      }
      JsonValue pj = JsonValue::Object();
      pj.Set("label", p.label)
          .Set("quantum_ns", p.quantum)
          .Set("pcpus", std::move(ids))
          .Set("vcpus", std::move(vids));
      pools.Push(std::move(pj));
    }
    result.Set("pools", std::move(pools));
  }

  JsonValue rec = JsonValue::Object();
  rec.Set("id", cell.cell.id).Set("result", std::move(result));

  if (!cell.cursor_trace.empty()) {
    JsonValue trace = JsonValue::Array();
    for (const CursorSet& c : cell.cursor_trace) {
      JsonValue sample = JsonValue::Array();
      sample.Push(c.io).Push(c.conspin).Push(c.lolcf).Push(c.llcf).Push(c.llco);
      sample.Push(c.membw).Push(c.remote).Push(c.bursty);
      trace.Push(std::move(sample));
    }
    rec.Set("cursor_trace", std::move(trace));
  }
  return rec;
}

bool CellRecordFromJson(const JsonValue& record, CellResult* out, std::string* error) {
  const JsonValue* id = Req(record, "id", error);
  const JsonValue* res = Req(record, "result", error);
  if (id == nullptr || res == nullptr) {
    return false;
  }
  if (!id->IsString()) {
    *error = "cell id must be a string";
    return false;
  }
  out->cell.id = id->AsString();
  ScenarioResult& r = out->result;

  int64_t i64 = 0;
  if (!ReadString(*res, "scenario", &r.scenario, error) ||
      !ReadString(*res, "policy", &r.policy, error) ||
      !ReadI64(*res, "measure_window_ns", &r.measure_window, error) ||
      !ReadDouble(*res, "cpu_utilization", &r.cpu_utilization, error) ||
      !ReadI64(*res, "controller_overhead_ns", &r.controller_overhead, error) ||
      !ReadU64(*res, "events_processed", &r.events_processed, error) ||
      !ReadU64(*res, "plan_applications", &r.plan_applications, error) ||
      !ReadDouble(*res, "wall_seconds", &r.wall_seconds, error)) {
    return false;
  }

  const JsonValue* v = nullptr;
  if ((v = Req(*res, "reports", error)) == nullptr) return false;
  if (!v->IsArray()) {
    *error = "'reports' must be an array";
    return false;
  }
  for (const JsonValue& rj : v->Items()) {
    PerfReport report;
    if (!ReadString(rj, "workload", &report.workload_name, error)) return false;
    const JsonValue* metrics = Req(rj, "metrics", error);
    if (metrics == nullptr || !MetricsFromJson(*metrics, &report.metrics, error)) {
      return false;
    }
    r.reports.push_back(std::move(report));
  }

  if ((v = Req(*res, "groups", error)) == nullptr) return false;
  if (!v->IsArray()) {
    *error = "'groups' must be an array";
    return false;
  }
  for (const JsonValue& gj : v->Items()) {
    GroupPerf g;
    if (!ReadString(gj, "name", &g.name, error) ||
        !ReadI64(gj, "vcpus", &i64, error) ||
        !ReadDouble(gj, "primary", &g.primary, error)) {
      return false;
    }
    g.vcpus = static_cast<int>(i64);
    const JsonValue* metrics = Req(gj, "metrics", error);
    if (metrics == nullptr || !MetricsFromJson(*metrics, &g.metrics, error)) {
      return false;
    }
    r.groups.push_back(std::move(g));
  }

  if (const JsonValue* types = res->Find("detected_types")) {
    if (!types->IsObject()) {
      *error = "'detected_types' must be an object";
      return false;
    }
    for (const auto& [key, value] : types->Members()) {
      VcpuType type;
      char* end = nullptr;
      const long vcpu = std::strtol(key.c_str(), &end, 10);
      if (key.empty() || *end != '\0' || !value.IsString() ||
          !VcpuTypeFromName(value.AsString(), &type)) {
        *error = "bad detected-type entry for vCPU '" + key + "'";
        return false;
      }
      r.detected_types[static_cast<int>(vcpu)] = type;
    }
  }

  if (const JsonValue* pools = res->Find("pools")) {
    if (!pools->IsArray()) {
      *error = "'pools' must be an array";
      return false;
    }
    for (const JsonValue& pj : pools->Items()) {
      ScenarioResult::PoolInfo pool;
      if (!ReadString(pj, "label", &pool.label, error) ||
          !ReadI64(pj, "quantum_ns", &pool.quantum, error)) {
        return false;
      }
      for (const char* key : {"pcpus", "vcpus"}) {
        const JsonValue* ids = Req(pj, key, error);
        if (ids == nullptr) {
          return false;
        }
        if (!ids->IsArray()) {
          *error = std::string("pool '") + key + "' must be an array";
          return false;
        }
        for (const JsonValue& p : ids->Items()) {
          if (!IntValue(p, &i64)) {
            *error = std::string("pool '") + key + "' entries must be integers";
            return false;
          }
          (key[0] == 'p' ? pool.pcpus : pool.vcpus).push_back(static_cast<int>(i64));
        }
      }
      r.pools.push_back(std::move(pool));
    }
  }

  if (const JsonValue* trace = record.Find("cursor_trace")) {
    if (!trace->IsArray()) {
      *error = "'cursor_trace' must be an array";
      return false;
    }
    for (const JsonValue& sample : trace->Items()) {
      if (!sample.IsArray() || sample.size() != 8) {
        *error = "cursor_trace samples must be 8-element arrays";
        return false;
      }
      const std::vector<JsonValue>& s = sample.Items();
      for (const JsonValue& x : s) {
        if (!x.IsNumber()) {
          *error = "cursor_trace samples must contain numbers";
          return false;
        }
      }
      CursorSet c;
      c.io = s[0].AsDouble();
      c.conspin = s[1].AsDouble();
      c.lolcf = s[2].AsDouble();
      c.llcf = s[3].AsDouble();
      c.llco = s[4].AsDouble();
      c.membw = s[5].AsDouble();
      c.remote = s[6].AsDouble();
      c.bursty = s[7].AsDouble();
      out->cursor_trace.push_back(c);
    }
  }
  return true;
}

// Serializes every policy knob that can vary between cells sharing a label
// (PolicySpec::Label() is e.g. "AQL_Sched" for all AQL variants, and the
// overhead/fig6x sweeps build cells differing only in AqlConfig fields).
std::string PolicyConfigText(const PolicySpec& policy) {
  std::ostringstream os;
  os << policy.Label() << '|' << static_cast<int>(policy.kind) << '|'
     << policy.xen_quantum << '|' << policy.small_quantum << '|' << policy.turbo_pcpus;
  const AqlConfig& a = policy.aql;
  os << '|' << a.per_element_overhead << '|' << a.skip_unchanged_plans;
  os << '|' << a.numa.enabled << '|' << a.numa.decay_per_decision << '|'
     << a.numa.residual_scale << '|' << a.numa.migration_step_cost;
  const VtrsConfig& v = a.vtrs;
  os << '|' << v.io_limit << '|' << v.conspin_limit << '|' << v.llc_rr_limit << '|'
     << v.llc_mr_limit << '|' << v.membw_mpki_limit << '|' << v.remote_ratio_limit
     << '|' << v.bursty_spread_limit << '|' << v.window;
  const CalibrationTable& c = a.calibration;
  os << '|' << c.default_quantum;
  for (int t = 0; t < kNumVcpuTypes; ++t) {
    os << ',' << c.best_quantum[static_cast<size_t>(t)]
       << (c.agnostic[static_cast<size_t>(t)] ? 'a' : '-');
  }
  return os.str();
}

// Serializes the machine knobs the scenario JSON cannot see: the full
// topology, hardware cost parameters, Credit scheduler parameters and the
// monitoring period. Without these in the fingerprint, two sweeps building
// the same VM list on differently-tuned machines would alias — and with
// them, the fingerprint is a complete scenario description, which is what
// licenses dropping sweep/cell-id from the cache key.
std::string MachineConfigText(const MachineConfig& mc) {
  std::ostringstream os;
  const Topology& t = mc.topology;
  os << t.sockets << '|' << t.cores_per_socket << '|' << t.l1_bytes << '|'
     << t.l2_bytes << '|' << t.llc_bytes << '|' << t.numa_local_distance << '|'
     << t.numa_remote_distance << '|' << t.mem_bw_bytes_per_ns;
  const HwParams& hw = mc.hw;
  os << '|' << hw.llc_miss_penalty << '|' << hw.context_switch_cost << '|'
     << hw.pause_exit_interval << '|' << hw.min_miss_ratio << '|'
     << hw.cache_line_bytes << '|' << hw.running_eviction_weight << '|'
     << hw.stream_insertion_fraction;
  const CreditParams& cr = mc.credit;
  os << '|' << cr.accounting_period << '|' << cr.default_quantum << '|'
     << cr.boost_enabled << '|' << cr.credit_cap_factor;
  os << '|' << mc.monitor_period;
  return os.str();
}

// Trace-driven cells fingerprint the trace file's *content*, not just its
// path: editing a trace must invalidate every cached cell that replayed it.
// An unreadable file gets a sentinel (the run itself will then fail with the
// loader's error; the cache just must not serve a stale hit meanwhile).
std::string TraceContentText(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    return "<unreadable:" + path + ">";
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

uint64_t CellConfigFingerprint(const SweepCell& cell) {
  std::string text = ScenarioJson(cell.scenario).Dump();
  text += '\n';
  text += MachineConfigText(cell.scenario.machine);
  if (!cell.scenario.trace_path.empty()) {
    text += "\n|trace=";
    text += TraceContentText(cell.scenario.trace_path);
  }
  // The one fleet knob the scenario JSON omits (it only matters when the
  // host template declares no memory bandwidth).
  if (cell.scenario.fleet.hosts > 0) {
    std::ostringstream os;
    os << "|fleet_bw=" << cell.scenario.fleet.migration.fallback_bw_bytes_per_ns;
    text += os.str();
  }
  text += '\n';
  text += PolicyConfigText(cell.policy);
  if (cell.trace_cursors) {
    text += "/trace";
  }
  return Fnv1a(text);
}

CellCache::CellCache(std::string dir, uint64_t config_hash)
    : dir_(std::move(dir)), config_hash_(config_hash) {}

uint64_t CellCache::DefaultConfigHash() { return Fnv1a(kCellCacheEngineVersion); }

uint64_t CellCache::HashKey(const CellCacheKey& key) const {
  uint64_t h = Fnv1a(&key.derived_seed, sizeof(key.derived_seed),
                     14695981039346656037ULL);
  const uint64_t quick = key.quick ? 1 : 0;
  h = Fnv1a(&quick, sizeof(quick), h);
  h = Fnv1a(&config_hash_, sizeof(config_hash_), h);
  h = Fnv1a(&key.config_fingerprint, sizeof(key.config_fingerprint), h);
  return h;
}

std::string CellCache::PathFor(const CellCacheKey& key) const {
  return dir_ + "/cells/" + HexHash(HashKey(key)) + ".json";
}

bool CellCache::Load(const CellCacheKey& key, CellResult* out) {
  std::ifstream f(PathFor(key));
  if (!f.good()) {
    misses_.fetch_add(1);
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  std::string error;
  const JsonValue doc = JsonValue::Parse(buf.str(), &error);
  if (!error.empty() || !doc.IsObject()) {
    misses_.fetch_add(1);
    return false;
  }
  // Verify the stored key tuple: a filename collision or a hand-copied
  // entry must degrade to a miss, never to a wrong result. The record's
  // cell id / sweep labels are NOT verified — an entry may legitimately
  // have been computed by a different sweep for an identical cell, and the
  // caller re-stamps its own cell configuration.
  const JsonValue* schema = doc.Find("cache_schema");
  const JsonValue* seed = doc.Find("seed");
  const JsonValue* quick = doc.Find("quick");
  const JsonValue* config = doc.Find("config_hash");
  const JsonValue* cell_config = doc.Find("cell_config");
  const JsonValue* record = doc.Find("record");
  if (!UintEquals(schema, kCellCacheSchemaVersion) ||
      !UintEquals(seed, key.derived_seed) ||
      quick == nullptr || !quick->IsBool() || quick->AsBool() != key.quick ||
      !UintEquals(config, config_hash_) ||
      !UintEquals(cell_config, key.config_fingerprint) ||
      record == nullptr) {
    misses_.fetch_add(1);
    return false;
  }
  CellResult parsed;
  if (!CellRecordFromJson(*record, &parsed, &error)) {
    misses_.fetch_add(1);
    return false;
  }
  *out = std::move(parsed);
  hits_.fetch_add(1);
  return true;
}

bool CellCache::Store(const CellCacheKey& key, const CellResult& cell) {
  const std::string path = PathFor(key);
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  if (ec) {
    return false;
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("cache_schema", kCellCacheSchemaVersion)
      .Set("seed", key.derived_seed)
      .Set("quick", key.quick)
      .Set("config_hash", config_hash_)
      .Set("cell_config", key.config_fingerprint)
      .Set("record", CellRecordJson(cell));

  // Temp-file + rename keeps concurrent readers (and parallel shard
  // processes sharing the directory) from ever seeing a torn entry. The
  // temp name carries pid + thread id: thread ids alone are per-process
  // values that collide across processes sharing a cache directory.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid())) + "." +
      std::to_string(static_cast<unsigned long long>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
  {
    std::ofstream f(tmp);
    if (!f.good()) {
      return false;
    }
    f << doc.Dump();
    f.close();
    if (!f.good()) {
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

CellCache::GcStats CellCache::Gc(const std::string& dir, uint64_t max_bytes) {
  namespace fs = std::filesystem;
  GcStats stats;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return stats;
  }

  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    uint64_t bytes = 0;
  };
  std::vector<Entry> entries;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) {
      continue;
    }
    const fs::path& p = it->path();
    if (p.filename().string().find(".tmp.") != std::string::npos) {
      // A crashed writer's leftover: never a valid entry, always removable.
      fs::remove(p, ec);
      ++stats.tmp_removed;
      continue;
    }
    if (p.extension() != ".json") {
      continue;
    }
    Entry e;
    e.path = p;
    e.mtime = fs::last_write_time(p, ec);
    if (ec) {
      continue;  // vanished underneath us (concurrent writer/gc)
    }
    e.bytes = static_cast<uint64_t>(fs::file_size(p, ec));
    if (ec) {
      continue;
    }
    entries.push_back(std::move(e));
  }

  stats.entries_before = entries.size();
  for (const Entry& e : entries) {
    stats.bytes_before += e.bytes;
  }
  stats.bytes_after = stats.bytes_before;

  // Oldest first; equal mtimes (coarse filesystems) break by path so the
  // eviction order is deterministic.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.mtime != b.mtime) {
      return a.mtime < b.mtime;
    }
    return a.path < b.path;
  });
  for (const Entry& e : entries) {
    if (stats.bytes_after <= max_bytes) {
      break;
    }
    fs::remove(e.path, ec);
    if (ec) {
      continue;  // unremovable entries simply stay resident
    }
    stats.bytes_after -= e.bytes;
    ++stats.entries_evicted;
  }
  return stats;
}

}  // namespace aql
