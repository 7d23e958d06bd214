#include "src/experiment/sweep.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/experiment/cell_cache.h"
#include "src/sim/check.h"
#include "src/sim/rng.h"
#include "src/workload/catalog.h"

namespace aql {

// Calibrated quick preset: quick mode takes its cost cut from the cheap
// levers first — seed repeats collapse to one (Repeats) before simulated
// windows shrink — and the window floors are calibrated for vTRS fidelity,
// not minimality. With a 30 ms monitoring period and decisions every 4
// periods, a 600 ms warm-up lets LLC-resident working sets warm through the
// early trasher contention and a 1.5 s measure window carries ~12 decisions,
// which stops quick mode from misreading LLCF applications as LLCO (the
// cold-cache miss ratio reads capacity-bound). See README "Fidelity &
// reproducibility caveats".
TimeNs SweepOptions::Warmup(TimeNs full) const {
  if (!quick) {
    return full;
  }
  const TimeNs scaled = full / 10;
  return scaled < Ms(600) ? Ms(600) : scaled;
}

TimeNs SweepOptions::Measure(TimeNs full) const {
  if (!quick) {
    return full;
  }
  const TimeNs scaled = full / 10;
  return scaled < Ms(1500) ? Ms(1500) : scaled;
}

int SweepOptions::Repeats(int full) const { return quick ? 1 : full; }

SweepContext::SweepContext(const SweepOptions& options, std::vector<CellResult> cells)
    : options_(options), cells_(std::move(cells)) {}

bool SweepContext::HasCell(const std::string& id) const {
  for (const CellResult& c : cells_) {
    if (c.cell.id == id) {
      return true;
    }
  }
  return false;
}

const CellResult& SweepContext::Cell(const std::string& id) const {
  for (const CellResult& c : cells_) {
    if (c.cell.id == id) {
      return c;
    }
  }
  AQL_CHECK_MSG(false, ("no such cell: " + id).c_str());
}

const ScenarioResult& SweepContext::Result(const std::string& id) const {
  return Cell(id).result;
}

double SweepContext::Primary(const std::string& id, const std::string& group) const {
  return Result(id).GroupPrimary(group);
}

void SweepContext::Print(const std::string& t) { text += t; }

void SweepContext::AddTable(const std::string& title, const TextTable& table) {
  text += title + "\n" + table.ToString() + "\n";
  tables.emplace_back(title, table);
}

void SweepContext::Summary(const std::string& key, double value) {
  summary.emplace_back(key, value);
}

void SweepContext::Note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, value);
}

void SweepContext::Timing(const std::string& key, double value) {
  timings.emplace_back(key, value);
}

namespace {

CellResult RunCell(const SweepCell& cell, const SweepOptions& sweep_options) {
  // Cell-level validation with a catchable error: a sweep whose build step
  // emitted a bad scenario (e.g. an application name missing from the
  // catalog) fails THIS cell — reported as a structured `error` entry while
  // the remaining cells still run — instead of aborting the whole process
  // the way the simulator's internal AQL_CHECK invariants do.
  for (const VmSpec& vm : cell.scenario.vms) {
    if (vm.app != kTraceAppName && !HasApp(vm.app)) {
      throw std::runtime_error("unknown application: " + vm.app);
    }
  }
  CellResult out;
  out.cell = cell;
  RunOptions options;
  options.profile = sweep_options.profile;
  options.island_threads = sweep_options.island_threads;
  if (cell.trace_cursors) {
    auto* trace = &out.cursor_trace;
    options.trace = [trace](TimeNs, int vcpu, const CursorSet&, const CursorSet& avg) {
      if (vcpu == 0) {
        trace->push_back(avg);
      }
    };
  }
  out.result = RunScenario(cell.scenario, cell.policy, options);
  return out;
}

// Cache-aware cell execution: cells are pure functions of their (already
// seed-derived) configuration, so a valid cache entry substitutes for the
// simulation bit-for-bit (the entry stores the full serialized result).
// Entries are keyed by configuration, not by (sweep, cell-id), so a hit may
// come from another sweep's identical cell; re-stamping `out.cell` keeps
// this run's own labels on the result. A shard's only output is the cache,
// so a sharded run fails the cell when its result could not be stored.
CellResult RunOrLoadCell(const SweepCell& cell, const SweepOptions& options,
                         CellCache* cache) {
  if (cache == nullptr) {
    return RunCell(cell, options);
  }
  CellCacheKey key;
  key.derived_seed = cell.scenario.machine.seed;
  key.quick = options.quick;
  key.config_fingerprint = CellConfigFingerprint(cell);
  CellResult out;
  if (cache->Load(key, &out)) {
    out.cell = cell;
    return out;
  }
  out = RunCell(cell, options);
  if (!cache->Store(key, out) && options.shard_count > 0) {
    throw std::runtime_error("cannot store the result in " + cache->PathFor(key));
  }
  return out;
}

CellResult FailedCell(const SweepCell& cell, std::string error) {
  CellResult out;
  out.cell = cell;
  out.error = std::move(error);
  return out;
}

}  // namespace

std::vector<SweepCell> ExpandCells(const SweepSpec& spec, const SweepOptions& options) {
  std::vector<SweepCell> cells = spec.build(options);
  AQL_CHECK_MSG(!cells.empty(), "sweep expanded to zero cells");
  std::set<std::string> ids;
  for (SweepCell& cell : cells) {
    AQL_CHECK_MSG(ids.insert(cell.id).second, ("duplicate cell id: " + cell.id).c_str());
    // Per-cell seeding happens before dispatch so the derived stream is a
    // function of the declared seed only, never of worker scheduling.
    cell.scenario.machine.seed =
        Rng::DeriveSeed(cell.scenario.machine.seed, options.seed_salt);
  }
  return cells;
}

bool CellInShard(size_t index, int shard_index, int shard_count) {
  if (shard_count <= 0) {
    return true;
  }
  return static_cast<int>(index % static_cast<size_t>(shard_count)) == shard_index - 1;
}

SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();

  const bool sharded = options.shard_count > 0;
  if (sharded) {
    AQL_CHECK_MSG(options.shard_index >= 1 && options.shard_index <= options.shard_count,
                  "shard index out of range (want 1 <= K <= N)");
    AQL_CHECK_MSG(!options.cache_dir.empty(),
                  "a sharded run stores its cells in the cell cache: set cache_dir");
  }
  const bool cell_selected = !options.only_cell.empty();
  AQL_CHECK_MSG(!(sharded && cell_selected),
                "--cell and --shard are mutually exclusive");

  std::vector<SweepCell> cells = ExpandCells(spec, options);
  if (sharded) {
    std::vector<SweepCell> mine;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (CellInShard(i, options.shard_index, options.shard_count)) {
        mine.push_back(std::move(cells[i]));
      }
    }
    cells = std::move(mine);  // may legitimately be empty (N > total cells)
  } else if (cell_selected) {
    std::vector<SweepCell> mine;
    for (SweepCell& cell : cells) {
      if (cell.id == options.only_cell) {
        mine.push_back(std::move(cell));
      }
    }
    AQL_CHECK_MSG(!mine.empty(),
                  ("no such cell in sweep: " + options.only_cell).c_str());
    cells = std::move(mine);
  }

  std::unique_ptr<CellCache> cache;
  if (!options.cache_dir.empty()) {
    cache = std::make_unique<CellCache>(options.cache_dir);
  }

  std::vector<CellResult> results(cells.size());
  // Mid-sweep failure containment: a cell whose scenario build or run
  // throws becomes a structured per-cell `error` entry (never cached, never
  // rendered) and the remaining cells still run; aql_bench turns any failed
  // cell into a non-zero exit after finishing every sweep. AQL_CHECK
  // violations still abort — they are simulator invariants, not input
  // errors.
  const auto run_guarded = [&cells, &options, &results, &cache](size_t i) {
    try {
      results[i] = RunOrLoadCell(cells[i], options, cache.get());
    } catch (const std::exception& e) {
      results[i] = FailedCell(cells[i], e.what());
    } catch (...) {
      results[i] = FailedCell(cells[i], "unknown exception");
    }
  };
  // Single-cell runs (a --cell selection, or a sweep/shard that expanded to
  // one cell) execute inline: the worker pool would add thread setup around
  // a single unit of work, and --cell + --island-threads benchmarks must
  // measure island parallelism alone. The pool clamp below guarantees this
  // (jobs collapses to 1), and the branch keeps the guarantee explicit.
  const size_t jobs =
      std::min<size_t>(cells.size(), options.jobs < 1 ? 1 : options.jobs);
  if (jobs <= 1 || cells.size() <= 1) {
    for (size_t i = 0; i < cells.size(); ++i) {
      run_guarded(i);
    }
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&cells, &next, &run_guarded] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= cells.size()) {
          return;
        }
        run_guarded(i);
      }
    };
    std::vector<std::thread> pool;
    for (size_t t = 1; t < jobs; ++t) {
      pool.emplace_back(worker);
    }
    worker();
    for (std::thread& t : pool) {
      t.join();
    }
  }

  size_t failed_cells = 0;
  for (const CellResult& r : results) {
    if (!r.error.empty()) {
      ++failed_cells;
    }
  }
  SweepContext ctx(options, std::move(results));
  // A shard (or a --cell selection) holds an arbitrary subset of cells, so
  // the render step (which addresses cells by id across the whole sweep)
  // only runs over full expansions; an unsharded run over the shards'
  // cache renders the union.
  double render_seconds = 0.0;
  if (failed_cells > 0) {
    // Renderers address cells by id and expect complete results; with any
    // cell failed, the render would be misleading at best. The per-cell
    // error entries carry the diagnosis.
    ctx.Print("render skipped: " + std::to_string(failed_cells) +
              " cell(s) failed (see per-cell error entries)\n");
  } else if (!sharded && !cell_selected && spec.render) {
    const auto render_start = std::chrono::steady_clock::now();
    spec.render(ctx);
    render_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - render_start)
            .count();
  }

  SweepResult out;
  out.name = spec.name;
  out.description = spec.description;
  out.options = options;
  out.cells = ctx.TakeCells();
  out.text = std::move(ctx.text);
  out.tables = std::move(ctx.tables);
  out.summary = std::move(ctx.summary);
  out.notes = std::move(ctx.notes);
  out.timings = std::move(ctx.timings);
  out.failed_cells = failed_cells;
  if (options.profile) {
    // Completes the --profile phase picture: compute phases live in the
    // per-cell `profile` objects, the render step is sweep-level.
    out.timings.emplace_back("render_seconds", render_seconds);
  }
  if (cache != nullptr) {
    // Cache effectiveness is run-environment state, not simulation output,
    // so it rides with the wall-clock timings (excluded from stable JSON).
    out.timings.emplace_back("cache_hits", static_cast<double>(cache->hits()));
    out.timings.emplace_back("cache_misses", static_cast<double>(cache->misses()));
  }
  const auto wall_end = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  return out;
}

JsonValue ScenarioJson(const ScenarioSpec& spec) {
  JsonValue vms = JsonValue::Array();
  for (const VmSpec& vm : spec.vms) {
    JsonValue v = JsonValue::Object();
    v.Set("app", vm.app).Set("vcpus", vm.vcpus).Set("weight", vm.weight);
    if (vm.cap_percent > 0) {
      v.Set("cap_percent", vm.cap_percent);
    }
    if (vm.fifo_lock) {
      v.Set("fifo_lock", true);
    }
    vms.Push(std::move(v));
  }
  JsonValue s = JsonValue::Object();
  s.Set("name", spec.name)
      .Set("seed", spec.machine.seed)
      .Set("pcpus", spec.machine.topology.TotalPcpus())
      .Set("warmup_ms", ToMs(spec.warmup))
      .Set("measure_ms", ToMs(spec.measure))
      .Set("vms", std::move(vms));
  if (!spec.trace_path.empty()) {
    // Trace-driven scenarios only: absent otherwise so the JSON of existing
    // scenarios (and the committed goldens) stays byte-identical.
    s.Set("trace_path", spec.trace_path);
  }
  if (spec.fleet.hosts > 0) {
    // Fleet scenarios only: absent for single-machine scenarios so their
    // JSON (and the committed goldens) stays byte-identical. `pcpus` above
    // is the per-host count; the fleet block carries the host dimension.
    JsonValue fleet = JsonValue::Object();
    fleet.Set("hosts", spec.fleet.hosts)
        .Set("policy", ClusterPolicyName(spec.fleet.policy))
        .Set("epoch_ms", ToMs(spec.fleet.epoch))
        .Set("max_migrations_per_epoch", spec.fleet.max_migrations_per_epoch)
        .Set("dirty_pages_per_vcpu", spec.fleet.migration.dirty_pages_per_vcpu)
        .Set("page_bytes", spec.fleet.migration.page_bytes);
    if (spec.fleet.drain.Active()) {
      JsonValue drain_hosts = JsonValue::Array();
      for (const int h : spec.fleet.drain.hosts) {
        drain_hosts.Push(h);
      }
      JsonValue drain = JsonValue::Object();
      drain.Set("hosts", std::move(drain_hosts))
          .Set("start_ms", ToMs(spec.fleet.drain.start))
          .Set("interval_ms", ToMs(spec.fleet.drain.interval))
          .Set("batch_per_epoch", spec.fleet.drain.batch_per_epoch);
      fleet.Set("drain", std::move(drain));
    }
    if (!spec.fleet.declared_hosts.empty()) {
      JsonValue declared = JsonValue::Array();
      for (const int h : spec.fleet.declared_hosts) {
        declared.Push(h);
      }
      fleet.Set("declared_hosts", std::move(declared));
    }
    if (spec.fleet.fault.Active()) {
      // Fault-injecting fleets only: absent for fault-free fleets so their
      // JSON (and the committed goldens) stays byte-identical. Entering the
      // scenario JSON also puts the fault plan into the cell-cache
      // fingerprint automatically.
      const FleetFaultPlan& fp = spec.fleet.fault;
      JsonValue fault = JsonValue::Object();
      fault.Set("crash_rate_per_host_per_sec", fp.crash_rate_per_host_per_sec)
          .Set("host_reboot_ms", ToMs(fp.host_reboot))
          .Set("vm_restart_delay_ms", ToMs(fp.vm_restart_delay))
          .Set("restart_charge_per_vcpu_ms", ToMs(fp.restart_charge_per_vcpu))
          .Set("migration_failure_prob", fp.migration_failure_prob)
          .Set("abort_fraction", fp.abort_fraction)
          .Set("max_retries", fp.max_retries)
          .Set("backoff", fp.backoff)
          .Set("backoff_base_ms", ToMs(fp.backoff_base))
          .Set("degrade_rate_per_host_per_sec", fp.degrade_rate_per_host_per_sec)
          .Set("degraded_bw_scale", fp.degraded_bw_scale)
          .Set("degraded_pcpu_drop", fp.degraded_pcpu_drop);
      fleet.Set("fault", std::move(fault));
    }
    s.Set("fleet", std::move(fleet));
  }
  return s;
}

namespace {

JsonValue GroupJson(const GroupPerf& g) {
  JsonValue metrics = JsonValue::Object();
  for (const auto& [k, v] : g.metrics) {
    metrics.Set(k, v);
  }
  JsonValue out = JsonValue::Object();
  out.Set("name", g.name)
      .Set("vcpus", g.vcpus)
      .Set("primary", g.primary)
      .Set("metrics", std::move(metrics));
  return out;
}

JsonValue CellJson(const CellResult& cell, bool include_timing) {
  if (!cell.error.empty()) {
    // Failed cell: identity plus the structured error, none of the measured
    // fields (there was no measurement).
    JsonValue out = JsonValue::Object();
    out.Set("id", cell.cell.id)
        .Set("scenario", ScenarioJson(cell.cell.scenario))
        .Set("policy", cell.cell.policy.Label())
        .Set("error", cell.error);
    return out;
  }
  const ScenarioResult& r = cell.result;
  JsonValue groups = JsonValue::Array();
  for (const GroupPerf& g : r.groups) {
    groups.Push(GroupJson(g));
  }
  JsonValue out = JsonValue::Object();
  out.Set("id", cell.cell.id)
      .Set("scenario", ScenarioJson(cell.cell.scenario))
      .Set("policy", cell.cell.policy.Label())
      .Set("measure_window_ms", ToMs(r.measure_window))
      .Set("cpu_utilization", r.cpu_utilization)
      .Set("controller_overhead_ms", ToMs(r.controller_overhead))
      .Set("events_processed", r.events_processed)
      .Set("groups", std::move(groups));
  if (!r.detected_types.empty()) {
    // std::map keys iterate sorted, so emission order is deterministic.
    JsonValue types = JsonValue::Object();
    for (const auto& [vcpu, type] : r.detected_types) {
      types.Set(std::to_string(vcpu), VcpuTypeName(type));
    }
    out.Set("detected_types", std::move(types));
  }
  if (!r.pools.empty()) {
    JsonValue pools = JsonValue::Array();
    for (const ScenarioResult::PoolInfo& p : r.pools) {
      JsonValue pj = JsonValue::Object();
      pj.Set("label", p.label)
          .Set("quantum_ms", ToMs(p.quantum))
          .Set("pcpus", static_cast<int64_t>(p.pcpus.size()))
          .Set("vcpus", static_cast<int64_t>(p.vcpus.size()));
      pools.Push(std::move(pj));
    }
    out.Set("pools", std::move(pools));
  }
  if (r.plan_applications > 0) {
    out.Set("plan_applications", r.plan_applications);
  }
  if (include_timing) {
    out.Set("wall_seconds", r.wall_seconds);
    if (!r.profile.empty()) {
      // --profile phase breakdown. Wall-clock data: rides with the timing
      // fields only, so --stable-json output stays byte-comparable whether
      // or not the run was profiled (std::map keys keep emission order
      // deterministic).
      JsonValue profile = JsonValue::Object();
      for (const auto& [k, v] : r.profile) {
        profile.Set(k, v);
      }
      out.Set("profile", std::move(profile));
    }
  }
  return out;
}

JsonValue TableJson(const std::string& title, const TextTable& table) {
  JsonValue header = JsonValue::Array();
  for (const std::string& h : table.header()) {
    header.Push(h);
  }
  JsonValue rows = JsonValue::Array();
  for (const auto& row : table.row_data()) {
    JsonValue r = JsonValue::Array();
    for (const std::string& v : row) {
      r.Push(v);
    }
    rows.Push(std::move(r));
  }
  JsonValue out = JsonValue::Object();
  out.Set("title", title).Set("header", std::move(header)).Set("rows", std::move(rows));
  return out;
}

}  // namespace

JsonValue SweepJson(const SweepResult& result, bool include_timing) {
  JsonValue doc = JsonValue::Object();
  doc.Set("bench", result.name).Set("description", result.description);

  JsonValue opts = JsonValue::Object();
  opts.Set("quick", result.options.quick)
      .Set("seed_salt", result.options.seed_salt);
  if (include_timing) {
    // Thread counts never affect results; they are timing metadata. Both
    // levers ride here so a reader of the timed JSON can tell which
    // parallelism produced its wall times.
    opts.Set("jobs", result.options.jobs);
    opts.Set("island_threads", result.options.island_threads);
  }
  doc.Set("options", std::move(opts));

  JsonValue summary = JsonValue::Object();
  for (const auto& [k, v] : result.summary) {
    summary.Set(k, v);
  }
  doc.Set("summary", std::move(summary));

  if (!result.notes.empty()) {
    JsonValue notes = JsonValue::Object();
    for (const auto& [k, v] : result.notes) {
      notes.Set(k, v);
    }
    doc.Set("notes", std::move(notes));
  }

  JsonValue tables = JsonValue::Array();
  for (const auto& [title, table] : result.tables) {
    tables.Push(TableJson(title, table));
  }
  doc.Set("tables", std::move(tables));

  JsonValue cells = JsonValue::Array();
  for (const CellResult& c : result.cells) {
    cells.Push(CellJson(c, include_timing));
  }
  doc.Set("cells", std::move(cells));

  // Present only when something failed: a clean document keeps its exact
  // historical shape (committed goldens byte-compare whole files).
  if (result.failed_cells > 0) {
    doc.Set("failed_cells", static_cast<int64_t>(result.failed_cells));
  }

  if (include_timing) {
    JsonValue timing = JsonValue::Object();
    timing.Set("total_wall_seconds", result.wall_seconds);
    for (const auto& [k, v] : result.timings) {
      timing.Set(k, v);
    }
    doc.Set("timing", std::move(timing));
  }
  return doc;
}

std::string WriteSweepJson(const SweepResult& result, const std::string& out_dir,
                           bool include_timing) {
  std::filesystem::create_directories(out_dir);
  const std::string path = out_dir + "/BENCH_" + result.name + ".json";
  std::ofstream f(path);
  AQL_CHECK_MSG(f.good(), ("cannot write " + path).c_str());
  f << SweepJson(result, include_timing).Dump();
  f.close();
  AQL_CHECK_MSG(f.good(), ("failed writing " + path).c_str());
  return path;
}

}  // namespace aql
