// The sweep engine behind aql_bench: a sweep is a named cross-product of
// scenarios x policies ("cells") plus a render step that turns the collected
// cell results into the paper's tables and summary metrics.
//
// Cells are independent simulations, so the engine executes them on a
// std::thread worker pool. Determinism is preserved regardless of thread
// count: every cell's RNG stream is derived up front from the scenario's
// declared seed via Rng::DeriveSeed, each cell owns its Simulation, and
// results land in a pre-sized slot indexed by cell order. A sweep run with
// --jobs 1 and --jobs N therefore produces identical metric values
// cell-for-cell (tests/sweep_test.cc asserts this).

#ifndef AQLSCHED_SRC_EXPERIMENT_SWEEP_H_
#define AQLSCHED_SRC_EXPERIMENT_SWEEP_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cursors.h"
#include "src/experiment/json_out.h"
#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"
#include "src/metrics/table.h"

namespace aql {

struct SweepOptions {
  // Scaled-down simulated durations for CI smoke runs.
  bool quick = false;
  // Worker threads running cells (values < 1 mean "one").
  int jobs = 1;
  // Mixed into every cell's declared machine seed (Rng::DeriveSeed). The
  // same salt yields the same cell streams, so paired comparisons (policy A
  // vs B on one scenario seed) stay variance-reduced.
  uint64_t seed_salt = 0x51eedca11ULL;
  // Sharded execution (`--shard K/N`): run only the cells whose expansion
  // index i satisfies i % shard_count == shard_index - 1 (round-robin, so
  // shards are balanced regardless of how a sweep orders its cells).
  // shard_count == 0 means unsharded. A sharded run needs `cache_dir`: it
  // stores every cell it computes there and skips the render step; an
  // unsharded run over the shards' cache renders the union from hits.
  int shard_index = 0;  // 1-based
  int shard_count = 0;
  // Run a single cell by id (`--cell <id>`): the expansion is filtered to
  // that one cell and the render step is skipped (render addresses cells
  // across the whole sweep). Used by CI perf probes that want one full-mode
  // cell's wall time without paying for its siblings. Mutually exclusive
  // with sharding; empty selects every cell.
  std::string only_cell;
  // Collect per-cell wall-clock phase breakdowns (`--profile`): each
  // freshly-computed cell carries a `profile` object in timing-enabled JSON
  // (docs/BENCH_FORMAT.md). Never present in --stable-json output, and never
  // served from the cell cache (a cache hit did not simulate anything).
  bool profile = false;
  // Fleet cells only: worker threads advancing host islands inside one cell
  // (`--island-threads`). Orthogonal to `jobs` (which parallelizes across
  // cells): a 1024-host fleet cell is a single unit of `jobs` work, and
  // island threads are the only lever inside it. Execution-only knob —
  // stable JSON and the cell-cache key are independent of it by contract
  // (tests/fleet_parallel_test.cc, docs/BENCH_FORMAT.md).
  int island_threads = 1;
  // Cell-result cache directory (`--cache-dir`); empty disables caching.
  // See src/experiment/cell_cache.h for the key and invalidation contract.
  std::string cache_dir;

  // Window scaling helpers used by sweep builders: full durations in normal
  // mode, ~10x shorter in quick mode with floors that keep the vTRS
  // monitoring/decision cadence (30 ms periods, decisions every 4) alive.
  TimeNs Warmup(TimeNs full) const;
  TimeNs Measure(TimeNs full) const;
  // Seed-replication count: quick mode collapses repeats to one.
  int Repeats(int full) const;
};

// One independent simulation: a scenario under a policy.
struct SweepCell {
  std::string id;  // unique within the sweep; stable across runs
  ScenarioSpec scenario;
  PolicySpec policy;
  // Collect vCPU 0's per-period cursor window averages (Fig. 4 / Table 3).
  bool trace_cursors = false;
};

struct CellResult {
  SweepCell cell;
  ScenarioResult result;
  std::vector<CursorSet> cursor_trace;
  // Non-empty when the cell's scenario build or run threw instead of
  // completing: the engine records the failure here (structured `error`
  // entry in JSON), finishes the remaining cells, and aql_bench exits
  // non-zero. Failed cells are never cached or rendered. In a sharded run
  // a cell whose result could not be stored in the cache fails too.
  std::string error;
};

// Render-time view over the finished cells plus output collection. Tables
// and summary metrics are deterministic and go into BENCH_<name>.json;
// Timing() values (wall-clock measurements) are segregated so JSON output
// stays byte-comparable across runs and thread counts.
class SweepContext {
 public:
  SweepContext(const SweepOptions& options, std::vector<CellResult> cells);

  const SweepOptions& options() const { return options_; }
  bool quick() const { return options_.quick; }
  const std::vector<CellResult>& cells() const { return cells_; }
  bool HasCell(const std::string& id) const;
  const CellResult& Cell(const std::string& id) const;  // aborts if missing
  const ScenarioResult& Result(const std::string& id) const;
  // Primary metric of `group` in cell `id` (paper's smaller-is-better cost).
  double Primary(const std::string& id, const std::string& group) const;

  // --- output collection (render step) ---
  void Print(const std::string& text);  // free-form human-readable output
  void AddTable(const std::string& title, const TextTable& table);
  void Summary(const std::string& key, double value);
  void Note(const std::string& key, const std::string& value);
  // Wall-clock measurement; units are carried by the key (e.g. "_seconds",
  // "_ns_per_op" suffixes).
  void Timing(const std::string& key, double value);

  // Collected output, consumed by RunSweep.
  std::string text;
  std::vector<std::pair<std::string, TextTable>> tables;
  std::vector<std::pair<std::string, double>> summary;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::pair<std::string, double>> timings;

  std::vector<CellResult> TakeCells() { return std::move(cells_); }

 private:
  const SweepOptions& options_;
  std::vector<CellResult> cells_;
};

struct SweepSpec {
  std::string name;         // CLI handle; JSON goes to BENCH_<name>.json
  std::string description;  // one-liner for --list
  // Expands the sweep into cells. Must be deterministic in `options`.
  std::function<std::vector<SweepCell>(const SweepOptions&)> build;
  // Produces tables/summary from the finished cells.
  std::function<void(SweepContext&)> render;
};

struct SweepResult {
  std::string name;
  std::string description;
  SweepOptions options;
  std::vector<CellResult> cells;
  // Render output (empty for sharded runs, which only fill the cache).
  std::string text;
  std::vector<std::pair<std::string, TextTable>> tables;
  std::vector<std::pair<std::string, double>> summary;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::pair<std::string, double>> timings;
  double wall_seconds = 0.0;  // whole sweep, including render
  // Cells whose run threw (CellResult::error). Non-zero makes aql_bench
  // exit non-zero after finishing every remaining cell and sweep.
  size_t failed_cells = 0;
};

// Expands `spec` into its full cell list (deterministic in `options`),
// verifies cell-id uniqueness, and derives each cell's seed from the
// declared scenario seed + options.seed_salt.
std::vector<SweepCell> ExpandCells(const SweepSpec& spec, const SweepOptions& options);

// Round-robin shard membership for expansion index `index` (see
// SweepOptions::shard_index). `shard_index` is 1-based.
bool CellInShard(size_t index, int shard_index, int shard_count);

// Expands, executes (on `options.jobs` workers, honoring the shard slice
// and the cell cache when configured) and renders one sweep.
SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& options);

// JSON document for a finished sweep. With `include_timing` false all
// wall-clock fields are omitted and the output is a pure function of the
// simulation results (byte-identical across runs and thread counts).
JsonValue SweepJson(const SweepResult& result, bool include_timing = true);

// The scenario-description object used inside cell JSON (name, seed,
// pcpus, windows, VM list). Also the basis of the cell cache's
// configuration fingerprint (src/experiment/cell_cache.h).
JsonValue ScenarioJson(const ScenarioSpec& spec);

// Writes BENCH_<name>.json under `out_dir` (created if needed); returns the
// file path.
std::string WriteSweepJson(const SweepResult& result, const std::string& out_dir,
                           bool include_timing = true);

}  // namespace aql

#endif  // AQLSCHED_SRC_EXPERIMENT_SWEEP_H_
