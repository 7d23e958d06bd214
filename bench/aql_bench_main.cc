// aql_bench: unified driver for the paper-figure sweeps.
//
//   aql_bench --list                     enumerate registered sweeps
//   aql_bench --run <name> [--run ...]   run selected sweeps
//   aql_bench --all                      run every registered sweep
//
// Options:
//   --jobs N         worker threads for (scenario, policy) cells
//                    (default: hardware concurrency; results are identical
//                    for every N — cells are seeded per-cell)
//   --island-threads N
//                    worker threads advancing host islands INSIDE a fleet
//                    cell (default 1 = sequential). Orthogonal to --jobs;
//                    output is byte-identical for every N (the determinism
//                    contract in docs/ARCHITECTURE.md), so goldens, caches
//                    and --stable-json comparisons never depend on it.
//                    Single-machine cells are unaffected.
//   --quick          scaled-down simulated durations (CI smoke)
//   --out DIR        output directory for BENCH_<name>.json (default ".")
//   --stable-json    omit wall-clock timing from JSON (byte-comparable runs)
//   --no-json        skip JSON emission entirely
//   --profile        per-cell wall-clock phase breakdown (event-core / llc /
//                    scheduler / render) under each cell's `profile` key;
//                    timing data only, never part of --stable-json output
//   --shard K/N      run only shard K of N (1-based): cells are partitioned
//                    round-robin over their deterministic expansion order,
//                    the render step is skipped, and every computed cell is
//                    stored in --cache-dir (required); no JSON is written.
//                    An unsharded --cache-dir run over the union of the
//                    shards' caches renders the sweep from hits alone
//   --cell ID        run a single cell by id (render skipped); for CI perf
//                    probes that time one full-mode cell without paying for
//                    its siblings. Mutually exclusive with --shard. Runs
//                    the cell inline — the cell worker pool is skipped and
//                    --jobs is clamped to 1, so a --cell --island-threads
//                    benchmark measures island parallelism alone.
//   --cache-dir DIR  reuse cached cell results (content-addressed on the
//                    cell's configuration; see docs/BENCH_FORMAT.md)
//
// The cache-gc subcommand bounds a long-lived cell cache: it evicts entry
// files oldest-mtime-first until the cache fits the byte budget (and sweeps
// up temp files orphaned by crashed writers). Surviving entries still hit
// bit-identically.
//
//   aql_bench cache-gc --cache-dir DIR --max-bytes N

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/experiment/cell_cache.h"
#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

void Usage(FILE* out) {
  std::fprintf(out,
               "usage: aql_bench (--list | --all | --run <name>...) "
               "[--jobs N] [--island-threads N] [--quick] [--out DIR] "
               "[--stable-json] [--no-json] "
               "[--profile] [--shard K/N] [--cell ID] [--cache-dir DIR]\n"
               "       aql_bench cache-gc --cache-dir DIR --max-bytes N\n");
}

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ListSweeps(const SweepOptions& options) {
  TextTable table({"sweep", "cells", "description"});
  for (const SweepSpec* spec : SweepRegistry::Instance().All()) {
    table.AddRow({spec->name, std::to_string(spec->build(options).size()),
                  spec->description});
  }
  std::printf("%zu registered sweeps (cell counts for %s mode):\n%s",
              SweepRegistry::Instance().size(), options.quick ? "quick" : "full",
              table.ToString().c_str());
  return 0;
}

// `aql_bench cache-gc`: bound a long-lived cell cache by evicting
// oldest-mtime entries (src/experiment/cell_cache.h). Surviving entries
// keep hitting bit-identically.
int CacheGcMain(int argc, char** argv) {
  std::string dir;
  long long max_bytes = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "aql_bench cache-gc: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--cache-dir") {
      dir = value();
    } else if (arg == "--max-bytes") {
      // Strict parse: a typo ("1G", "x10") must not read as 0 and wipe the
      // cache.
      const char* text = value();
      char* end = nullptr;
      max_bytes = std::strtoll(text, &end, 10);
      if (end == text || *end != '\0' || max_bytes < 0) {
        std::fprintf(stderr, "aql_bench cache-gc: --max-bytes wants a plain "
                             "non-negative byte count, got %s\n", text);
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "aql_bench cache-gc: unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (dir.empty() || max_bytes < 0) {
    std::fprintf(stderr, "aql_bench cache-gc: --cache-dir and --max-bytes are required\n");
    Usage(stderr);
    return 2;
  }
  const CellCache::GcStats stats =
      CellCache::Gc(dir, static_cast<uint64_t>(max_bytes));
  std::printf("cache-gc %s: %llu entries (%llu bytes) -> evicted %llu, "
              "removed %llu temp files, %llu bytes resident\n",
              dir.c_str(), static_cast<unsigned long long>(stats.entries_before),
              static_cast<unsigned long long>(stats.bytes_before),
              static_cast<unsigned long long>(stats.entries_evicted),
              static_cast<unsigned long long>(stats.tmp_removed),
              static_cast<unsigned long long>(stats.bytes_after));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "cache-gc") == 0) {
    return CacheGcMain(argc, argv);
  }

  SweepOptions options;
  options.jobs = DefaultJobs();

  bool list = false;
  bool all = false;
  bool write_json = true;
  bool stable_json = false;
  std::string out_dir = ".";
  std::vector<std::string> names;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "aql_bench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--run") {
      names.push_back(value());
    } else if (arg == "--jobs") {
      options.jobs = std::atoi(value());
      if (options.jobs < 1) {
        std::fprintf(stderr, "aql_bench: --jobs must be >= 1\n");
        return 2;
      }
    } else if (arg == "--island-threads") {
      options.island_threads = std::atoi(value());
      if (options.island_threads < 1) {
        std::fprintf(stderr, "aql_bench: --island-threads must be >= 1\n");
        return 2;
      }
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--stable-json") {
      stable_json = true;
    } else if (arg == "--no-json") {
      write_json = false;
    } else if (arg == "--shard") {
      const char* spec = value();
      int k = 0;
      int n = 0;
      if (std::sscanf(spec, "%d/%d", &k, &n) != 2 || n < 1 || k < 1 || k > n) {
        std::fprintf(stderr, "aql_bench: --shard wants K/N with 1 <= K <= N, got %s\n",
                     spec);
        return 2;
      }
      options.shard_index = k;
      options.shard_count = n;
    } else if (arg == "--cell") {
      options.only_cell = value();
    } else if (arg == "--cache-dir") {
      options.cache_dir = value();
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "aql_bench: unknown argument: %s\n", arg.c_str());
      Usage(stderr);
      return 2;
    }
  }

  const bool sharded = options.shard_count > 0;
  if (sharded && options.cache_dir.empty()) {
    std::fprintf(stderr, "aql_bench: --shard stores its cells in the cell cache; "
                         "give --cache-dir DIR\n");
    return 2;
  }
  if (list) {
    return ListSweeps(options);
  }
  if (all) {
    for (const SweepSpec* spec : SweepRegistry::Instance().All()) {
      if (std::find(names.begin(), names.end(), spec->name) == names.end()) {
        names.push_back(spec->name);
      }
    }
  }
  if (names.empty()) {
    Usage(stderr);
    return 2;
  }

  if (sharded && !options.only_cell.empty()) {
    std::fprintf(stderr, "aql_bench: --cell and --shard are mutually exclusive\n");
    return 2;
  }
  if (!options.only_cell.empty() && names.size() != 1) {
    std::fprintf(stderr, "aql_bench: --cell wants exactly one --run sweep\n");
    return 2;
  }
  if (!options.only_cell.empty()) {
    // A single cell is a single unit of cell-pool work: clamp --jobs (which
    // defaults to hardware concurrency) so the header, the timed JSON and
    // the engine all agree the run is inline. --island-threads is then the
    // only parallelism in play — exactly what a --cell island benchmark
    // wants to measure.
    options.jobs = 1;
  }
  if (sharded && options.profile) {
    // Cache entries carry no profile data, so the breakdown would be
    // collected and then silently dropped. Refuse instead of wasting the
    // instrumented run.
    std::fprintf(stderr, "aql_bench: --profile output cannot ride in the cell "
                         "cache; profile unsharded runs\n");
    return 2;
  }

  size_t failed_cells = 0;
  for (const std::string& name : names) {
    const SweepSpec* spec = SweepRegistry::Instance().Find(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "aql_bench: unknown sweep: %s (try --list)\n", name.c_str());
      return 2;
    }
    char islands[32] = "";
    if (options.island_threads > 1) {
      std::snprintf(islands, sizeof(islands), ", island-threads=%d",
                    options.island_threads);
    }
    if (sharded) {
      std::printf("=== %s (%s, shard %d/%d, jobs=%d%s) ===\n", name.c_str(),
                  options.quick ? "quick" : "full", options.shard_index,
                  options.shard_count, options.jobs, islands);
    } else {
      std::printf("=== %s (%s%s, jobs=%d%s) ===\n", name.c_str(),
                  options.quick ? "quick" : "full",
                  stable_json ? ", stable-json" : "", options.jobs, islands);
    }
    std::fflush(stdout);

    const SweepResult result = RunSweep(*spec, options);
    std::fputs(result.text.c_str(), stdout);
    std::printf("[%s] %zu cells in %.2fs wall\n", name.c_str(), result.cells.size(),
                result.wall_seconds);
    if (result.failed_cells > 0) {
      // A failed cell is recorded (structured `error` entry in the JSON) and
      // the remaining cells and sweeps still run; the non-zero exit below
      // keeps CI from mistaking a partial document for a clean one. A shard
      // writes no JSON, so the first error is named here as well.
      const auto first = std::find_if(result.cells.begin(), result.cells.end(),
                                      [](const CellResult& c) { return !c.error.empty(); });
      std::fprintf(stderr, "[%s] %zu cell(s) FAILED (first: %s: %s)\n", name.c_str(),
                   result.failed_cells, first->cell.id.c_str(), first->error.c_str());
      failed_cells += result.failed_cells;
    }

    if (write_json && !sharded) {
      // --stable-json writes the deterministic projection (no wall-clock
      // fields), byte-comparable across runs and thread counts.
      const std::string path =
          WriteSweepJson(result, out_dir, /*include_timing=*/!stable_json);
      std::printf("[%s] wrote %s\n", name.c_str(), path.c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  if (failed_cells > 0) {
    std::fprintf(stderr, "aql_bench: %zu cell(s) failed across %zu sweep(s)\n",
                 failed_cells, names.size());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace aql

int main(int argc, char** argv) { return aql::Main(argc, argv); }
