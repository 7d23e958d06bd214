// Tests for the cell-result cache: the cell record round trip, hit and
// invalidation semantics, the configuration fingerprint (full scenario +
// machine + policy — the basis of cross-sweep entry sharing), the GC pass
// (`aql_bench cache-gc`: oldest-mtime eviction down to a byte budget,
// temp-file sweeping, survivors still hit), and sharded runs, whose only
// output is the cache: for every registered sweep, an unsharded run over
// the shards' cache renders byte-identically from hits alone.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiment/cell_cache.h"
#include "src/experiment/json_out.h"
#include "src/experiment/registry.h"
#include "src/experiment/runner.h"
#include "src/experiment/sweep.h"

namespace aql {
namespace {

namespace fs = std::filesystem;

class CellCacheGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("aql_cache_gc_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

CellCacheKey Key(uint64_t seed) {
  CellCacheKey key;
  key.derived_seed = seed;
  key.quick = true;
  key.config_fingerprint = 0xfeedULL;
  return key;
}

// A small but real cell result, so stored records exercise the full
// serialization round trip.
CellResult MakeResult(const std::string& cell_id, uint64_t seed) {
  CellResult cell;
  cell.cell.id = cell_id;
  ScenarioSpec spec;
  spec.name = "gc/" + cell_id;
  spec.machine = SingleSocketMachine(1, seed);
  spec.vms = {{"hmmer", 1}};
  spec.warmup = Ms(30);
  spec.measure = Ms(60);
  cell.result = RunScenario(spec, PolicySpec::Xen());
  return cell;
}

// Backdates `path` by `seconds` so eviction order is controlled.
void Backdate(const fs::path& path, int seconds) {
  const auto t = fs::last_write_time(path);
  fs::last_write_time(path, t - std::chrono::seconds(seconds));
}

TEST_F(CellCacheGcTest, EvictsOldestFirstAndSurvivorsStillHit) {
  CellCache cache(dir_.string(), /*config_hash=*/1234);
  const CellCacheKey old_key = Key(1);
  const CellCacheKey new_key = Key(2);
  ASSERT_TRUE(cache.Store(old_key, MakeResult("old", 1)));
  ASSERT_TRUE(cache.Store(new_key, MakeResult("new", 2)));
  Backdate(cache.PathFor(old_key), 1000);

  CellResult before;
  ASSERT_TRUE(cache.Load(new_key, &before));

  // Budget for roughly one entry: the older one must go.
  const auto keep_bytes = fs::file_size(cache.PathFor(new_key));
  const CellCache::GcStats stats = CellCache::Gc(dir_.string(), keep_bytes);
  EXPECT_EQ(stats.entries_before, 2u);
  EXPECT_EQ(stats.entries_evicted, 1u);
  EXPECT_LE(stats.bytes_after, keep_bytes);
  EXPECT_FALSE(fs::exists(cache.PathFor(old_key)));
  EXPECT_TRUE(fs::exists(cache.PathFor(new_key)));

  // The survivor still hits, bit-identically to the pre-GC load.
  CellResult after;
  EXPECT_TRUE(cache.Load(new_key, &after));
  EXPECT_EQ(after.result.events_processed, before.result.events_processed);
  EXPECT_EQ(after.result.cpu_utilization, before.result.cpu_utilization);
  ASSERT_EQ(after.result.reports.size(), before.result.reports.size());
  for (size_t i = 0; i < after.result.reports.size(); ++i) {
    EXPECT_EQ(after.result.reports[i].metrics, before.result.reports[i].metrics);
  }
  // The evicted entry degrades to a plain miss.
  CellResult evicted;
  EXPECT_FALSE(cache.Load(old_key, &evicted));
}

TEST_F(CellCacheGcTest, ZeroBudgetEmptiesTheCacheAndSweepsTempFiles) {
  CellCache cache(dir_.string(), /*config_hash=*/1234);
  cache.Store(Key(1), MakeResult("a", 1));
  cache.Store(Key(2), MakeResult("b", 2));
  // An orphaned writer temp file (crashed process).
  std::ofstream(dir_ / "cells" / "deadbeef.json.tmp.12345.67") << "torn";

  const CellCache::GcStats stats = CellCache::Gc(dir_.string(), 0);
  EXPECT_EQ(stats.entries_before, 2u);
  EXPECT_EQ(stats.entries_evicted, 2u);
  EXPECT_EQ(stats.tmp_removed, 1u);
  EXPECT_EQ(stats.bytes_after, 0u);
}

TEST_F(CellCacheGcTest, MissingDirectoryIsANoOp) {
  const CellCache::GcStats stats = CellCache::Gc((dir_ / "nope").string(), 0);
  EXPECT_EQ(stats.entries_before, 0u);
  EXPECT_EQ(stats.entries_evicted, 0u);
}

// A configured cell for fingerprint tests: real scenario, real policy.
SweepCell MakeCell(const std::string& id) {
  SweepCell cell;
  cell.id = id;
  cell.scenario.name = "fp/rig";
  cell.scenario.machine = SingleSocketMachine(2, 7);
  cell.scenario.vms = {{"hmmer", 1}, {"libquantum", 1}};
  cell.scenario.warmup = Ms(30);
  cell.scenario.measure = Ms(60);
  cell.policy = PolicySpec::Xen();
  return cell;
}

// Two sweeps registering the identical cell under different ids share one
// cache entry: the id is a label, not a simulation input, so it is not part
// of the fingerprint or the key.
TEST_F(CellCacheGcTest, IdenticalCellsDedupAcrossSweeps) {
  const SweepCell a = MakeCell("sweep_a/rig");
  const SweepCell b = MakeCell("sweep_b/other_name_same_rig");
  EXPECT_EQ(CellConfigFingerprint(a), CellConfigFingerprint(b));

  CellCache cache(dir_.string(), /*config_hash=*/1234);
  CellCacheKey key_a;
  key_a.derived_seed = a.scenario.machine.seed;
  key_a.quick = true;
  key_a.config_fingerprint = CellConfigFingerprint(a);
  CellCacheKey key_b = key_a;
  key_b.config_fingerprint = CellConfigFingerprint(b);
  EXPECT_EQ(cache.PathFor(key_a), cache.PathFor(key_b));

  // Stored by "sweep A", hit by "sweep B".
  CellResult computed;
  computed.cell = a;
  computed.result = RunScenario(a.scenario, a.policy);
  cache.Store(key_a, computed);
  CellResult loaded;
  ASSERT_TRUE(cache.Load(key_b, &loaded));
  EXPECT_EQ(loaded.result.events_processed, computed.result.events_processed);
  EXPECT_EQ(loaded.result.cpu_utilization, computed.result.cpu_utilization);
}

// The fingerprint sees the full machine configuration — knobs the scenario
// JSON alone cannot express must still segregate entries.
TEST_F(CellCacheGcTest, FingerprintCoversMachineKnobsBeyondScenarioJson) {
  const SweepCell base = MakeCell("rig");

  SweepCell hw = base;
  hw.scenario.machine.hw.llc_miss_penalty += 1;
  EXPECT_NE(CellConfigFingerprint(base), CellConfigFingerprint(hw));

  SweepCell credit = base;
  credit.scenario.machine.credit.boost_enabled = false;
  EXPECT_NE(CellConfigFingerprint(base), CellConfigFingerprint(credit));

  SweepCell monitor = base;
  monitor.scenario.machine.monitor_period += Ms(1);
  EXPECT_NE(CellConfigFingerprint(base), CellConfigFingerprint(monitor));

  SweepCell topo = base;
  topo.scenario.machine.topology.llc_bytes *= 2;
  EXPECT_NE(CellConfigFingerprint(base), CellConfigFingerprint(topo));

  // And the fleet dimension (rides in the scenario JSON's fleet block).
  SweepCell fleet = base;
  fleet.scenario.fleet.hosts = 4;
  EXPECT_NE(CellConfigFingerprint(base), CellConfigFingerprint(fleet));
}


// --- cell records and sweep-level cache semantics ---------------------------

fs::path FreshTempDir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / (name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

SweepSpec TinySpec() {
  SweepSpec spec;
  spec.name = "tiny_cache";
  spec.description = "cell cache test sweep";
  spec.build = [](const SweepOptions&) {
    std::vector<SweepCell> cells;
    for (int s = 1; s <= 2; ++s) {
      for (const char* pol : {"xen", "aql"}) {
        SweepCell cell;
        cell.id = "S" + std::to_string(s) + "/" + pol;
        cell.scenario = ColocationScenario(s);
        cell.scenario.warmup = Ms(300);
        cell.scenario.measure = Ms(400);
        cell.policy =
            std::string(pol) == "aql" ? PolicySpec::Aql() : PolicySpec::Xen();
        cell.trace_cursors = true;
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  };
  spec.render = [](SweepContext& ctx) {
    ctx.Summary("cells", static_cast<double>(ctx.cells().size()));
  };
  return spec;
}

double TimingValue(const SweepResult& r, const std::string& key) {
  for (const auto& [k, v] : r.timings) {
    if (k == key) {
      return v;
    }
  }
  ADD_FAILURE() << "no timing entry " << key;
  return -1;
}

std::string StableDump(const SweepResult& r) {
  return SweepJson(r, /*include_timing=*/false).Dump();
}

// Two caches differing only in the engine fingerprint (what a
// kCellCacheEngineVersion bump does) share no entries: each misses the
// other's, and neither overwrites the other.
TEST(CellCacheTest, ConfigHashChangeInvalidates) {
  const auto dir = FreshTempDir("aql_cell_cache_confighash");
  CellCache current(dir.string());
  CellCache bumped(dir.string(), /*config_hash=*/0xdeadbeefULL);
  EXPECT_EQ(current.config_hash(), CellCache::DefaultConfigHash());
  EXPECT_NE(current.PathFor(Key(1)), bumped.PathFor(Key(1)));

  const CellResult computed = MakeResult("rig", 1);
  ASSERT_TRUE(current.Store(Key(1), computed));
  CellResult loaded;
  EXPECT_FALSE(bumped.Load(Key(1), &loaded));
  ASSERT_TRUE(bumped.Store(Key(1), computed));
  // The original fingerprint's entry is untouched and still hits.
  ASSERT_TRUE(current.Load(Key(1), &loaded));
  EXPECT_EQ(loaded.result.events_processed, computed.result.events_processed);
  EXPECT_EQ(current.hits(), 1u);
  EXPECT_EQ(bumped.misses(), 1u);
  fs::remove_all(dir);
}

TEST(CellCacheTest, StoreReportsAnUnwritableDirectory) {
  const auto dir = FreshTempDir("aql_cell_cache_unwritable");
  std::ofstream(dir / "cells") << "a regular file where the entry directory goes";
  CellCache cache(dir.string());
  EXPECT_FALSE(cache.Store(Key(1), MakeResult("lost", 1)));
  CellResult loaded;
  EXPECT_FALSE(cache.Load(Key(1), &loaded));
  fs::remove_all(dir);
}

TEST(CellRecordTest, RoundTripsBitExact) {
  SweepOptions opts;
  const SweepResult r = RunSweep(TinySpec(), opts);
  for (const CellResult& cell : r.cells) {
    const JsonValue record = CellRecordJson(cell);
    std::string error;
    const JsonValue reparsed = JsonValue::Parse(record.Dump(), &error);
    ASSERT_TRUE(error.empty()) << error;
    CellResult decoded;
    ASSERT_TRUE(CellRecordFromJson(reparsed, &decoded, &error)) << error;
    decoded.cell = cell.cell;
    // Serializing the decoded cell again must reproduce the record exactly
    // — the bit-identity that lets a cache hit substitute for computation.
    EXPECT_EQ(CellRecordJson(decoded).Dump(), record.Dump()) << cell.cell.id;
    EXPECT_EQ(decoded.result.events_processed, cell.result.events_processed);
    EXPECT_EQ(decoded.result.cpu_utilization, cell.result.cpu_utilization);
    EXPECT_EQ(decoded.result.detected_types, cell.result.detected_types);
    ASSERT_EQ(decoded.result.reports.size(), cell.result.reports.size());
    for (size_t i = 0; i < cell.result.reports.size(); ++i) {
      EXPECT_EQ(decoded.result.reports[i].metrics, cell.result.reports[i].metrics);
    }
    ASSERT_EQ(decoded.cursor_trace.size(), cell.cursor_trace.size());
    for (size_t i = 0; i < cell.cursor_trace.size(); ++i) {
      EXPECT_EQ(decoded.cursor_trace[i].io, cell.cursor_trace[i].io);
      EXPECT_EQ(decoded.cursor_trace[i].llco, cell.cursor_trace[i].llco);
    }
  }
}

TEST(CellRecordTest, RejectsTypeMismatchedFieldsWithoutAborting) {
  // Cache entries are external input: a wrong-typed field must produce a
  // readable error, not a CHECK-abort.
  JsonValue res = JsonValue::Object();
  res.Set("scenario", 123);  // should be a string
  JsonValue rec = JsonValue::Object();
  rec.Set("id", "x").Set("result", std::move(res));
  CellResult out;
  std::string error;
  EXPECT_FALSE(CellRecordFromJson(rec, &out, &error));
  EXPECT_NE(error.find("scenario"), std::string::npos) << error;
}

TEST(CellCacheTest, HitsAreBitIdenticalAndCounted) {
  const auto dir = FreshTempDir("aql_cell_cache_test");
  SweepOptions opts;
  opts.cache_dir = dir.string();
  const SweepResult cold = RunSweep(TinySpec(), opts);
  EXPECT_EQ(TimingValue(cold, "cache_hits"), 0.0);
  EXPECT_EQ(TimingValue(cold, "cache_misses"), static_cast<double>(cold.cells.size()));

  const SweepResult warm = RunSweep(TinySpec(), opts);
  EXPECT_EQ(TimingValue(warm, "cache_hits"), static_cast<double>(warm.cells.size()));
  EXPECT_EQ(TimingValue(warm, "cache_misses"), 0.0);
  EXPECT_EQ(StableDump(warm), StableDump(cold));
}

TEST(CellCacheTest, CellConfigurationChangeInvalidates) {
  // Editing a cell's parameters while keeping its id (and seed) must not
  // serve stale results: the key carries a fingerprint of the expanded
  // configuration.
  const auto dir = FreshTempDir("aql_cell_cache_cellconfig");
  SweepOptions opts;
  opts.cache_dir = dir.string();
  const SweepResult cold = RunSweep(TinySpec(), opts);

  SweepSpec edited = TinySpec();
  const auto inner = edited.build;
  edited.build = [inner](const SweepOptions& o) {
    std::vector<SweepCell> cells = inner(o);
    for (SweepCell& cell : cells) {
      cell.scenario.measure = Ms(500);  // same ids, different window
    }
    return cells;
  };
  const SweepResult rerun = RunSweep(edited, opts);
  EXPECT_EQ(TimingValue(rerun, "cache_hits"), 0.0);
  EXPECT_EQ(TimingValue(rerun, "cache_misses"), static_cast<double>(rerun.cells.size()));
  // The original configuration's entries still hit.
  const SweepResult warm = RunSweep(TinySpec(), opts);
  EXPECT_EQ(TimingValue(warm, "cache_hits"), static_cast<double>(cold.cells.size()));
}

TEST(CellCacheTest, CorruptEntriesDegradeToMisses) {
  const auto dir = FreshTempDir("aql_cell_cache_corrupt");
  SweepOptions opts;
  opts.cache_dir = dir.string();
  const SweepResult cold = RunSweep(TinySpec(), opts);

  size_t corrupted = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      std::ofstream f(entry.path());
      f << "{ definitely not a cache entry";
      ++corrupted;
    }
  }
  ASSERT_EQ(corrupted, cold.cells.size());

  const SweepResult rerun = RunSweep(TinySpec(), opts);
  EXPECT_EQ(TimingValue(rerun, "cache_hits"), 0.0);
  EXPECT_EQ(TimingValue(rerun, "cache_misses"), static_cast<double>(rerun.cells.size()));
  EXPECT_EQ(StableDump(rerun), StableDump(cold));
}

// --- sharded runs -----------------------------------------------------------

// The sharding contract: for every registered sweep, running --shard k/N
// (N in {2, 4}) into a fresh cache and then rendering unsharded from that
// cache reproduces an uncached --stable-json run byte for byte, with every
// cell a hit.
TEST(ShardCacheTest, EveryRegisteredSweepRendersFromShardCachesByteIdentical) {
  std::map<std::string, std::string> uncached;
  for (const SweepSpec* spec : SweepRegistry::Instance().All()) {
    SweepOptions opts;
    opts.quick = true;
    opts.jobs = 2;
    uncached[spec->name] = StableDump(RunSweep(*spec, opts));
  }

  for (int n : {2, 4}) {
    const auto dir = FreshTempDir("aql_shard_cache_n" + std::to_string(n));
    for (const SweepSpec* spec : SweepRegistry::Instance().All()) {
      SweepOptions base;
      base.quick = true;
      base.cache_dir = dir.string();
      for (int k = 1; k <= n; ++k) {
        SweepOptions opts = base;
        // Worker count must not matter for sharded runs either.
        opts.jobs = (k % 2 == 0) ? 4 : 1;
        opts.shard_index = k;
        opts.shard_count = n;
        const SweepResult shard = RunSweep(*spec, opts);
        ASSERT_EQ(shard.failed_cells, 0u) << spec->name << " " << k << "/" << n;
        EXPECT_TRUE(shard.summary.empty()) << "shards skip the render step";
      }
      base.jobs = 2;
      const SweepResult merged = RunSweep(*spec, base);
      EXPECT_EQ(TimingValue(merged, "cache_misses"), 0.0) << spec->name << " N=" << n;
      EXPECT_EQ(StableDump(merged), uncached[spec->name]) << spec->name << " N=" << n;
    }
    fs::remove_all(dir);
  }
}

// A missing shard is not an error: its cells are plain misses, which the
// cached run recomputes, so the output is still byte-identical.
TEST(ShardCacheTest, MissingShardCellsAreRecomputed) {
  const SweepSpec* spec = SweepRegistry::Instance().Find("table5_clusters");
  ASSERT_NE(spec, nullptr);
  const auto dir = FreshTempDir("aql_shard_cache_partial");
  SweepOptions opts;
  opts.quick = true;
  opts.cache_dir = dir.string();
  opts.shard_index = 1;
  opts.shard_count = 2;
  const SweepResult shard1 = RunSweep(*spec, opts);

  SweepOptions uncached;
  uncached.quick = true;
  const SweepResult want = RunSweep(*spec, uncached);
  const size_t shard2_cells = want.cells.size() - shard1.cells.size();
  ASSERT_GT(shard2_cells, 0u);

  opts.shard_index = 0;
  opts.shard_count = 0;
  const SweepResult merged = RunSweep(*spec, opts);
  EXPECT_EQ(TimingValue(merged, "cache_hits"), static_cast<double>(shard1.cells.size()));
  EXPECT_EQ(TimingValue(merged, "cache_misses"), static_cast<double>(shard2_cells));
  EXPECT_EQ(StableDump(merged), StableDump(want));
  fs::remove_all(dir);
}

// A shard's only output is the cache, so a result it cannot store is a
// failed cell (aql_bench exits non-zero and names the count). Unsharded
// runs treat the cache as an accelerator and carry on.
TEST(ShardCacheTest, UnstorableCellsFailTheShard) {
  const auto dir = FreshTempDir("aql_shard_cache_unwritable");
  std::ofstream(dir / "cells") << "a regular file where the entry directory goes";
  SweepOptions opts;
  opts.cache_dir = dir.string();
  opts.shard_index = 1;
  opts.shard_count = 2;
  const SweepResult shard = RunSweep(TinySpec(), opts);
  ASSERT_FALSE(shard.cells.empty());
  EXPECT_EQ(shard.failed_cells, shard.cells.size());
  for (const CellResult& cell : shard.cells) {
    EXPECT_NE(cell.error.find("cannot store"), std::string::npos) << cell.error;
  }

  opts.shard_index = 0;
  opts.shard_count = 0;
  const SweepResult unsharded = RunSweep(TinySpec(), opts);
  EXPECT_EQ(unsharded.failed_cells, 0u);
  EXPECT_EQ(TimingValue(unsharded, "cache_misses"),
            static_cast<double>(unsharded.cells.size()));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace aql
