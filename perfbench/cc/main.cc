// aql_perfbench: the repository benchmark.
//
//   aql_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   aql_perfbench --list-metrics
//   aql_perfbench --self-test
//
// --trace 0 repeats the workload's cells untraced for S seconds and prints
// the end-to-end metrics; --trace 1 alternates untraced and traced passes
// and prints the per-layer metrics. Both check every cell against the
// output-correctness gate and compare result digests across repeats,
// between traced and untraced runs, and (fleet_churn) between one and two
// island threads. The last stdout line is one JSON object; the exit code
// is 1 when any check failed.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "metrics.h"
#include "probes.h"
#include "reference.h"
#include "results.h"
#include "selftest.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Setups per run; setup_s is their median.
constexpr int kSetupRuns = 301;
// Hard cap on a run's timed loop, far inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 100.0;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

// Failed cells and digest mismatches of one run.
struct Gate {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;

  void Cells(const Workload& w, const std::vector<CellOutcome>& pass) {
    for (size_t i = 0; i < pass.size(); ++i) {
      ++attempted;
      if (pass[i].failed()) {
        ++failed;
        problems.push_back(w.cells[i].id + ": " + pass[i].errors.front());
      }
    }
  }
  void Same(const Workload& w, const std::vector<CellOutcome>& a,
            const std::vector<CellOutcome>& b, const std::string& what) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i].digest != b[i].digest) {
        problems.push_back(w.cells[i].id + ": digest mismatch, " + what);
      }
    }
  }
};

// High-water resident set of this process image. getrusage's ru_maxrss is
// not used: Linux carries the parent's peak across fork and exec into it.
double PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
    }
  }
  std::fclose(f);
  return kb;
}

template <typename F>
CellOutcome Guarded(F&& run) {
  try {
    return run();
  } catch (const std::exception& e) {
    CellOutcome out;
    out.errors.push_back(std::string("threw: ") + e.what());
    return out;
  }
}

CellOutcome RunUntraced(const Cell& c, int island_threads) {
  return Guarded([&] {
    return c.scenario.fleet.hosts > 0 ? RunFleetCell(c, island_threads, nullptr)
                                      : RunMachineCell(c);
  });
}

std::vector<CellOutcome> UntracedPass(const Workload& w, int island_threads) {
  std::vector<CellOutcome> out;
  for (const Cell& c : w.cells) {
    out.push_back(RunUntraced(c, island_threads));
  }
  return out;
}

// An untraced pass with a reference slice before every cell and after the
// last; appends each cell's wall in nominal-host seconds, rescaled by the
// mean of the two slices around the cell.
std::vector<CellOutcome> CalibratedPass(const Workload& w, std::vector<double>& nominal_s) {
  std::vector<CellOutcome> out;
  double before = ReferenceSliceSeconds();
  for (const Cell& c : w.cells) {
    out.push_back(RunUntraced(c, w.island_threads));
    const double after = ReferenceSliceSeconds();
    nominal_s.push_back(NominalSeconds(out.back().wall_s, 0.5 * (before + after)));
    before = after;
  }
  return out;
}

std::vector<CellOutcome> TracedPass(const Workload& w, int island_threads,
                                    LayerSample& sample) {
  std::vector<CellOutcome> out;
  for (const Cell& c : w.cells) {
    out.push_back(Guarded([&] {
      return c.scenario.fleet.hosts > 0 ? RunFleetCell(c, island_threads, &sample)
                                        : RunMachineCellTraced(c, sample);
    }));
  }
  return out;
}

double TotalSimSeconds(const Workload& w) {
  double s = 0.0;
  for (const Cell& c : w.cells) {
    s += SimMachineSeconds(c.scenario);
  }
  return s;
}

double SumWalls(const std::vector<CellOutcome>& pass) {
  double s = 0.0;
  for (const CellOutcome& c : pass) {
    s += c.wall_s;
  }
  return s;
}

// Simulated end-to-end quantities of one pass (they repeat exactly).
void SimulatedMetrics(const std::vector<CellOutcome>& pass, MetricSet& m) {
  double log_gain = 0.0;
  int gain_groups = 0;
  int recognized = 0;
  int typed = 0;
  double slowdown = 0.0;
  int slowdown_vcpus = 0;
  double availability = 0.0;
  for (size_t k = 0; k + 1 < pass.size(); k += 2) {
    const CellOutcome& xen = pass[k];
    const CellOutcome& aql = pass[k + 1];
    for (const aql::GroupPerf& g : aql.app_groups) {
      for (const aql::GroupPerf& base : xen.app_groups) {
        if (base.name == g.name && g.primary > 0 && base.primary > 0) {
          log_gain += std::log(base.primary / g.primary);
          ++gain_groups;
        }
      }
      const auto it = g.metrics.find("slowdown");
      if (it != g.metrics.end()) {
        slowdown += it->second * g.vcpus;
        slowdown_vcpus += g.vcpus;
      }
    }
    recognized += aql.recognized;
    typed += aql.typed;
  }
  for (const CellOutcome& c : pass) {
    availability += c.availability;
  }
  m.Set("aql_gain", gain_groups > 0 ? std::exp(log_gain / gain_groups) : 0.0);
  m.Set("recognition_accuracy", typed > 0 ? static_cast<double>(recognized) / typed : 0.0);
  m.Set("cpu_slowdown", slowdown_vcpus > 0 ? slowdown / slowdown_vcpus : 0.0);
  m.Set("availability", pass.empty() ? 0.0 : availability / static_cast<double>(pass.size()));
}

void EndToEnd(const Args& args, const Workload& w, double setup_s, Gate& gate,
              MetricSet& m) {
  // Outcomes of the first pass; later passes are only compared with it, so
  // memory does not grow with the number of passes.
  std::vector<CellOutcome> first;
  std::vector<std::vector<double>> costs;  // per pass, per cell, nominal s
  const auto t_loop = Clock::now();
  while (costs.size() < 2 ||
         (Since(t_loop) < args.seconds && Since(t_loop) < kMaxLoopSeconds)) {
    costs.emplace_back();
    const std::vector<CellOutcome> pass = CalibratedPass(w, costs.back());
    gate.Cells(w, pass);
    if (first.empty()) {
      first = pass;
    } else {
      gate.Same(w, first, pass, "repeat vs first pass");
    }
  }
  const size_t passes = costs.size();
  const double loop_s = Since(t_loop);
  if (w.island_threads > 1) {
    const std::vector<CellOutcome> one = UntracedPass(w, 1);
    gate.Cells(w, one);
    gate.Same(w, first, one, "1 vs " + std::to_string(w.island_threads) + " island threads");
  }
  std::printf("digest %s seed %" PRIu64 ": %016" PRIx64 "\n", w.name.c_str(), w.seed,
              CombineDigests(first));
  std::printf("timed passes: %zu over %.2f s\n", passes, loop_s);

  // Per cell, the median cost over the passes: one noisy pass cannot move
  // the figure.
  double host_s = 0.0;
  for (size_t i = 0; i < w.cells.size(); ++i) {
    std::vector<double> cell;
    for (const auto& pass : costs) {
      cell.push_back(pass[i]);
    }
    host_s += Median(cell);
  }
  m.Set("sim_speed", host_s > 0 ? TotalSimSeconds(w) / host_s : 0.0);
  m.Set("setup_s", setup_s);
  const double peak_kb = PeakRssKb();
  if (peak_kb > 0) {
    m.Set("peak_rss_mb", peak_kb / 1024.0);
  }
  m.Set("cell_success_rate",
        gate.attempted > 0
            ? static_cast<double>(gate.attempted - gate.failed) / gate.attempted
            : 0.0);
  SimulatedMetrics(first, m);
}

void PerLayer(const Args& args, const Workload& w, Gate& gate, MetricSet& m) {
  const bool fleet = w.island_threads > 1;
  std::vector<LayerSample> traced;    // fleet: at one island thread
  std::vector<LayerSample> parallel;  // fleet: at the timed loop's thread count
  std::vector<double> untraced_walls;
  std::vector<double> overhead;
  std::vector<CellOutcome> reference;
  const auto t_loop = Clock::now();
  do {
    const std::vector<CellOutcome> base = UntracedPass(w, w.island_threads);
    gate.Cells(w, base);
    if (reference.empty()) {
      reference = base;
    } else {
      gate.Same(w, reference, base, "repeat vs first pass");
    }
    untraced_walls.push_back(SumWalls(base));

    traced.emplace_back();
    const std::vector<CellOutcome> t = TracedPass(w, 1, traced.back());
    gate.Cells(w, t);
    gate.Same(w, reference, t,
              fleet ? "traced at 1 island thread vs untraced at " +
                          std::to_string(w.island_threads)
                    : "traced vs untraced");
    if (fleet) {
      parallel.emplace_back();
      const std::vector<CellOutcome> p = TracedPass(w, w.island_threads, parallel.back());
      gate.Cells(w, p);
      gate.Same(w, reference, p, "traced vs untraced");
      overhead.push_back(parallel.back().loop_s / untraced_walls.back());
    } else {
      overhead.push_back(traced.back().loop_s / untraced_walls.back());
    }
  } while (Since(t_loop) < args.seconds && Since(t_loop) < kMaxLoopSeconds);
  std::printf("digest %s seed %" PRIu64 ": %016" PRIx64 "\n", w.name.c_str(), w.seed,
              CombineDigests(reference));
  std::printf("traced passes: %zu over %.2f s\n", traced.size(), Since(t_loop));

  // Host times: medians over the traced passes. Counts repeat exactly.
  const auto med = [&traced](const std::function<double(const LayerSample&)>& f) {
    std::vector<double> v;
    for (const LayerSample& s : traced) {
      v.push_back(f(s));
    }
    return Median(v);
  };
  const LayerSample& c = traced.front();
  const double sim_s = TotalSimSeconds(w);
  m.Set("sim.events", static_cast<double>(c.events));
  m.Set("sim.events_per_sim_s", static_cast<double>(c.events) / sim_s);
  m.Set("sim.host_ns_per_event",
        c.events > 0 ? Median(untraced_walls) * 1e9 / static_cast<double>(c.events) : 0.0);
  m.Set("sim.event_core_s", med([](const LayerSample& s) { return s.event_core_s; }));
  std::vector<double> barrier;
  for (const LayerSample& s : parallel) {
    barrier.push_back(s.barrier_s);
  }
  m.Set("sim.barrier_wait_s", Median(barrier));

  double wss = 0.0;
  int overflow = 0;
  for (const Cell& cell : w.cells) {
    const double r = WssOverLlc(cell.scenario);
    wss += r;
    overflow += r > 1.0 ? 1 : 0;
  }
  const double cells = static_cast<double>(w.cells.size());
  m.Set("hw.llc_s", med([](const LayerSample& s) { return s.llc_s; }));
  m.Set("hw.llc_refs", static_cast<double>(c.llc_refs));
  m.Set("hw.llc_misses", static_cast<double>(c.llc_misses));
  m.Set("hw.wss_over_llc", wss / cells);
  m.Set("hw.overflow_cell_share", overflow / cells);

  m.Set("hv.steps", static_cast<double>(c.steps));
  m.Set("hv.steps_per_dispatch",
        c.dispatches > 0 ? static_cast<double>(c.steps) / static_cast<double>(c.dispatches)
                         : 0.0);
  m.Set("hv.dispatches", static_cast<double>(c.dispatches));
  m.Set("hv.preemptions", static_cast<double>(c.preemptions));
  m.Set("hv.build_s", med([](const LayerSample& s) { return s.build_s; }));
  m.Set("hv.dispatch_s", med([](const LayerSample& s) {
          return s.loop_s - s.build_s - s.event_core_s - s.llc_s - s.monitor_s -
                 s.workload_s;
        }));

  m.Set("core.monitor_calls", static_cast<double>(c.monitor_calls));
  m.Set("core.monitor_s", med([](const LayerSample& s) { return s.monitor_s; }));
  m.Set("core.plan_applications", static_cast<double>(c.plan_applications));

  m.Set("workload.calls", static_cast<double>(c.workload_calls));
  m.Set("workload.s", med([](const LayerSample& s) { return s.workload_s; }));

  m.Set("fleet.migrations", static_cast<double>(c.migrations));
  m.Set("fleet.migration_failures", static_cast<double>(c.migration_failures));
  m.Set("fleet.vm_restarts", static_cast<double>(c.vm_restarts));
  m.Set("fleet.crashes", static_cast<double>(c.crashes));
  m.Set("fleet.island_imbalance",
        c.fleet_cells > 0 ? c.island_imbalance / c.fleet_cells : 0.0);

  m.Set("trace.overhead_ratio", Median(overhead));
  m.Set("trace.loop_s", med([](const LayerSample& s) { return s.loop_s; }));
}

int Run(const Args& args) {
  const bool known = std::find(WorkloadNames().begin(), WorkloadNames().end(),
                               args.workload) != WorkloadNames().end();
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Set-up: catalog initialisation, scenario generation and the property
  // guard, done several times; the first run pays the cold catalog.
  std::vector<double> setups;
  Workload w;
  std::string property_error;
  const double slice_before = ReferenceSliceSeconds();
  for (int i = 0; i < kSetupRuns; ++i) {
    const auto t0 = Clock::now();
    w = Generate(args.workload, args.seed);
    property_error = CheckWorkloadProperties(w);
    setups.push_back(Since(t0));
  }
  const double setup_s =
      NominalSeconds(Median(setups), 0.5 * (slice_before + ReferenceSliceSeconds()));
  Gate gate;
  if (!property_error.empty()) {
    gate.problems.push_back("property guard: " + property_error);
  }

  MetricSet m(args.trace == 0 ? EndToEndMetrics() : PerLayerMetrics());
  if (gate.problems.empty()) {
    if (args.trace == 0) {
      EndToEnd(args, w, setup_s, gate, m);
    } else {
      PerLayer(args, w, gate, m);
    }
  }
  constexpr size_t kShownProblems = 20;
  for (size_t i = 0; i < gate.problems.size() && i < kShownProblems; ++i) {
    std::printf("FAIL %s\n", gate.problems[i].c_str());
  }
  if (gate.problems.size() > kShownProblems) {
    std::printf("FAIL ... %zu problems in all\n", gate.problems.size());
  }
  const bool correct = gate.problems.empty() && m.Complete();
  m.PrintTable(stdout);
  // A run that never reached its cells counts as one failed attempt.
  const bool ran = gate.attempted > 0;
  m.PrintJson(stdout, correct, ran ? gate.attempted : 1, ran ? gate.failed : 1);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    perfbench::ListMetrics(stdout);
    return 0;
  }
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return perfbench::RunSelfTest();
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: aql_perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1]\n       aql_perfbench --list-metrics | --self-test\n");
    return 2;
  }
  return perfbench::Run(args);
}
