// Seeded workload generator of the benchmark.
//
// Each workload is a fixed number of cells generated from one seed. Cells
// come in Xen/AQL pairs over the same scenario (same machine seed), so the
// paper's normalized performance can be computed per pair. The simulator
// sees only the generated ScenarioSpecs; the generator uses its own
// std::mt19937_64 stream so that a change to the simulator's RNG never
// changes the benchmark's inputs.

#ifndef AQL_PERFBENCH_WORKLOADS_H_
#define AQL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/experiment/scenarios.h"

namespace perfbench {

inline constexpr uint64_t kDefaultSeed = 1;
// Never used while the benchmark was tuned; the correctness gate must pass
// on it as well as on the default seed.
inline constexpr uint64_t kHeldOutSeed = 7919;

struct Cell {
  std::string id;
  aql::ScenarioSpec scenario;  // fleet cells have scenario.fleet.hosts > 0
  aql::PolicySpec policy;      // Xen (even index) or AQL (odd index)
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  // cells[2k] is the Xen cell and cells[2k + 1] the AQL cell of pair k.
  std::vector<Cell> cells;
  // Fleet cells only: host-island worker threads in the timed loop.
  int island_threads = 1;
};

// Names accepted by Generate, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Builds workload `name` from `seed`. Throws std::invalid_argument for an
// unknown name.
Workload Generate(const std::string& name, uint64_t seed);

// Declared working set of the cell's vCPUs (catalog NominalOp working sets)
// divided by the LLC capacity of all its sockets (all hosts for a fleet).
double WssOverLlc(const aql::ScenarioSpec& spec);

// Total vCPUs the spec declares.
int DeclaredVcpus(const aql::ScenarioSpec& spec);

// Simulated machine-seconds one run of the cell covers: warm-up + measure,
// times the host count for a fleet.
double SimMachineSeconds(const aql::ScenarioSpec& spec);

// Property guard: every io_dispatch cell fits the LLC and every llc_thrash
// cell overflows it. Returns a diagnostic, empty when the workload passes.
std::string CheckWorkloadProperties(const Workload& w);

}  // namespace perfbench

#endif  // AQL_PERFBENCH_WORKLOADS_H_
