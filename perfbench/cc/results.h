// Cell outcomes: the output-correctness gate, result digests and the
// simulated quantities the end-to-end metrics are computed from.

#ifndef AQL_PERFBENCH_RESULTS_H_
#define AQL_PERFBENCH_RESULTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/vcpu_type.h"
#include "src/experiment/runner.h"
#include "src/fleet/fleet.h"
#include "workloads.h"

namespace perfbench {

// What one controller instance saw: one per host build of a fleet cell.
// Filled by ProbeController (probes.h) at attach and at teardown.
struct ControllerRecord {
  bool aql = false;
  int pcpus = 0;
  std::vector<std::string> apps;        // by host-local vCPU id
  std::vector<aql::VcpuType> detected;  // AQL only, by host-local vCPU id
  // AQL only: the final pool plan as (pCPUs, vCPUs) per pool.
  std::vector<std::pair<std::vector<int>, std::vector<int>>> pools;
  uint64_t plan_applications = 0;
  // Timed probes only.
  uint64_t monitor_calls = 0;
  double monitor_s = 0.0;
  double build_s = 0.0;
  uint64_t llc_refs = 0;
  uint64_t llc_misses = 0;
};

struct CellOutcome {
  uint64_t digest = 0;
  // Broken invariants or the exception the cell threw; empty = the cell
  // passed the correctness gate.
  std::vector<std::string> errors;
  double wall_s = 0.0;
  uint64_t events = 0;
  std::vector<aql::GroupPerf> app_groups;
  int recognized = 0;  // AQL vCPUs whose detected type is the catalog's
  int typed = 0;       // AQL vCPUs with a detected type
  double availability = 1.0;

  bool failed() const { return !errors.empty(); }
};

uint64_t Digest(const aql::ScenarioResult& r);
uint64_t Digest(const aql::FleetResult& r);

// Invariants of a single-machine cell's public result.
std::vector<std::string> CheckMachineCell(const Cell& cell, const aql::ScenarioResult& r);

// Invariants of a fleet cell's public result and of every AQL host build's
// final pool plan.
std::vector<std::string> CheckFleetCell(const Cell& cell, const aql::FleetResult& r,
                                        const std::vector<ControllerRecord>& builds);

CellOutcome MachineOutcome(const Cell& cell, const aql::ScenarioResult& r);
CellOutcome FleetOutcome(const Cell& cell, const aql::FleetResult& r,
                         const std::vector<ControllerRecord>& builds);

// Digest over the cells' digests, in cell order.
uint64_t CombineDigests(const std::vector<CellOutcome>& cells);

}  // namespace perfbench

#endif  // AQL_PERFBENCH_RESULTS_H_
