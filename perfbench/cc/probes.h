// Cell runners, untraced and traced.
//
// Untraced single-machine cells go through aql::RunScenario untouched.
// Fleet cells go through aql::RunFleet with a controller factory that wraps
// each host's AQL controller in a forwarding ProbeController, which reads
// the final detected types and pool plan when the host build is torn down
// (RunFleet keeps its machines internal, so this is the only view of them).
//
// The traced runners measure from outside, by timing calls at the
// simulator's public seams: WorkloadModel and SchedController decorators,
// Simulation::RunUntil, FleetSpec::controller_factory and the
// SimPhaseProfile / EventCoreProfile sinks. Attaching them must not change
// a single simulated value; every traced cell's digest is compared with the
// untraced one.

#ifndef AQL_PERFBENCH_PROBES_H_
#define AQL_PERFBENCH_PROBES_H_

#include <cstdint>

#include "src/hv/machine.h"
#include "results.h"
#include "workloads.h"

namespace perfbench {

// Per-layer host times and work counts, summed over the cells of a pass.
struct LayerSample {
  double loop_s = 0.0;        // traced wall of the cells, builds included
  double build_s = 0.0;       // machine build + VMs + vCPUs + Start
  double event_core_s = 0.0;  // event-queue machinery (EventCoreProfile)
  double llc_s = 0.0;         // LLC / memory-bus math in BeginStep
  double monitor_s = 0.0;     // controller monitor periods, self time
  double workload_s = 0.0;    // NextStep + OnStepEnd + OnTimer
  double barrier_s = 0.0;     // coordinator wait at island barriers
  uint64_t events = 0;
  uint64_t steps = 0;
  uint64_t workload_calls = 0;
  uint64_t dispatches = 0;
  uint64_t preemptions = 0;
  uint64_t monitor_calls = 0;
  uint64_t plan_applications = 0;
  uint64_t llc_refs = 0;
  uint64_t llc_misses = 0;
  uint64_t migrations = 0;
  uint64_t migration_failures = 0;
  uint64_t vm_restarts = 0;
  uint64_t crashes = 0;
  double island_imbalance = 0.0;  // summed over fleet cells
  int fleet_cells = 0;
};

// Untraced: aql::RunScenario.
CellOutcome RunMachineCell(const Cell& cell);

// Traced: the same simulation built from the public Machine API with timing
// decorators attached; adds its layer numbers to `sample`.
CellOutcome RunMachineCellTraced(const Cell& cell, LayerSample& sample);

// Raw result of one aql::RunFleet call and what its controller probes saw.
struct FleetRun {
  aql::FleetResult result;
  std::vector<ControllerRecord> builds;  // one per host build
  aql::SimPhaseProfile profile;          // traced runs only
  double wall_s = 0.0;
};

// aql::RunFleet on the FleetSpec aql::RunScenario would build for `cell`,
// at `island_threads`, with every host controller wrapped in a probe. A
// traced run attaches the profile sink and times the probes.
FleetRun RunFleetProbed(const Cell& cell, int island_threads, bool traced);

// RunFleetProbed as a cell. With `sample` non-null the run is traced and
// its layer numbers are added to `sample`.
CellOutcome RunFleetCell(const Cell& cell, int island_threads, LayerSample* sample);

}  // namespace perfbench

#endif  // AQL_PERFBENCH_PROBES_H_
