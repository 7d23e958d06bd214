#include "probes.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/core/aql_controller.h"
#include "src/hv/machine.h"
#include "src/workload/source.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Workload-side time and counts of one traced single-machine cell.
struct WorkloadTrace {
  double seconds = 0.0;
  uint64_t calls = 0;
  uint64_t steps = 0;
};

// Times the calls the Machine makes into a guest model. The Machine defers
// every host call a model makes from inside these callbacks, so the spans
// never nest.
class TimedWorkload final : public aql::WorkloadModel {
 public:
  TimedWorkload(std::unique_ptr<aql::WorkloadModel> inner, WorkloadTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void OnAttach(aql::WorkloadHost* host, int vcpu) override {
    WorkloadModel::OnAttach(host, vcpu);
    inner_->OnAttach(host, vcpu);
  }
  aql::Step NextStep(aql::TimeNs now) override {
    const auto t0 = Clock::now();
    aql::Step step = inner_->NextStep(now);
    Count(t0);
    ++trace_->steps;
    return step;
  }
  void OnStepEnd(aql::TimeNs now, const aql::Step& step, aql::TimeNs work_done,
                 bool completed) override {
    const auto t0 = Clock::now();
    inner_->OnStepEnd(now, step, work_done, completed);
    Count(t0);
  }
  void OnTimer(aql::TimeNs now, int tag) override {
    const auto t0 = Clock::now();
    inner_->OnTimer(now, tag);
    Count(t0);
  }
  std::string Name() const override { return inner_->Name(); }
  aql::PerfReport Report(aql::TimeNs now) const override { return inner_->Report(now); }
  void ResetMetrics(aql::TimeNs now) override { inner_->ResetMetrics(now); }
  bool HasDurableState() const override { return inner_->HasDurableState(); }
  double SaveDurableState() const override { return inner_->SaveDurableState(); }
  void RestoreDurableState(double state) override { inner_->RestoreDurableState(state); }

 private:
  void Count(Clock::time_point t0) {
    trace_->seconds += Since(t0);
    ++trace_->calls;
  }

  std::unique_ptr<aql::WorkloadModel> inner_;
  WorkloadTrace* trace_;
};

// Forwards to an optional AQL controller; a null inner controller stands
// for native Xen, which the Machine runs exactly as with no controller (the
// monitor chain is armed either way). Records what it sees into `record`,
// which must outlive the Machine that owns this probe.
class ProbeController final : public aql::SchedController {
 public:
  // `timed` enables the clock reads. `workload` and `profile`, when
  // non-null, are the cell's other sinks: their time inside a monitor
  // period (pool re-homing dispatches steps) is subtracted so monitor_s is
  // self time.
  ProbeController(std::unique_ptr<aql::AqlController> inner, ControllerRecord* record,
                  bool timed, const WorkloadTrace* workload,
                  const aql::SimPhaseProfile* profile, Clock::time_point created)
      : inner_(std::move(inner)),
        record_(record),
        timed_(timed),
        workload_(workload),
        profile_(profile),
        created_(created) {}

  // Runs inside ~Machine, which destroys its controller before its vCPUs
  // (member order in src/hv/machine.h), so machine_->vcpus() is still valid.
  ~ProbeController() override {
    if (inner_ != nullptr) {
      for (size_t v = 0; v < record_->apps.size(); ++v) {
        record_->detected.push_back(inner_->TypeOf(static_cast<int>(v)));
      }
      for (const aql::PoolSpec& p : inner_->current_plan().pools) {
        record_->pools.emplace_back(p.pcpus, p.vcpus);
      }
      record_->plan_applications = inner_->plan_applications();
    }
    if (timed_ && machine_ != nullptr) {
      for (const aql::Vcpu* v : machine_->vcpus()) {
        record_->llc_refs += v->pmu.llc_references;
        record_->llc_misses += v->pmu.llc_misses;
      }
    }
  }

  std::string Name() const override { return inner_ != nullptr ? inner_->Name() : "Xen"; }

  void OnAttach(aql::Machine& machine) override {
    machine_ = &machine;
    record_->aql = inner_ != nullptr;
    record_->pcpus = machine.topology().TotalPcpus();
    for (const aql::Vcpu* v : machine.vcpus()) {
      record_->apps.push_back(v->workload()->Name());
    }
    if (inner_ != nullptr) {
      inner_->OnAttach(machine);
    }
    if (timed_) {
      record_->build_s = Since(created_);
    }
  }

  void OnMonitorPeriod(aql::Machine& machine, aql::TimeNs now) override {
    if (!timed_) {
      if (inner_ != nullptr) {
        inner_->OnMonitorPeriod(machine, now);
      }
      return;
    }
    const double nested0 = Nested(machine);
    const auto t0 = Clock::now();
    if (inner_ != nullptr) {
      inner_->OnMonitorPeriod(machine, now);
    }
    const double span = Since(t0);
    record_->monitor_s += span - (Nested(machine) - nested0);
    ++record_->monitor_calls;
  }

 private:
  double Nested(aql::Machine& machine) const {
    double s = workload_ != nullptr ? workload_->seconds : 0.0;
    if (profile_ != nullptr) {
      machine.FlushProfile();  // folds per-socket LLC time on multi-socket machines
      s += profile_->llc_seconds;
    }
    return s;
  }

  std::unique_ptr<aql::AqlController> inner_;
  ControllerRecord* record_;
  bool timed_;
  const WorkloadTrace* workload_;
  const aql::SimPhaseProfile* profile_;
  Clock::time_point created_;
  aql::Machine* machine_ = nullptr;
};

aql::MachineConfig HostConfig(const Cell& cell) {
  aql::MachineConfig mc = cell.scenario.machine;
  if (cell.policy.kind == aql::PolicySpec::Kind::kXen) {
    mc.credit.default_quantum = cell.policy.xen_quantum;
  }
  return mc;
}

bool IsAql(const Cell& cell) { return cell.policy.kind == aql::PolicySpec::Kind::kAql; }

}  // namespace

CellOutcome RunMachineCell(const Cell& cell) {
  const auto t0 = Clock::now();
  const aql::ScenarioResult r = aql::RunScenario(cell.scenario, cell.policy);
  const double wall = Since(t0);
  CellOutcome out = MachineOutcome(cell, r);
  out.wall_s = wall;
  return out;
}

// Mirrors the single-machine path of aql::RunScenario for catalog VMs and
// the Xen/AQL policies; the digest comparison with RunMachineCell proves
// both simulate the same thing.
CellOutcome RunMachineCellTraced(const Cell& cell, LayerSample& sample) {
  const aql::ScenarioSpec& spec = cell.scenario;
  // Sinks first: the Machine's destructor runs the decorators that use them.
  WorkloadTrace trace;
  aql::SimPhaseProfile profile;
  ControllerRecord record;

  const auto t_build = Clock::now();
  const aql::MachineConfig mc = HostConfig(cell);
  aql::Simulation sim(mc.seed);
  aql::Machine machine(sim, mc);
  int vm_index = 0;
  for (const aql::VmSpec& vs : spec.vms) {
    aql::Vm* vm = machine.AddVm("vm" + std::to_string(vm_index++) + "_" + vs.app, vs.weight,
                                vs.cap_percent);
    aql::WorkloadSourceSpec source_spec;
    source_spec.app = vs.app;
    source_spec.vcpus = vs.vcpus;
    source_spec.options.fifo_lock = vs.fifo_lock;
    std::string error;
    const auto source = aql::MakeWorkloadSource(source_spec, &error);
    if (source == nullptr) {
      throw std::runtime_error(error);
    }
    for (auto& model : source->MakeModels()) {
      machine.AddVcpu(vm, std::make_unique<TimedWorkload>(std::move(model), &trace));
    }
  }
  aql::AqlController* aql_ctl = nullptr;
  if (IsAql(cell)) {
    auto ctl = std::make_unique<aql::AqlController>(cell.policy.aql);
    aql_ctl = ctl.get();
    machine.SetController(std::make_unique<ProbeController>(std::move(ctl), &record, true,
                                                            &trace, &profile, t_build));
  }
  machine.SetProfile(&profile);
  machine.Start();
  sample.build_s += Since(t_build);

  const aql::TimeNs t_warm = sim.Now() + spec.warmup;
  const aql::TimeNs t_end = t_warm + spec.measure;
  sim.At(t_warm, [](aql::TimeNs) {});
  sim.At(t_end, [](aql::TimeNs) {});
  uint64_t events = sim.RunUntil(t_warm);
  for (const aql::Vcpu* v : machine.vcpus()) {  // the reset below zeroes these
    sample.dispatches += v->dispatches;
    sample.preemptions += v->preemptions;
  }
  machine.ResetAllMetrics();
  events += sim.RunUntil(t_end);
  machine.FlushProfile();

  aql::ScenarioResult r;
  r.scenario = spec.name;
  r.policy = cell.policy.Label();
  r.reports = machine.Reports();
  r.groups = aql::GroupReports(r.reports);
  r.measure_window = t_end - machine.measure_start();
  r.events_processed = events;
  r.controller_overhead = machine.controller_overhead();
  aql::TimeNs busy = 0;
  for (int p = 0; p < mc.topology.TotalPcpus(); ++p) {
    busy += machine.BusyTime(p);
  }
  const double capacity = static_cast<double>(r.measure_window) *
                          static_cast<double>(mc.topology.TotalPcpus());
  r.cpu_utilization = capacity > 0 ? static_cast<double>(busy) / capacity : 0.0;
  if (aql_ctl != nullptr) {
    for (const aql::Vcpu* v : machine.vcpus()) {
      r.detected_types[v->id()] = aql_ctl->TypeOf(v->id());
    }
    for (const aql::PoolSpec& p : aql_ctl->current_plan().pools) {
      r.pools.push_back(aql::ScenarioResult::PoolInfo{p.label, p.quantum, p.pcpus, p.vcpus});
    }
    r.plan_applications = aql_ctl->plan_applications();
  }
  for (const aql::Vcpu* v : machine.vcpus()) {
    sample.dispatches += v->dispatches;
    sample.preemptions += v->preemptions;
    sample.llc_refs += v->pmu.llc_references;
    sample.llc_misses += v->pmu.llc_misses;
  }
  const double wall = Since(t_build);

  sample.loop_s += wall;
  sample.event_core_s += profile.event_core.seconds;
  sample.llc_s += profile.llc_seconds;
  sample.monitor_s += record.monitor_s;
  sample.workload_s += trace.seconds;
  sample.events += events;
  sample.steps += trace.steps;
  sample.workload_calls += trace.calls;
  sample.monitor_calls += record.monitor_calls;
  sample.plan_applications += r.plan_applications;

  CellOutcome out = MachineOutcome(cell, r);
  out.wall_s = wall;
  return out;
}

FleetRun RunFleetProbed(const Cell& cell, int island_threads, bool traced) {
  const aql::ScenarioSpec& spec = cell.scenario;
  const bool aql_policy = IsAql(cell);
  FleetRun run;
  // Records outlive RunFleet's machines, and so the probes writing them.
  std::mutex records_mu;
  std::vector<std::unique_ptr<ControllerRecord>> records;

  aql::FleetSpec fleet;
  fleet.host_template = HostConfig(cell);
  fleet.config = spec.fleet;
  fleet.warmup = spec.warmup;
  fleet.measure = spec.measure;
  fleet.island_threads = island_threads;
  for (const aql::VmSpec& vs : spec.vms) {
    fleet.vms.push_back(
        aql::FleetVmSpec{vs.app, vs.vcpus, vs.weight, vs.cap_percent, vs.fifo_lock});
  }
  if (aql_policy || traced) {
    fleet.controller_factory =
        [&](const std::vector<int>&) -> std::unique_ptr<aql::SchedController> {
      const auto created = Clock::now();
      ControllerRecord* record = nullptr;
      {
        std::lock_guard<std::mutex> lock(records_mu);
        records.push_back(std::make_unique<ControllerRecord>());
        record = records.back().get();
      }
      std::unique_ptr<aql::AqlController> inner;
      if (aql_policy) {
        inner = std::make_unique<aql::AqlController>(cell.policy.aql);
      }
      return std::make_unique<ProbeController>(std::move(inner), record, traced, nullptr,
                                               nullptr, created);
    };
  }
  if (traced) {
    fleet.profile = &run.profile;
  }

  const auto t0 = Clock::now();
  run.result = aql::RunFleet(fleet);
  run.wall_s = Since(t0);
  for (const auto& r : records) {
    run.builds.push_back(*r);
  }
  return run;
}

CellOutcome RunFleetCell(const Cell& cell, int island_threads, LayerSample* sample) {
  const FleetRun run = RunFleetProbed(cell, island_threads, sample != nullptr);
  const aql::FleetResult& fr = run.result;
  CellOutcome out = FleetOutcome(cell, fr, run.builds);
  out.wall_s = run.wall_s;
  if (sample == nullptr) {
    return out;
  }
  sample->loop_s += run.wall_s;
  sample->event_core_s += run.profile.event_core.seconds;
  sample->llc_s += run.profile.llc_seconds;
  sample->barrier_s += run.profile.barrier_wait_seconds;
  sample->events += fr.events_processed;
  for (const ControllerRecord& b : run.builds) {
    sample->build_s += b.build_s;
    sample->monitor_s += b.monitor_s;
    sample->monitor_calls += b.monitor_calls;
    sample->plan_applications += b.plan_applications;
    sample->llc_refs += b.llc_refs;
    sample->llc_misses += b.llc_misses;
  }
  sample->migrations += static_cast<uint64_t>(fr.migrations);
  sample->migration_failures += static_cast<uint64_t>(fr.migration_failures);
  sample->vm_restarts += static_cast<uint64_t>(fr.vm_restarts);
  sample->crashes += static_cast<uint64_t>(fr.crashes);
  uint64_t most = 0;
  uint64_t total = 0;
  for (const aql::FleetHostStats& h : fr.hosts) {
    most = std::max(most, h.events);
    total += h.events;
  }
  if (total > 0) {
    sample->island_imbalance += static_cast<double>(most) *
                                static_cast<double>(fr.hosts.size()) /
                                static_cast<double>(total);
  }
  ++sample->fleet_cells;
  return out;
}

}  // namespace perfbench
