// Integration-level tests for the Machine dispatcher: quantum slicing,
// blocking/wake, BOOST preemption, fairness, pools, migration.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/hv/machine.h"
#include "src/workload/cpu_burn.h"
#include "src/workload/io_server.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

MachineConfig SmallConfig(int pcpus = 1) {
  MachineConfig mc;
  mc.topology = MakeI73770Topology(pcpus);
  mc.seed = 7;
  return mc;
}

CpuBurnConfig Burner(const std::string& name) {
  CpuBurnConfig c;
  c.name = name;
  return c;
}

TEST(MachineTest, SingleVcpuRunsContinuously) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  Vcpu* v = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("solo")));
  m.Start();
  sim.RunUntil(Ms(100));
  // A lone vCPU owns the pCPU: runtime ~= wall time. Runtime is charged
  // lazily (at accounting boundaries / deschedules), so allow one 30 ms
  // accounting period of slack.
  EXPECT_GT(v->total_runtime, Ms(69));
  EXPECT_EQ(v->state, RunState::kRunning);
  m.ResetAllMetrics();  // flushes the charge
  sim.RunUntil(Ms(200));
  EXPECT_GT(v->total_runtime, Ms(69));
}

TEST(MachineTest, TwoVcpusShareFairly) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  Vcpu* a = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
  Vcpu* b = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b")));
  m.Start();
  sim.RunUntil(Sec(2));
  const double ra = ToSec(a->total_runtime);
  const double rb = ToSec(b->total_runtime);
  EXPECT_NEAR(ra, rb, 0.1);
  EXPECT_NEAR(ra + rb, 2.0, 0.05);
}

TEST(MachineTest, QuantumControlsDispatchCount) {
  for (TimeNs q : {Ms(10), Ms(30)}) {
    Simulation sim;
    MachineConfig mc = SmallConfig();
    mc.credit.default_quantum = q;
    Machine m(sim, mc);
    Vm* vm = m.AddVm("vm");
    Vcpu* a = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
    m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b")));
    m.Start();
    sim.RunUntil(Sec(1));
    // Each vCPU gets ~500ms => ~500ms/q dispatches.
    const double expected = 0.5e9 / static_cast<double>(q);
    EXPECT_NEAR(static_cast<double>(a->dispatches), expected, expected * 0.2);
  }
}

TEST(MachineTest, FinishedWorkloadLeavesCpu) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  CpuBurnConfig cfg = Burner("finite");
  cfg.total_work = Ms(5);
  Vcpu* v = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(cfg));
  Vcpu* other = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("bg")));
  m.Start();
  sim.RunUntil(Sec(1));
  EXPECT_EQ(v->state, RunState::kFinished);
  // The survivor picks up the slack.
  EXPECT_GT(other->total_runtime, Ms(950));
}

// Runs one compute step, then blocks for good. With a kick time, a timer
// kicks the vCPU at that moment, truncating whatever step is running.
class OneStepModel : public WorkloadModel {
 public:
  explicit OneStepModel(TimeNs kick_at) : kick_at_(kick_at) {}

  void OnAttach(WorkloadHost* host, int vcpu) override {
    WorkloadModel::OnAttach(host, vcpu);
    if (kick_at_ > 0) {
      host->ScheduleTimer(kick_at_, vcpu, /*tag=*/0);
    }
  }
  Step NextStep(TimeNs) override {
    if (issued_) {
      return Step::Block();
    }
    issued_ = true;
    MemProfile mem;
    mem.wss_bytes = 3 * 1024 * 1024;
    mem.llc_refs_per_ns = 0.037;
    mem.instructions_per_ns = 1.3;
    return Step::Compute(Us(777) + 1, mem);
  }
  void OnStepEnd(TimeNs now, const Step&, TimeNs work_done, bool completed) override {
    end_time = now;
    work = work_done;
    step_completed = completed;
    ++step_ends;
  }
  void OnTimer(TimeNs, int) override { host_->KickVcpu(vcpu_); }
  std::string Name() const override { return "one_step"; }
  PerfReport Report(TimeNs) const override { return {}; }
  void ResetMetrics(TimeNs) override {}

  TimeNs end_time = -1;
  TimeNs work = -1;
  bool step_completed = false;
  int step_ends = 0;

 private:
  TimeNs kick_at_;
  bool issued_ = false;
};

// A step truncated exactly at its planned end (a kick sequenced just ahead
// of the step's own segment end) runs the pro-rating with frac == 1.0; it
// must account exactly what the completed step does.
TEST(MachineTest, StepTruncatedAtItsPlannedEndAccountsLikeACompletedStep) {
  Simulation sim_a;
  Machine a(sim_a, SmallConfig());
  auto model_a = std::make_unique<OneStepModel>(/*kick_at=*/0);
  const OneStepModel* completed = model_a.get();
  Vcpu* va = a.AddVcpu(a.AddVm("vm"), std::move(model_a));
  a.Start();
  sim_a.RunUntil(Ms(5));
  ASSERT_EQ(completed->step_ends, 1);
  ASSERT_TRUE(completed->step_completed);

  Simulation sim_b;
  Machine b(sim_b, SmallConfig());
  auto model_b = std::make_unique<OneStepModel>(/*kick_at=*/completed->end_time);
  const OneStepModel* truncated = model_b.get();
  Vcpu* vb = b.AddVcpu(b.AddVm("vm"), std::move(model_b));
  b.Start();
  sim_b.RunUntil(Ms(5));
  ASSERT_EQ(truncated->step_ends, 1);
  EXPECT_FALSE(truncated->step_completed);  // the kick ended it
  EXPECT_EQ(truncated->end_time, completed->end_time);

  EXPECT_EQ(truncated->work, completed->work);
  EXPECT_EQ(truncated->work, Us(777) + 1);
  EXPECT_GT(va->pmu.llc_misses, 0u);
  EXPECT_EQ(vb->pmu.instructions, va->pmu.instructions);
  EXPECT_EQ(vb->pmu.llc_references, va->pmu.llc_references);
  EXPECT_EQ(vb->pmu.llc_misses, va->pmu.llc_misses);
  EXPECT_EQ(vb->pmu.remote_accesses, va->pmu.remote_accesses);
  EXPECT_EQ(b.llc().Occupancy(0, vb->id()), a.llc().Occupancy(0, va->id()));
}

// An unmodeled bus (the i7-3770 rig: mem_bw_bytes_per_ns == 0) never stalls,
// so a compute step registers no demand on it, even one that misses.
TEST(MachineTest, UnmodeledBusRegistersNoDemand) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  ASSERT_EQ(m.mem_bus().bandwidth(), 0.0);
  Vcpu* v = m.AddVcpu(m.AddVm("vm"), std::make_unique<OneStepModel>(/*kick_at=*/0));
  m.Start();
  sim.RunUntil(Us(100));
  ASSERT_EQ(m.RunningOn(0), v);  // the step is in flight
  EXPECT_EQ(m.mem_bus().TotalDemand(0), 0.0);
  sim.RunUntil(Ms(5));
  EXPECT_GT(v->pmu.llc_misses, 0u);
  EXPECT_EQ(m.mem_bus().TotalDemand(0), 0.0);
}

// A modeled bus (E5-4603) carries a missing step's demand while the step is
// in flight and drops it when the pCPU goes idle.
TEST(MachineTest, ModeledBusCarriesDemandOnlyWhileTheStepRuns) {
  Simulation sim;
  MachineConfig mc;
  mc.topology = MakeE54603Topology();
  Machine m(sim, mc);
  ASSERT_GT(m.mem_bus().bandwidth(), 0.0);
  Vcpu* v = m.AddVcpu(m.AddVm("vm"), std::make_unique<OneStepModel>(/*kick_at=*/0));
  m.Start();
  sim.RunUntil(Us(100));
  ASSERT_EQ(m.RunningOn(0), v);
  EXPECT_GT(m.mem_bus().TotalDemand(0), 0.0);
  sim.RunUntil(Ms(5));
  ASSERT_EQ(m.RunningOn(0), nullptr);  // the model blocked for good
  EXPECT_GT(v->pmu.llc_misses, 0u);
  EXPECT_EQ(m.mem_bus().TotalDemand(0), 0.0);
}

// Calls the host on its own vCPU from inside NextStep: a kick with its
// first compute step, a wake with the block that follows the second. The
// machine defers both until the step is armed: the kick then truncates the
// step it was issued with, and the wake ends the block at once (run before
// it, it would find the vCPU running, do nothing, and leave it blocked for
// good).
class SelfCallingModel : public WorkloadModel {
 public:
  Step NextStep(TimeNs) override {
    ++next_steps;
    switch (next_steps) {
      case 1:
        host_->KickVcpu(vcpu_);
        return Step::Compute(kWork, MemProfile());
      case 2:
        return Step::Compute(kWork, MemProfile());
      case 3:
        host_->WakeVcpu(vcpu_);
        return Step::Block();
      default:
        return Step::Finished();
    }
  }
  void OnStepEnd(TimeNs now, const Step& step, TimeNs work_done,
                 bool completed) override {
    ends.push_back({now, step.work, work_done, completed});
  }
  std::string Name() const override { return "self_calling"; }
  PerfReport Report(TimeNs) const override { return {}; }
  void ResetMetrics(TimeNs) override {}

  static constexpr TimeNs kWork = Us(300);
  struct End {
    TimeNs now;
    TimeNs step_work;
    TimeNs work_done;
    bool completed;
  };
  int next_steps = 0;
  std::vector<End> ends;
};

TEST(MachineTest, HostCallsFromNextStepTakeEffectAfterTheStepIsArmed) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  auto model = std::make_unique<SelfCallingModel>();
  const SelfCallingModel* self = model.get();
  Vcpu* v = m.AddVcpu(m.AddVm("vm"), std::move(model));
  m.Start();
  sim.RunUntil(Ms(5));
  EXPECT_EQ(v->state, RunState::kFinished);
  EXPECT_EQ(self->next_steps, 4);
  ASSERT_EQ(self->ends.size(), 2u);
  // The kick ended the fully built first step at once, before any work.
  EXPECT_EQ(self->ends[0].now, 0);
  EXPECT_EQ(self->ends[0].step_work, SelfCallingModel::kWork);
  EXPECT_EQ(self->ends[0].work_done, 0);
  EXPECT_FALSE(self->ends[0].completed);
  // The second step ran whole.
  EXPECT_EQ(self->ends[1].step_work, SelfCallingModel::kWork);
  EXPECT_EQ(self->ends[1].work_done, SelfCallingModel::kWork);
  EXPECT_TRUE(self->ends[1].completed);
  EXPECT_EQ(v->dispatches, 2u);  // first dispatch, then again after the wake
}

TEST(MachineTest, BlockedIoVcpuWakesOnEvent) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  IoServerConfig io;
  io.name = "io";
  io.arrival_rate_hz = 100;
  io.service_work = Us(50);
  Vcpu* v = m.AddVcpu(vm, std::make_unique<IoServerModel>(io));
  m.Start();
  sim.RunUntil(Sec(1));
  auto* model = static_cast<IoServerModel*>(v->workload());
  EXPECT_GT(model->completed_requests(), 80u);
  EXPECT_GT(v->pmu.io_events, 80u);
  // Mostly idle vCPU.
  EXPECT_LT(v->total_runtime, Ms(100));
}

TEST(MachineTest, BoostGivesIoLowLatencyUnderLoad) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  IoServerConfig io;
  io.name = "io";
  io.arrival_rate_hz = 200;
  io.service_work = Us(100);
  Vcpu* iov = m.AddVcpu(vm, std::make_unique<IoServerModel>(io));
  m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("hog")));
  m.Start();
  sim.RunUntil(Sec(2));
  auto* model = static_cast<IoServerModel*>(iov->workload());
  // With BOOST the blocked->wake path preempts the hog: latency ~ service
  // time, far below the 30ms quantum.
  EXPECT_LT(model->latency_us().mean(), 2000.0);
}

TEST(MachineTest, BoostEligibilityGating) {
  // Paper §3.4: a wake-up is BOOSTed only if the vCPU did not consume its
  // whole previous quantum and its credits are non-negative (UNDER).
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  IoServerConfig io;
  io.name = "io";
  io.arrival_rate_hz = 0.0001;  // effectively no organic arrivals
  io.service_work = Us(100);
  Vcpu* v = m.AddVcpu(vm, std::make_unique<IoServerModel>(io));
  m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("hog")));
  m.Start();
  sim.RunUntil(Ms(50));
  ASSERT_EQ(v->state, RunState::kBlocked);

  // A boosted wake preempts the hog and dispatches immediately (the vCPU
  // then re-blocks on its empty queue, clearing the flag — so the observable
  // effect is the immediate dispatch). A non-boosted wake leaves the vCPU
  // queued behind the hog's quantum.

  // Case 1: consumed its full previous quantum -> no boost, no dispatch.
  v->consumed_full_quantum = true;
  v->credits = 1e6;
  uint64_t dispatches = v->dispatches;
  m.NotifyIoEvent(v->id());
  EXPECT_EQ(v->dispatches, dispatches);
  EXPECT_EQ(v->state, RunState::kRunnable);
  EXPECT_FALSE(v->boosted);

  // Let it drain its (empty) queue and block again.
  sim.RunUntil(sim.Now() + Ms(200));
  ASSERT_EQ(v->state, RunState::kBlocked);

  // Case 2: blocked early and UNDER -> boosted wake, immediate dispatch.
  v->consumed_full_quantum = false;
  v->credits = 1e6;
  dispatches = v->dispatches;
  m.NotifyIoEvent(v->id());
  EXPECT_EQ(v->dispatches, dispatches + 1);

  sim.RunUntil(sim.Now() + Ms(200));
  ASSERT_EQ(v->state, RunState::kBlocked);

  // Case 3: OVER (negative credits) -> no boost even if it blocked early.
  v->consumed_full_quantum = false;
  v->credits = -1e6;
  dispatches = v->dispatches;
  m.NotifyIoEvent(v->id());
  EXPECT_EQ(v->dispatches, dispatches);
  EXPECT_FALSE(v->boosted);
}

TEST(MachineTest, ApplyPoolPlanChangesQuantum) {
  Simulation sim;
  Machine m(sim, SmallConfig(2));
  Vm* vm = m.AddVm("vm");
  Vcpu* a = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
  Vcpu* b = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b")));
  Vcpu* c = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("c")));
  Vcpu* d = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("d")));
  m.Start();

  PoolPlan plan;
  PoolSpec fast{"fast", {0}, Ms(1), {a->id(), b->id()}};
  PoolSpec slow{"slow", {1}, Ms(90), {c->id(), d->id()}};
  plan.pools = {fast, slow};
  m.ApplyPoolPlan(plan);
  const TimeNs t0 = sim.Now();
  const uint64_t da = a->dispatches;
  const uint64_t dc = c->dispatches;
  sim.RunUntil(t0 + Sec(1));
  // a/b at 1ms quantum: ~500 dispatches each; c/d at 90ms: ~6.
  EXPECT_GT(a->dispatches - da, 300u);
  EXPECT_LT(c->dispatches - dc, 20u);
  EXPECT_EQ(a->pool, 0);
  EXPECT_EQ(c->pool, 1);
}

TEST(MachineTest, PoolPlanValidationCatchesErrors) {
  PoolPlan plan;
  PoolSpec p{"p", {0, 0}, Ms(1), {0}};
  plan.pools = {p};
  EXPECT_NE(plan.Validate(2, {0}), "");

  PoolPlan missing_vcpu;
  missing_vcpu.pools = {PoolSpec{"p", {0, 1}, Ms(1), {0}}};
  EXPECT_NE(missing_vcpu.Validate(2, {0, 1}), "");

  PoolPlan ok;
  ok.pools = {PoolSpec{"p", {0, 1}, Ms(1), {0, 1}}};
  EXPECT_EQ(ok.Validate(2, {0, 1}), "");
}

TEST(MachineTest, VcpuQuantumOverride) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  Vcpu* a = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
  m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b")));
  m.Start();
  m.SetVcpuQuantum(a->id(), Ms(1));
  sim.RunUntil(Sec(1));
  // `a` is sliced at 1ms, so it is dispatched far more often than `b`.
  EXPECT_GT(a->dispatches, 200u);
}

TEST(MachineTest, CrossSocketMigrationDropsFootprint) {
  Simulation sim;
  MachineConfig mc;
  mc.topology = MakeE54603Topology();
  mc.topology.sockets = 2;
  Machine m(sim, mc);
  Vm* vm = m.AddVm("vm");
  CpuBurnConfig cfg = Burner("mem");
  cfg.mem.wss_bytes = 2 * 1024 * 1024;
  cfg.mem.llc_refs_per_ns = 0.005;
  Vcpu* v = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(cfg));
  m.Start();
  sim.RunUntil(Ms(200));
  EXPECT_GT(m.llc().Occupancy(0, v->id()), 0u);

  // Move the vCPU to socket 1.
  PoolPlan plan;
  plan.pools = {PoolSpec{"s0", {0, 1, 2, 3}, Ms(30), {}},
                PoolSpec{"s1", {4, 5, 6, 7}, Ms(30), {v->id()}}};
  m.ApplyPoolPlan(plan);
  sim.RunUntil(Ms(400));
  EXPECT_EQ(m.llc().Occupancy(0, v->id()), 0u);
  EXPECT_GT(m.llc().Occupancy(1, v->id()), 0u);
  EXPECT_GE(v->migrations, 1u);
}

TEST(MachineTest, ResetAllMetricsZeroesCounters) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  Vcpu* v = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
  m.Start();
  sim.RunUntil(Ms(100));
  m.ResetAllMetrics();
  EXPECT_EQ(v->total_runtime, 0);
  EXPECT_EQ(m.BusyTime(0), 0);
  EXPECT_EQ(m.measure_start(), sim.Now());
}

TEST(MachineTest, FairnessAcrossManyVcpus) {
  Simulation sim;
  Machine m(sim, SmallConfig(4));
  Vm* vm = m.AddVm("vm");
  std::vector<Vcpu*> vcpus;
  for (int i = 0; i < 16; ++i) {
    vcpus.push_back(m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b"))));
  }
  m.Start();
  sim.RunUntil(Sec(4));
  // 16 always-runnable vCPUs on 4 pCPUs: each should get ~1s +- 15%.
  for (Vcpu* v : vcpus) {
    EXPECT_NEAR(ToSec(v->total_runtime), 1.0, 0.15);
  }
}

TEST(MachineTest, WeightedFairness) {
  Simulation sim;
  Machine m(sim, SmallConfig(1));
  Vm* light = m.AddVm("light", 256);
  Vm* heavy = m.AddVm("heavy", 768);
  Vcpu* lv = m.AddVcpu(light, std::make_unique<CpuBurnModel>(Burner("l")));
  Vcpu* hv = m.AddVcpu(heavy, std::make_unique<CpuBurnModel>(Burner("h")));
  m.Start();
  sim.RunUntil(Sec(4));
  const double ratio = static_cast<double>(hv->total_runtime) /
                       static_cast<double>(lv->total_runtime);
  // 768:256 = 3:1 nominal; allow scheduling slack.
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.0);
}

}  // namespace
}  // namespace aql
