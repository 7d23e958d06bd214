#include "selftest.h"

#include <cstdio>
#include <string>
#include <vector>

#include "probes.h"
#include "results.h"
#include "src/experiment/sweep.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_checks = 0;
int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
  }
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
}

std::string Fingerprint(const Workload& w) {
  std::string s;
  for (const Cell& c : w.cells) {
    s += c.id + "|" + c.policy.Label() + "|" + std::to_string(c.scenario.machine.seed) + "|" +
         aql::ScenarioJson(c.scenario).Dump();
    for (const int h : c.scenario.fleet.declared_hosts) {
      s += std::to_string(h) + ",";
    }
  }
  return s;
}

// A cheap copy of `cell`: short windows and, for a fleet, its first hosts.
Cell Shrunk(Cell cell) {
  cell.scenario.warmup = aql::Ms(300);
  cell.scenario.measure = aql::Ms(700);
  aql::FleetConfig& f = cell.scenario.fleet;
  if (f.hosts > 0) {
    constexpr int kHosts = 6;
    std::vector<aql::VmSpec> vms;
    std::vector<int> declared;
    for (size_t i = 0; i < cell.scenario.vms.size(); ++i) {
      if (f.declared_hosts[i] < kHosts) {
        vms.push_back(cell.scenario.vms[i]);
        declared.push_back(f.declared_hosts[i]);
      }
    }
    cell.scenario.vms = vms;
    f.declared_hosts = declared;
    f.hosts = kHosts;
    f.epoch = aql::Ms(100);
    f.fault.crash_rate_per_host_per_sec = 0.5;
  }
  return cell;
}

void GeneratorChecks() {
  for (const std::string& name : WorkloadNames()) {
    const Workload a = Generate(name, kDefaultSeed);
    const Workload b = Generate(name, kDefaultSeed);
    const Workload c = Generate(name, kHeldOutSeed);
    Expect(!a.cells.empty() && a.cells.size() % 2 == 0, name + ": cells come in Xen/AQL pairs");
    Expect(Fingerprint(a) == Fingerprint(b), name + ": same seed, same inputs");
    Expect(Fingerprint(a) != Fingerprint(c), name + ": held-out seed, other inputs");
    Expect(CheckWorkloadProperties(a).empty(), name + ": property guard, default seed");
    Expect(CheckWorkloadProperties(c).empty(), name + ": property guard, held-out seed");
  }
  Workload io = Generate("io_dispatch", kDefaultSeed);
  io.cells[3].scenario.vms.front().app = "mcf";
  Expect(!CheckWorkloadProperties(io).empty(), "guard rejects an io_dispatch cell that overflows");
  Workload llc = Generate("llc_thrash", kDefaultSeed);
  for (aql::VmSpec& vm : llc.cells[0].scenario.vms) {
    vm.app = "hmmer";
  }
  Expect(!CheckWorkloadProperties(llc).empty(), "guard rejects an llc_thrash cell that fits");
}

void MachineChecks() {
  const Cell cell = Shrunk(Generate("io_dispatch", kDefaultSeed).cells[1]);
  const aql::ScenarioResult good = aql::RunScenario(cell.scenario, cell.policy);
  Expect(CheckMachineCell(cell, good).empty(), "machine cell passes the gate");
  Expect(!good.pools.empty(), "AQL cell has a pool plan to corrupt");
  if (good.pools.empty()) {
    return;
  }
  const auto rejects = [&cell](aql::ScenarioResult r, const std::string& what) {
    Expect(!CheckMachineCell(cell, r).empty(), "gate rejects " + what);
  };
  aql::ScenarioResult r = good;
  r.measure_window += 1;
  rejects(r, "a window other than the spec's");
  r = good;
  r.cpu_utilization = 1.5;
  rejects(r, "utilization above 1");
  r = good;
  r.reports.pop_back();
  rejects(r, "a missing vCPU report");
  r = good;
  r.pools.push_back(r.pools.front());
  rejects(r, "a pool plan listing pCPUs and vCPUs twice");
  r = good;
  r.pools[0].vcpus.clear();
  rejects(r, "vCPUs in no pool");
}

void FleetChecks() {
  const Cell cell = Shrunk(Generate("fleet_churn", kDefaultSeed).cells[1]);
  const FleetRun run = RunFleetProbed(cell, 1, false);
  const aql::FleetResult& good = run.result;
  const std::vector<ControllerRecord>& builds = run.builds;
  Expect(CheckFleetCell(cell, good, builds).empty(), "fleet cell passes the gate");
  Expect(good.crashes > 0, "small fleet exercises crashes");
  const auto rejects = [&cell, &builds](aql::FleetResult r, const std::string& what) {
    Expect(!CheckFleetCell(cell, r, builds).empty(), "gate rejects " + what);
  };
  aql::FleetResult r = good;
  r.vcpus_total += 1;
  rejects(r, "a fleet vcpus_total other than the spec's");
  r = good;
  r.availability = 1.5;
  rejects(r, "availability above 1");
  r = good;
  r.hosts[0].cpu_utilization = -0.1;
  rejects(r, "negative host utilization");
  std::vector<ControllerRecord> bad = builds;
  bool corrupted = false;
  for (ControllerRecord& b : bad) {
    if (b.aql && !b.pools.empty()) {
      b.pools.push_back(b.pools.front());
      corrupted = true;
      break;
    }
  }
  Expect(corrupted && !CheckFleetCell(cell, good, bad).empty(),
         "gate rejects a host build whose pool plan lists pCPUs twice");
}

void FidelityChecks() {
  std::vector<Cell> cells = {Shrunk(Generate("llc_thrash", kDefaultSeed).cells[0]),
                             Shrunk(Generate("llc_thrash", kDefaultSeed).cells[1]),
                             Shrunk(Generate("io_dispatch", kDefaultSeed).cells[1]),
                             Shrunk(Generate("numa_complex", kDefaultSeed).cells[1]),
                             Shrunk(Generate("numa_complex", kDefaultSeed).cells[3])};
  for (const Cell& c : cells) {
    LayerSample sample;
    const CellOutcome traced = RunMachineCellTraced(c, sample);
    Expect(RunMachineCell(c).digest == traced.digest,
           c.id + ": traced runner digest equals RunScenario's");
    Expect(sample.steps > 0 && sample.events > 0, c.id + ": traced runner counts work");
  }
  const Workload fleet = Generate("fleet_churn", kDefaultSeed);
  for (const Cell& full : {fleet.cells[0], fleet.cells[1]}) {
    const Cell c = Shrunk(full);
    LayerSample sample;
    const uint64_t untraced = RunFleetCell(c, 2, nullptr).digest;
    Expect(RunFleetCell(c, 1, &sample).digest == untraced,
           c.id + ": traced fleet at 1 island thread equals untraced at 2");
    Expect(RunFleetCell(c, 2, &sample).digest == untraced,
           c.id + ": traced fleet at 2 island threads equals untraced");
  }
}

}  // namespace

int RunSelfTest() {
  GeneratorChecks();
  MachineChecks();
  FleetChecks();
  FidelityChecks();
  std::printf("self-test: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
