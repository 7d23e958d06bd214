#include "results.h"

#include <cmath>
#include <cstring>

#include "src/workload/catalog.h"

namespace perfbench {
namespace {

// FNV-1a over a canonical byte stream: doubles by bit pattern, strings
// length-prefixed, so the digest changes exactly when a stored value does.
class Hasher {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Ints(const std::vector<int>& v) {
    U64(v.size());
    for (const int x : v) {
      I64(x);
    }
  }
  void Groups(const std::vector<aql::GroupPerf>& groups) {
    U64(groups.size());
    for (const aql::GroupPerf& g : groups) {
      Str(g.name);
      I64(g.vcpus);
      F64(g.primary);
      U64(g.metrics.size());
      for (const auto& [k, v] : g.metrics) {
        Str(k);
        F64(v);
      }
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

using Pools = std::vector<std::pair<std::vector<int>, std::vector<int>>>;

// The pool plan must hand every pCPU to exactly one pool and schedule every
// vCPU in exactly one pool.
std::string CheckPools(const Pools& pools, int pcpus, int vcpus) {
  if (pools.empty()) {
    return "AQL cell has no pool plan";
  }
  std::vector<int> pcpu_uses(static_cast<size_t>(pcpus), 0);
  std::vector<int> vcpu_uses(static_cast<size_t>(vcpus), 0);
  for (const auto& [pool_pcpus, pool_vcpus] : pools) {
    for (const int p : pool_pcpus) {
      if (p < 0 || p >= pcpus) {
        return "pool names pCPU " + std::to_string(p) + " outside the machine";
      }
      ++pcpu_uses[static_cast<size_t>(p)];
    }
    for (const int v : pool_vcpus) {
      if (v < 0 || v >= vcpus) {
        return "pool names vCPU " + std::to_string(v) + " outside the machine";
      }
      ++vcpu_uses[static_cast<size_t>(v)];
    }
  }
  for (int p = 0; p < pcpus; ++p) {
    if (pcpu_uses[static_cast<size_t>(p)] != 1) {
      return "pCPU " + std::to_string(p) + " is in " +
             std::to_string(pcpu_uses[static_cast<size_t>(p)]) + " pools";
    }
  }
  for (int v = 0; v < vcpus; ++v) {
    if (vcpu_uses[static_cast<size_t>(v)] != 1) {
      return "vCPU " + std::to_string(v) + " is in " +
             std::to_string(vcpu_uses[static_cast<size_t>(v)]) + " pools";
    }
  }
  return "";
}

void CheckFraction(std::vector<std::string>& errors, const std::string& what, double v) {
  if (!(v >= 0.0 && v <= 1.0)) {
    errors.push_back(what + " " + std::to_string(v) + " outside [0, 1]");
  }
}

void CheckGroups(std::vector<std::string>& errors, const std::vector<aql::GroupPerf>& groups,
                 int vcpus) {
  int grouped = 0;
  for (const aql::GroupPerf& g : groups) {
    grouped += g.vcpus;
    if (!(std::isfinite(g.primary) && g.primary > 0.0)) {
      errors.push_back("group " + g.name + " has primary cost " + std::to_string(g.primary));
    }
  }
  if (grouped != vcpus) {
    errors.push_back("groups cover " + std::to_string(grouped) + " vCPUs, spec declares " +
                     std::to_string(vcpus));
  }
}

// Detected-vs-catalog typing over one AQL controller's vCPUs.
void Recognition(const std::vector<std::string>& apps,
                 const std::vector<aql::VcpuType>& detected, CellOutcome& out) {
  for (size_t i = 0; i < apps.size() && i < detected.size(); ++i) {
    if (aql::HasApp(apps[i])) {
      ++out.typed;
      out.recognized += aql::FindApp(apps[i]).expected_type == detected[i] ? 1 : 0;
    }
  }
}

std::vector<std::string> AppsByVcpu(const aql::ScenarioSpec& spec) {
  std::vector<std::string> apps;
  for (const aql::VmSpec& vm : spec.vms) {
    apps.insert(apps.end(), static_cast<size_t>(vm.vcpus), vm.app);
  }
  return apps;
}

}  // namespace

uint64_t Digest(const aql::ScenarioResult& r) {
  Hasher h;
  h.Str(r.scenario);
  h.Str(r.policy);
  h.U64(r.reports.size());
  for (const aql::PerfReport& rep : r.reports) {
    h.Str(rep.workload_name);
    h.U64(rep.metrics.size());
    for (const auto& [k, v] : rep.metrics) {
      h.Str(k);
      h.F64(v);
    }
  }
  h.Groups(r.groups);
  h.I64(r.measure_window);
  h.F64(r.cpu_utilization);
  h.I64(r.controller_overhead);
  h.U64(r.events_processed);
  h.U64(r.detected_types.size());
  for (const auto& [vcpu, type] : r.detected_types) {
    h.I64(vcpu);
    h.I64(static_cast<int>(type));
  }
  h.U64(r.pools.size());
  for (const aql::ScenarioResult::PoolInfo& p : r.pools) {
    h.Str(p.label);
    h.I64(p.quantum);
    h.Ints(p.pcpus);
    h.Ints(p.vcpus);
  }
  h.U64(r.plan_applications);
  return h.value();
}

uint64_t Digest(const aql::FleetResult& r) {
  Hasher h;
  h.Groups(r.app_groups);
  h.U64(r.hosts.size());
  for (const aql::FleetHostStats& s : r.hosts) {
    h.F64(s.cpu_utilization);
    h.I64(s.vcpus);
    h.U64(s.events);
    h.I64(s.migrations_in);
    h.I64(s.migrations_out);
    h.U64(s.migration_bytes_in);
    h.U64(s.migration_bytes_out);
    h.I64(s.migration_charge);
    h.I64(s.drained ? 1 : 0);
    h.I64(s.crashes);
    h.I64(s.degraded ? 1 : 0);
    h.I64(s.restarts_in);
    h.I64(s.migration_failures);
    h.U64(s.aborted_bytes_out);
    h.U64(s.aborted_bytes_in);
    h.I64(s.fault_charge);
  }
  h.I64(r.measure_window);
  h.F64(r.cpu_utilization);
  h.I64(r.controller_overhead);
  h.U64(r.events_processed);
  h.I64(r.migrations);
  h.U64(r.migration_bytes);
  h.I64(r.migration_charge);
  h.I64(r.vcpus_total);
  h.I64(r.crashes);
  h.I64(r.vm_restarts);
  h.I64(r.downtime_total);
  h.F64(r.availability);
  h.I64(r.migration_failures);
  h.I64(r.migration_retries);
  h.I64(r.migrations_abandoned);
  h.U64(r.aborted_bytes);
  h.I64(r.fault_charge);
  h.I64(r.degraded_hosts);
  return h.value();
}

std::vector<std::string> CheckMachineCell(const Cell& cell, const aql::ScenarioResult& r) {
  std::vector<std::string> errors;
  const aql::ScenarioSpec& spec = cell.scenario;
  const int vcpus = DeclaredVcpus(spec);
  if (r.measure_window != spec.measure) {
    errors.push_back("measure window " + std::to_string(r.measure_window) + " ns, spec " +
                     std::to_string(spec.measure) + " ns");
  }
  CheckFraction(errors, "cpu utilization", r.cpu_utilization);
  if (static_cast<int>(r.reports.size()) != vcpus) {
    errors.push_back(std::to_string(r.reports.size()) + " reports for " +
                     std::to_string(vcpus) + " vCPUs");
  }
  CheckGroups(errors, r.groups, vcpus);
  if (cell.policy.kind == aql::PolicySpec::Kind::kAql) {
    Pools pools;
    for (const aql::ScenarioResult::PoolInfo& p : r.pools) {
      pools.emplace_back(p.pcpus, p.vcpus);
    }
    const std::string bad =
        CheckPools(pools, spec.machine.topology.TotalPcpus(), vcpus);
    if (!bad.empty()) {
      errors.push_back(bad);
    }
  }
  return errors;
}

std::vector<std::string> CheckFleetCell(const Cell& cell, const aql::FleetResult& r,
                                        const std::vector<ControllerRecord>& builds) {
  std::vector<std::string> errors;
  const aql::ScenarioSpec& spec = cell.scenario;
  const int vcpus = DeclaredVcpus(spec);
  if (r.measure_window != spec.measure) {
    errors.push_back("measure window " + std::to_string(r.measure_window) + " ns, spec " +
                     std::to_string(spec.measure) + " ns");
  }
  CheckFraction(errors, "fleet cpu utilization", r.cpu_utilization);
  for (size_t h = 0; h < r.hosts.size(); ++h) {
    CheckFraction(errors, "host" + std::to_string(h) + " cpu utilization",
                  r.hosts[h].cpu_utilization);
  }
  if (r.vcpus_total != vcpus) {
    errors.push_back("fleet vcpus_total " + std::to_string(r.vcpus_total) + ", spec " +
                     std::to_string(vcpus));
  }
  CheckFraction(errors, "availability", r.availability);
  CheckGroups(errors, r.app_groups, vcpus);
  for (const ControllerRecord& b : builds) {
    // A build torn down before AQL's first decision has no plan yet.
    if (b.aql && !b.pools.empty()) {
      const std::string bad = CheckPools(b.pools, b.pcpus, static_cast<int>(b.apps.size()));
      if (!bad.empty()) {
        errors.push_back("host build: " + bad);
      }
    }
  }
  return errors;
}

CellOutcome MachineOutcome(const Cell& cell, const aql::ScenarioResult& r) {
  CellOutcome out;
  out.digest = Digest(r);
  out.errors = CheckMachineCell(cell, r);
  out.events = r.events_processed;
  out.app_groups = r.groups;
  if (cell.policy.kind == aql::PolicySpec::Kind::kAql) {
    const std::vector<std::string> apps = AppsByVcpu(cell.scenario);
    std::vector<aql::VcpuType> detected;
    for (int v = 0; v < static_cast<int>(apps.size()); ++v) {
      const auto it = r.detected_types.find(v);
      if (it == r.detected_types.end()) {
        out.errors.push_back("vCPU " + std::to_string(v) + " has no detected type");
        return out;
      }
      detected.push_back(it->second);
    }
    Recognition(apps, detected, out);
  }
  return out;
}

CellOutcome FleetOutcome(const Cell& cell, const aql::FleetResult& r,
                         const std::vector<ControllerRecord>& builds) {
  CellOutcome out;
  out.digest = Digest(r);
  out.errors = CheckFleetCell(cell, r, builds);
  out.events = r.events_processed;
  out.app_groups = r.app_groups;
  out.availability = r.availability;
  for (const ControllerRecord& b : builds) {
    if (b.aql) {
      Recognition(b.apps, b.detected, out);
    }
  }
  return out;
}

uint64_t CombineDigests(const std::vector<CellOutcome>& cells) {
  Hasher h;
  for (const CellOutcome& c : cells) {
    h.U64(c.digest);
  }
  return h.value();
}

}  // namespace perfbench
