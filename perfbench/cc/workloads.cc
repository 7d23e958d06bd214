#include "workloads.h"

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>

#include "src/workload/catalog.h"

namespace perfbench {
namespace {

using aql::ScenarioSpec;
using aql::VmSpec;

// Pair counts per pass. A pass must carry enough mixes that its
// composition, and so its host cost per simulated second, barely moves
// from one seed to the next.
constexpr int kLlcThrashPairs = 40;
constexpr int kIoDispatchPairs = 40;
constexpr int kNumaPairs = 12;
constexpr int kFleetPairs = 2;
constexpr int kFleetHosts = 64;
constexpr int kFleetVmsPerHost = 5;

const std::vector<std::string> kLlco = {"mcf", "libquantum", "llco_list"};
const std::vector<std::string> kLlcf = {"astar", "xalancbmk", "bzip2",    "gcc",
                                        "omnetpp", "llcf_list", "llcf_list2"};
const std::vector<std::string> kLolcf = {"hmmer", "gobmk",   "perlbench",
                                         "sjeng", "h264ref", "lolcf_list"};
// IOInt applications whose declared working set fits the LLC (the IOInt+
// specweb_trasher is left to numa_complex).
const std::vector<std::string> kIoFit = {"SPECweb2009", "SPECmail2009", "wordpress",
                                         "pure_io"};
// ConSpin applications with a working set of at most 1 MiB per thread.
const std::vector<std::string> kSpinSmall = {"kernbench", "bodytrack",    "blackscholes",
                                             "ferret",    "fluidanimate", "raytrace",
                                             "vips",      "x264"};
const std::vector<std::string> kSpinAll = {
    "kernbench", "bodytrack", "blackscholes", "canneal",  "dedup",         "facesim",
    "ferret",    "fluidanimate", "freqmine",  "raytrace", "streamcluster", "vips",
    "x264"};
const std::vector<std::string> kNumaRemote = {"numa_stream", "numa_mcf"};
const std::vector<std::string> kTrashers = {"mcf", "libquantum", "llco_list",
                                            "stream_triad", "membw_scan"};
const std::vector<std::string> kFleetCold = {"astar", "bzip2", "gcc", "omnetpp",
                                             "checkpoint_restart", "hmmer", "gobmk",
                                             "sjeng"};

class GenRng {
 public:
  explicit GenRng(uint64_t seed) : engine_(seed) {}
  uint64_t Next() { return engine_(); }
  // Modulo reduction: std::uniform_int_distribution is implementation-
  // defined, and inputs must be the same on every standard library.
  int Below(int n) { return static_cast<int>(engine_() % static_cast<uint64_t>(n)); }
  // Balanced draws: every choice list is dealt as a shuffled deck,
  // reshuffled when exhausted, so a pass holds each application of a class
  // (and each count offset) about equally often whatever the seed. The
  // pass's host cost per simulated second then moves little between seeds.
  const std::string& Pick(const std::vector<std::string>& v) {
    return v[Deal(&v, v.size())];
  }
  int Jitter(int span) {
    static const int kJitterDeck = 0;
    return static_cast<int>(Deal(&kJitterDeck, static_cast<size_t>(2 * span + 1))) - span;
  }

 private:
  size_t Deal(const void* key, size_t n) {
    std::vector<size_t>& deck = decks_[key];
    if (deck.empty()) {
      for (size_t i = 0; i < n; ++i) {
        deck.push_back(i);
      }
      for (size_t i = n - 1; i > 0; --i) {
        std::swap(deck[i], deck[static_cast<size_t>(Below(static_cast<int>(i) + 1))]);
      }
    }
    const size_t card = deck.back();
    deck.pop_back();
    return card;
  }

  std::mt19937_64 engine_;
  std::map<const void*, std::vector<size_t>> decks_;
};

// `count` vCPUs of one class, as VMs of `per_vm` vCPUs (the last may be
// smaller), each VM running an application picked from `apps`.
void AddVms(ScenarioSpec& spec, GenRng& rng, const std::vector<std::string>& apps,
            int count, int per_vm) {
  while (count > 0) {
    const int n = std::min(count, per_vm);
    spec.vms.push_back(VmSpec{rng.Pick(apps), n});
    count -= n;
  }
}

void AddPair(Workload& w, const std::string& id, const ScenarioSpec& spec) {
  w.cells.push_back(Cell{id + "/xen", spec, aql::PolicySpec::Xen()});
  w.cells.push_back(Cell{id + "/aql", spec, aql::PolicySpec::Aql()});
}

std::string MixId(const char* prefix, int m) {
  return std::string(prefix) + (m < 10 ? "0" : "") + std::to_string(m);
}

// 16 vCPUs of LLCO and LLCF applications on the paper's 4-pCPU i7-3770 rig;
// every mix holds LLCO vCPUs, so the declared working set overflows the LLC.
void LlcThrash(Workload& w, GenRng& rng) {
  static const int kLlcoVcpus[] = {4, 6, 8, 10};
  for (int m = 0; m < kLlcThrashPairs; ++m) {
    ScenarioSpec spec;
    spec.machine = aql::SingleSocketMachine(4, rng.Next());
    spec.name = MixId("llc_thrash/mix", m);
    const int llco = kLlcoVcpus[m % 4];
    AddVms(spec, rng, kLlco, llco, 2);
    AddVms(spec, rng, kLlcf, 16 - llco, 2);
    AddPair(w, spec.name, spec);
  }
}

// 16 vCPUs of IOInt, ConSpin and LoLCF applications on the same rig, sized
// so the declared working set fits the LLC (at most 7.8 MiB of 8 MiB).
void IoDispatch(Workload& w, GenRng& rng) {
  struct Shape {
    int io, spin, lolcf;
  };
  static const Shape kShapes[] = {{4, 4, 8}, {6, 3, 7}, {3, 4, 9}, {6, 2, 8}};
  for (int m = 0; m < kIoDispatchPairs; ++m) {
    const Shape& s = kShapes[m % 4];
    ScenarioSpec spec;
    spec.machine = aql::SingleSocketMachine(4, rng.Next());
    spec.name = MixId("io_dispatch/mix", m);
    AddVms(spec, rng, kIoFit, s.io, 1);
    AddVms(spec, rng, kSpinSmall, s.spin, s.spin);
    AddVms(spec, rng, kLolcf, s.lolcf, 1);
    AddPair(w, spec.name, spec);
  }
}

// Alternates seeded variants of the §3.5 complex case (48 vCPUs on three
// E5-4603 sockets) with dual-socket mixes led by NUMA-remote streamers.
void NumaComplex(Workload& w, GenRng& rng) {
  for (int m = 0; m < kNumaPairs; ++m) {
    ScenarioSpec spec;
    if (m % 2 == 0) {
      spec = aql::FourSocketScenario(rng.Next());
      spec.name = MixId("numa_complex/four_socket", m);
      const int io = 12 + rng.Jitter(2);
      const int spin = 7 + rng.Jitter(2);
      const int llco = 12 + rng.Jitter(2);
      spec.vms = {{"specweb_trasher", io}, {rng.Pick(kSpinAll), spin}};
      AddVms(spec, rng, kLlcf, 48 - io - spin - llco, 4);
      AddVms(spec, rng, kLlco, llco, 4);
    } else {
      spec.machine = aql::DualSocketNumaMachine(rng.Next());
      spec.name = MixId("numa_complex/dual_socket", m);
      const int numa = 8 + rng.Jitter(2);
      AddVms(spec, rng, kNumaRemote, numa, 2);
      AddVms(spec, rng, kLlcf, 8, 2);
      AddVms(spec, rng, kIoFit, 4, 1);
      AddVms(spec, rng, kSpinSmall, 4, 4);
      AddVms(spec, rng, kLolcf, 32 - numa - 16, 1);
    }
    AddPair(w, spec.name, spec);
  }
}

// A skewed fleet: a seeded half of the hosts start as hot hosts packed with
// LLC trashers and memory streamers, the rest with cache-friendly
// applications. The cache-aware policy rebalances every epoch while host
// crashes and migration aborts are injected.
void FleetChurn(Workload& w, GenRng& rng) {
  for (int m = 0; m < kFleetPairs; ++m) {
    std::vector<int> hosts(kFleetHosts);
    for (int h = 0; h < kFleetHosts; ++h) {
      hosts[static_cast<size_t>(h)] = h;
    }
    for (int i = kFleetHosts - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(hosts[static_cast<size_t>(i)], hosts[static_cast<size_t>(rng.Below(i + 1))]);
    }
    std::vector<VmSpec> vms;
    std::vector<int> declared;
    for (int k = 0; k < kFleetHosts; ++k) {
      const bool hot = k < kFleetHosts / 2;
      for (int j = 0; j < kFleetVmsPerHost; ++j) {
        const auto& apps = hot && j < 3 ? kTrashers : hot ? kLlcf : kFleetCold;
        vms.push_back(VmSpec{rng.Pick(apps), 1});
        declared.push_back(hosts[static_cast<size_t>(k)]);
      }
    }
    ScenarioSpec spec = aql::FleetScenario(MixId("fleet_churn/fleet", m), kFleetHosts, vms,
                                           aql::ClusterPolicy::kCacheAware, rng.Next());
    spec.warmup = aql::Sec(1);
    spec.measure = aql::Sec(8);
    spec.fleet.declared_hosts = declared;
    spec.fleet.fault.crash_rate_per_host_per_sec = 0.01;
    spec.fleet.fault.migration_failure_prob = 0.25;
    AddPair(w, spec.name, spec);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"llc_thrash", "io_dispatch",
                                                  "numa_complex", "fleet_churn"};
  return names;
}

Workload Generate(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  // One stream per (workload, seed): workloads never share inputs.
  uint64_t salt = 0xcbf29ce484222325ull;
  for (const char c : name) {
    salt = (salt ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  GenRng rng(seed ^ salt);
  if (name == "llc_thrash") {
    LlcThrash(w, rng);
  } else if (name == "io_dispatch") {
    IoDispatch(w, rng);
  } else if (name == "numa_complex") {
    NumaComplex(w, rng);
  } else if (name == "fleet_churn") {
    FleetChurn(w, rng);
    w.island_threads = 2;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

double WssOverLlc(const ScenarioSpec& spec) {
  double wss = 0.0;
  for (const VmSpec& vm : spec.vms) {
    wss += static_cast<double>(vm.vcpus) *
           static_cast<double>(aql::NominalOpFor(vm.app).mem.wss_bytes);
  }
  const aql::Topology& t = spec.machine.topology;
  const double hosts = spec.fleet.hosts > 0 ? spec.fleet.hosts : 1;
  return wss / (static_cast<double>(t.llc_bytes) * t.sockets * hosts);
}

int DeclaredVcpus(const ScenarioSpec& spec) {
  int n = 0;
  for (const VmSpec& vm : spec.vms) {
    n += vm.vcpus;
  }
  return n;
}

double SimMachineSeconds(const ScenarioSpec& spec) {
  const double hosts = spec.fleet.hosts > 0 ? spec.fleet.hosts : 1;
  return hosts * aql::ToSec(spec.warmup + spec.measure);
}

std::string CheckWorkloadProperties(const Workload& w) {
  for (const Cell& c : w.cells) {
    const double ratio = WssOverLlc(c.scenario);
    if (w.name == "io_dispatch" && ratio > 1.0) {
      return c.id + " overflows the LLC (declared wss/llc " + std::to_string(ratio) + ")";
    }
    if (w.name == "llc_thrash" && ratio <= 1.0) {
      return c.id + " fits the LLC (declared wss/llc " + std::to_string(ratio) + ")";
    }
  }
  return "";
}

}  // namespace perfbench
