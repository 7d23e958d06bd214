// Unit tests for the hardware model: topology and the LLC occupancy model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/hw/llc_model.h"
#include "src/hw/topology.h"

namespace aql {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;

TEST(TopologyTest, SocketMapping) {
  Topology t = MakeE54603Topology();
  EXPECT_EQ(t.TotalPcpus(), 16);
  EXPECT_EQ(t.SocketOf(0), 0);
  EXPECT_EQ(t.SocketOf(3), 0);
  EXPECT_EQ(t.SocketOf(4), 1);
  EXPECT_EQ(t.SocketOf(15), 3);
}

TEST(TopologyTest, PcpusOfSocket) {
  Topology t = MakeE54603Topology();
  const std::vector<int> s2 = t.PcpusOfSocket(2);
  EXPECT_EQ(s2, (std::vector<int>{8, 9, 10, 11}));
}

TEST(TopologyTest, I73770Preset) {
  Topology t = MakeI73770Topology(4);
  EXPECT_EQ(t.sockets, 1);
  EXPECT_EQ(t.TotalPcpus(), 4);
  EXPECT_EQ(t.llc_bytes, 8ull * kMiB);
  EXPECT_EQ(t.l2_bytes, 256ull * 1024);
}

TEST(TopologyTest, NumaDistancesAreSlitStyle) {
  Topology t = MakeE54603Topology();
  EXPECT_EQ(t.NumaDistance(0, 0), 10);
  EXPECT_EQ(t.NumaDistance(1, 1), 10);
  EXPECT_EQ(t.NumaDistance(0, 3), 21);
  EXPECT_EQ(t.NumaDistance(2, 1), 21);
}

TEST(TopologyTest, RemoteMissExtraFromDistanceRatio) {
  Topology t = MakeE54603Topology();
  // 21/10 distance ratio: a remote access costs 2.1x the local penalty,
  // i.e. 1.1x extra on top of an 80 ns miss.
  EXPECT_EQ(t.RemoteMissExtra(80), 88);
  // Equal distances mean no extra cost.
  t.numa_remote_distance = t.numa_local_distance;
  EXPECT_EQ(t.RemoteMissExtra(80), 0);
}

TEST(MemBusTest, UnmodeledBusNeverStalls) {
  MemBus bus(2, 0.0);
  bus.SetDemand(0, 0, 50.0);
  EXPECT_DOUBLE_EQ(bus.StallFactor(0, 10.0), 1.0);
}

TEST(MemBusTest, FactorGrowsPastSaturation) {
  MemBus bus(2, 1.0);
  EXPECT_DOUBLE_EQ(bus.StallFactor(0, 0.5), 1.0);  // under the limit
  bus.SetDemand(0, 0, 0.8);
  EXPECT_DOUBLE_EQ(bus.TotalDemand(0), 0.8);
  // 0.8 registered + 0.7 incoming = 1.5x the bus.
  EXPECT_DOUBLE_EQ(bus.StallFactor(0, 0.7), 1.5);
  // Sockets are independent.
  EXPECT_DOUBLE_EQ(bus.StallFactor(1, 0.7), 1.0);
}

TEST(MemBusTest, DemandUpdatesAndClears) {
  MemBus bus(1, 1.0);
  bus.SetDemand(0, 0, 0.6);
  bus.SetDemand(0, 1, 0.6);
  EXPECT_DOUBLE_EQ(bus.TotalDemand(0), 1.2);
  bus.SetDemand(0, 0, 0.2);  // re-register replaces, not accumulates
  EXPECT_DOUBLE_EQ(bus.TotalDemand(0), 0.8);
  bus.SetDemand(0, 1, 0.0);
  EXPECT_DOUBLE_EQ(bus.TotalDemand(0), 0.2);
}

// Pins the bus's observable arithmetic bit for bit, whatever its storage
// layout: each socket's total is the running `total += new - old` over the
// updates of its own pCPUs, an update that changes nothing leaves every
// answer bit-identical, and a real update is seen by the next StallFactor
// with the same extra demand.
TEST(MemBusTest, TotalsAndFactorsArePinnedAcrossSockets) {
  MemBus bus(2, 1.0);
  // Socket 0 owns pCPUs 0-1, socket 1 pCPUs 2-3 (as a Machine numbers them).
  double expected[2] = {0.0, 0.0};
  double slot[4] = {0.0, 0.0, 0.0, 0.0};
  const auto set = [&](int socket, int pcpu, double demand) {
    if (demand != slot[pcpu]) {
      expected[socket] += demand - slot[pcpu];
      slot[pcpu] = demand;
    }
    bus.SetDemand(socket, pcpu, demand);
    EXPECT_EQ(bus.TotalDemand(0), expected[0]);
    EXPECT_EQ(bus.TotalDemand(1), expected[1]);
  };
  set(0, 0, 0.3);
  set(1, 3, 0.45);
  set(0, 1, 0.7);
  set(1, 2, 0.1);
  set(0, 0, 0.05);
  set(1, 3, 0.0);
  set(0, 1, 0.7);
  set(1, 2, 1.35);
  set(0, 0, 0.0);
  set(1, 3, 0.2);

  // A no-op update (same value, and clearing an empty pCPU) changes no
  // answer.
  const double factor0 = bus.StallFactor(0, 0.6);
  const double factor1 = bus.StallFactor(1, 0.6);
  EXPECT_EQ(factor0, expected[0] + 0.6 > 1.0 ? expected[0] + 0.6 : 1.0);
  EXPECT_EQ(factor1, expected[1] + 0.6 > 1.0 ? expected[1] + 0.6 : 1.0);
  bus.SetDemand(0, 1, 0.7);
  bus.SetDemand(0, 0, 0.0);
  EXPECT_EQ(bus.StallFactor(0, 0.6), factor0);
  EXPECT_EQ(bus.StallFactor(1, 0.6), factor1);
  EXPECT_EQ(bus.TotalDemand(0), expected[0]);

  // After a real update the same query answers from the new total, and the
  // other socket keeps its answer.
  bus.SetDemand(0, 0, 0.9);
  const double total0 = expected[0] + (0.9 - 0.0);
  EXPECT_EQ(bus.TotalDemand(0), total0);
  EXPECT_EQ(bus.StallFactor(0, 0.6), total0 + 0.6);
  EXPECT_EQ(bus.StallFactor(1, 0.6), factor1);
  bus.SetDemand(1, 2, 0.0);
  const double total1 = expected[1] + (0.0 - 1.35);
  EXPECT_EQ(bus.TotalDemand(1), total1);
  EXPECT_EQ(bus.StallFactor(1, 0.6), total1 + 0.6 > 1.0 ? total1 + 0.6 : 1.0);
}

// Demand is stored by pCPU id alone, so a pCPU stays on the socket it first
// registered on.
TEST(MemBusTest, PcpuCannotMoveToAnotherSocket) {
  MemBus bus(2, 1.0);
  bus.SetDemand(0, 1, 0.5);
  bus.SetDemand(0, 1, 0.0);
  EXPECT_DEATH(bus.SetDemand(1, 1, 0.5), "another socket");
}

class LlcModelTest : public ::testing::Test {
 protected:
  HwParams params_;
  LlcModel llc_{2, 8 * kMiB, HwParams{}};
};

TEST_F(LlcModelTest, ColdCacheHasFullMissRatio) {
  EXPECT_DOUBLE_EQ(llc_.MissRatio(0, 1, 4 * kMiB), 1.0);
}

TEST_F(LlcModelTest, WarmupReducesMissRatio) {
  // Fetch half of a 4 MiB working set: 32768 lines.
  llc_.CommitAccesses(0, 1, 4 * kMiB, 32768);
  EXPECT_NEAR(llc_.MissRatio(0, 1, 4 * kMiB), 0.5, 0.01);
  EXPECT_EQ(llc_.Occupancy(0, 1), 2 * kMiB);
}

TEST_F(LlcModelTest, FullyWarmHitsResidualFloor) {
  llc_.CommitAccesses(0, 1, 4 * kMiB, 70000);
  EXPECT_EQ(llc_.Occupancy(0, 1), 4 * kMiB);  // bounded by WSS
  EXPECT_DOUBLE_EQ(llc_.MissRatio(0, 1, 4 * kMiB), params_.min_miss_ratio);
}

TEST_F(LlcModelTest, OccupancyBoundedByCapacity) {
  llc_.CommitAccesses(0, 1, 6 * kMiB, 1 << 20);
  llc_.CommitAccesses(0, 2, 6 * kMiB, 1 << 20);
  EXPECT_LE(llc_.TotalOccupancy(0), 8 * kMiB);
}

TEST_F(LlcModelTest, OverflowEvictsCoResidents) {
  llc_.CommitAccesses(0, 1, 6 * kMiB, 100000);  // ~6 MiB resident
  const uint64_t before = llc_.Occupancy(0, 1);
  llc_.CommitAccesses(0, 2, 6 * kMiB, 100000);
  EXPECT_LT(llc_.Occupancy(0, 1), before);
  EXPECT_GT(llc_.Occupancy(0, 2), 0u);
  EXPECT_LE(llc_.TotalOccupancy(0), 8 * kMiB);
}

TEST_F(LlcModelTest, RunningVcpuIsRecencyProtected) {
  llc_.CommitAccesses(0, 1, 4 * kMiB, 65536);  // vcpu 1 fully warm
  llc_.CommitAccesses(0, 2, 4 * kMiB, 65536);  // vcpu 2 warm; socket full

  // vcpu 1 running, vcpu 2 descheduled: a third fetcher hits vcpu 2 harder.
  llc_.SetRunning(0, 1, true);
  llc_.CommitAccesses(0, 3, 2 * kMiB, 32768);
  const uint64_t survived_running = llc_.Occupancy(0, 1);
  const uint64_t survived_idle = llc_.Occupancy(0, 2);
  EXPECT_GT(survived_running, survived_idle);
}

TEST_F(LlcModelTest, StreamingInsertionIsDamped) {
  // A streaming workload (WSS > capacity) fetching many lines inserts only
  // a fraction of them.
  llc_.CommitAccesses(0, 1, 16 * kMiB, 65536);  // 4 MiB fetched
  const uint64_t inserted = llc_.Occupancy(0, 1);
  EXPECT_LT(inserted, 4 * kMiB);
  EXPECT_NEAR(static_cast<double>(inserted), 4.0 * kMiB * params_.stream_insertion_fraction,
              64.0 * 1024);
}

TEST_F(LlcModelTest, RemoveDropsFootprint) {
  llc_.CommitAccesses(0, 1, 4 * kMiB, 32768);
  llc_.Remove(0, 1);
  EXPECT_EQ(llc_.Occupancy(0, 1), 0u);
  EXPECT_EQ(llc_.TotalOccupancy(0), 0u);
  // Removing again is a no-op.
  llc_.Remove(0, 1);
}

TEST_F(LlcModelTest, SocketsAreIndependent) {
  llc_.CommitAccesses(0, 1, 4 * kMiB, 32768);
  EXPECT_EQ(llc_.Occupancy(1, 1), 0u);
  EXPECT_EQ(llc_.TotalOccupancy(1), 0u);
}

TEST_F(LlcModelTest, ZeroWssNeverMissesBelowFloor) {
  EXPECT_DOUBLE_EQ(llc_.MissRatio(0, 9, 0), params_.min_miss_ratio);
  llc_.CommitAccesses(0, 9, 0, 1000);  // no-op
  EXPECT_EQ(llc_.Occupancy(0, 9), 0u);
}

// Property sweep: after arbitrary interleaved commits, the per-socket total
// never exceeds capacity and matches the sum of occupancies.
class LlcInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(LlcInvariantTest, TotalsConsistent) {
  const int seed = GetParam();
  LlcModel llc(1, 8 * kMiB, HwParams{});
  uint64_t state = static_cast<uint64_t>(seed) * 2654435761u + 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int step = 0; step < 200; ++step) {
    const int vcpu = static_cast<int>(next() % 6);
    const uint64_t wss = (1 + next() % 16) * kMiB;
    const uint64_t misses = next() % 50000;
    if (next() % 8 == 0) {
      llc.Remove(0, vcpu);
    } else {
      llc.SetRunning(0, vcpu, next() % 2 == 0);
      llc.CommitAccesses(0, vcpu, wss, misses);
    }
    ASSERT_LE(llc.TotalOccupancy(0), 8 * kMiB);
    uint64_t sum = 0;
    for (int v = 0; v < 6; ++v) {
      const uint64_t occ = llc.Occupancy(0, v);
      ASSERT_LE(occ, 8 * kMiB);
      sum += occ;
    }
    ASSERT_EQ(sum, llc.TotalOccupancy(0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LlcInvariantTest, ::testing::Range(1, 13));

// A plain O(n), real-valued implementation of the proportional eviction rule
// documented in llc_model.h: every victim loses overflow * w_i * b_i / W,
// capped at b_i; what the caps leave is taken from the remaining victim
// bytes in proportion, and the rest is trimmed from the fetcher.
class ReferenceLlc {
 public:
  ReferenceLlc(int vcpus, uint64_t capacity, const HwParams& params)
      : capacity_(static_cast<double>(capacity)),
        params_(params),
        occ_(static_cast<size_t>(vcpus), 0.0),
        wss_(static_cast<size_t>(vcpus), 0),
        running_(static_cast<size_t>(vcpus), false) {}

  void SetRunning(int v, bool running) { running_[static_cast<size_t>(v)] = running; }
  void Remove(int v) {
    occ_[static_cast<size_t>(v)] = 0.0;
    running_[static_cast<size_t>(v)] = false;
  }
  double Occupancy(int v) const { return occ_[static_cast<size_t>(v)]; }

  void Commit(int v, uint64_t wss, uint64_t misses) {
    if (misses == 0 || wss == 0) {
      return;
    }
    const size_t f = static_cast<size_t>(v);
    wss_[f] = wss;
    const double limit = std::min(static_cast<double>(wss), capacity_);
    uint64_t fetched = misses * params_.cache_line_bytes;
    if (static_cast<double>(wss) > capacity_) {
      fetched = static_cast<uint64_t>(static_cast<double>(fetched) *
                                      params_.stream_insertion_fraction);
    }
    occ_[f] += std::min(static_cast<double>(fetched), std::max(0.0, limit - occ_[f]));
    double overflow = -capacity_;
    for (double b : occ_) {
      overflow += b;
    }
    if (overflow <= 0.0) {
      return;
    }
    double weight_total = 0.0;
    for (size_t i = 0; i < occ_.size(); ++i) {
      weight_total += i == f ? 0.0 : Weight(i) * occ_[i];
    }
    double left = overflow;
    if (weight_total > 0.0) {
      std::vector<double> share(occ_.size(), 0.0);
      for (size_t i = 0; i < occ_.size(); ++i) {
        if (i != f) {
          share[i] = std::min(occ_[i], overflow * Weight(i) * occ_[i] / weight_total);
        }
      }
      for (size_t i = 0; i < occ_.size(); ++i) {
        occ_[i] -= share[i];
        left -= share[i];
      }
    }
    double remaining = 0.0;
    for (size_t i = 0; i < occ_.size(); ++i) {
      remaining += i == f ? 0.0 : occ_[i];
    }
    if (left > 0.0 && remaining > 0.0) {
      const double take = std::min(left, remaining);
      for (size_t i = 0; i < occ_.size(); ++i) {
        if (i != f) {
          occ_[i] -= occ_[i] * take / remaining;
        }
      }
      left -= take;
    }
    if (left > 0.0) {
      occ_[f] = std::max(0.0, occ_[f] - left);
    }
  }

 private:
  double Weight(size_t i) const {
    const bool friendly = wss_[i] != 0 && static_cast<double>(wss_[i]) <= capacity_;
    return running_[i] && friendly ? params_.running_eviction_weight : 1.0;
  }

  double capacity_;
  HwParams params_;
  std::vector<double> occ_;
  std::vector<uint64_t> wss_;
  std::vector<bool> running_;
};

TEST(LlcReferenceTest, MatchesPlainProportionalModel) {
  constexpr int kVcpus = 8;
  LlcModel llc(1, 8 * kMiB, HwParams{});
  ReferenceLlc ref(kVcpus, 8 * kMiB, HwParams{});
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int step = 0; step < 60000; ++step) {
    const int vcpu = static_cast<int>(next() % kVcpus);
    const uint64_t op = next() % 16;
    if (op == 0) {
      llc.Remove(0, vcpu);
      ref.Remove(vcpu);
    } else if (op < 4) {
      const bool running = next() % 2 == 0;
      llc.SetRunning(0, vcpu, running);
      ref.SetRunning(vcpu, running);
    } else {
      // WSS from 256 KiB to 24 MiB: LLCF, LLCO and streaming footprints.
      const uint64_t wss = (1 + next() % 96) * (kMiB / 4);
      const uint64_t misses = next() % 40000;
      llc.CommitAccesses(0, vcpu, wss, misses);
      ref.Commit(vcpu, wss, misses);
    }
    uint64_t sum = 0;
    for (int v = 0; v < kVcpus; ++v) {
      const uint64_t occ = llc.Occupancy(0, v);
      // The model reports the floor of its real occupancy; the two real
      // values agree to far below a byte.
      const double diff = static_cast<double>(occ) - ref.Occupancy(v);
      ASSERT_TRUE(diff <= 1e-6 && diff > -1.0 - 1e-6) << "step " << step << " vcpu " << v
                                                      << " diff " << diff;
      sum += occ;
    }
    ASSERT_EQ(sum, llc.TotalOccupancy(0));
    ASSERT_LE(sum, 8 * kMiB);
  }
  EXPECT_GT(llc.counters().renormalizations, 0u);
}

// Results depend only on what each vCPU does, not on its id: permuting the
// co-residents' ids leaves every role's occupancy bit-equal. The second id
// set shares hash buckets, so a victim walk in hash-table order would hand
// the rounding residue to a different role.
TEST(LlcReferenceTest, EvictionIsIndependentOfVcpuIds) {
  constexpr int kRoles = 5;
  const int ids_a[kRoles] = {0, 1, 2, 3, 4};
  const int ids_b[kRoles] = {13, 3, 26, 0, 39};
  LlcModel a(1, 8 * kMiB, HwParams{});
  LlcModel b(1, 8 * kMiB, HwParams{});
  struct Op {
    int role;
    uint64_t wss;
    uint64_t misses;
    bool running;
  };
  const Op ops[] = {
      {0, 3 * kMiB, 40000, true},  {1, 20 * kMiB, 90000, true}, {2, 2 * kMiB, 30000, false},
      {3, 5 * kMiB, 70000, false}, {4, 1 * kMiB, 9000, true},   {0, 3 * kMiB, 7777, true},
      {2, 2 * kMiB, 12345, true},  {1, 20 * kMiB, 33333, false}, {3, 5 * kMiB, 15000, true},
      {4, 1 * kMiB, 4321, false},  {0, 3 * kMiB, 23456, false}, {2, 2 * kMiB, 999, true},
  };
  for (const Op& op : ops) {
    for (auto [llc, ids] : {std::pair{&a, ids_a}, std::pair{&b, ids_b}}) {
      llc->SetRunning(0, ids[op.role], op.running);
      llc->CommitAccesses(0, ids[op.role], op.wss, op.misses);
    }
    for (int r = 0; r < kRoles; ++r) {
      ASSERT_EQ(a.Occupancy(0, ids_a[r]), b.Occupancy(0, ids_b[r])) << "role " << r;
    }
  }
  EXPECT_EQ(a.counters().renormalizations, 0u);
  EXPECT_GT(a.counters().overflow_commits, 0u);
}

TEST(LlcCountersTest, CountsExactWork) {
  LlcModel llc(1, 8 * kMiB, HwParams{});
  EXPECT_DOUBLE_EQ(llc.MissRatio(0, 1, 4 * kMiB), 1.0);  // no slot yet: not counted
  llc.SetRunning(0, 1, true);
  llc.CommitAccesses(0, 1, 7 * kMiB, 7 * kMiB / 64);     // protected, 7 MiB
  llc.CommitAccesses(0, 1, 7 * kMiB, 0);                 // no fetch: not counted
  llc.MissRatio(0, 1, 7 * kMiB);                         // miss
  llc.MissRatio(0, 1, 7 * kMiB);                         // hit
  llc.CommitAccesses(0, 2, 1 * kMiB, 1 * kMiB / 64);     // fills the socket
  llc.CommitAccesses(0, 1, 7 * kMiB, 100);               // warm: nothing grows
  llc.MissRatio(0, 1, 7 * kMiB);                         // miss (epoch moved)
  llc.MissRatio(0, 1, 7 * kMiB);                         // hit
  // 1 MiB over: both classes rescale, nobody is capped.
  llc.CommitAccesses(0, 3, 1 * kMiB, 1 * kMiB / 64);
  LlcCounters c = llc.counters();
  EXPECT_EQ(c.commits, 4u);
  EXPECT_EQ(c.overflow_commits, 1u);
  EXPECT_EQ(c.class_rescales, 2u);
  EXPECT_EQ(c.renormalizations, 0u);
  EXPECT_EQ(c.memo_hits, 2u);
  EXPECT_EQ(c.memo_misses, 2u);
  // 4 MiB over against ~2 MiB of weight: the unprotected class is wiped
  // (a zero factor renormalizes) and the protected one covers the residue.
  llc.CommitAccesses(0, 4, 4 * kMiB, 4 * kMiB / 64);
  c = llc.counters();
  EXPECT_EQ(c.commits, 5u);
  EXPECT_EQ(c.overflow_commits, 2u);
  EXPECT_EQ(c.class_rescales, 4u);
  EXPECT_EQ(c.renormalizations, 1u);
  EXPECT_EQ(llc.Occupancy(0, 2) + llc.Occupancy(0, 3), 0u);
  EXPECT_EQ(llc.Occupancy(0, 4), 4 * kMiB);

  // A socket whose declared working sets fit never overflows.
  LlcModel fits(1, 8 * kMiB, HwParams{});
  for (int step = 0; step < 1000; ++step) {
    const int vcpu = step % 4;
    fits.SetRunning(0, vcpu, step % 3 == 0);
    fits.CommitAccesses(0, vcpu, 2 * kMiB, 997);
  }
  EXPECT_EQ(fits.counters().commits, 1000u);
  EXPECT_EQ(fits.counters().overflow_commits, 0u);
  EXPECT_EQ(fits.counters().class_rescales, 0u);
  EXPECT_EQ(fits.TotalOccupancy(0), 8 * kMiB);
}

}  // namespace
}  // namespace aql
