// Last-level-cache occupancy and contention model.
//
// The model is the mechanism behind every cache effect in the paper:
//  * A vCPU's working set warms into the LLC by demand-fetching missed lines.
//  * A reference hits with probability occupancy / WSS. So LLCF (WSS <= LLC)
//    warms to ~0 misses but re-fetches every eviction, which punishes small
//    quanta; LLCO (WSS > LLC) is capacity-bound, quantum-agnostic and a
//    strong disturber; LoLCF (WSS <= L2) makes almost no LLC references.
//  * A commit overflowing the socket by `ov` bytes evicts ov * w_i * b_i /
//    sum_j(w_j * b_j) from each co-resident i (never the fetcher), where b_i
//    is i's occupancy and w_i is HwParams::running_eviction_weight while i
//    runs with WSS <= capacity (LRU keeps that working set hot), else 1. A
//    share is capped at b_i; the residue comes from the remaining victim
//    bytes in proportion, and only then from the fetcher.
//
// All victims of one weight class lose the same fraction, so each socket
// keeps two classes with a byte total and a lazy scale factor each: a vCPU's
// occupancy is its stake times its class factor, and an overflowing commit
// costs O(1). A vCPU is materialized only when it fetches, changes class or
// is removed; an underflowing factor is folded into its class's stakes.
//
// Occupancy is real-valued. A class no eviction has touched keeps factor 1.0
// and integer occupancies, so a socket that never overflows computes what
// integer byte counts would. Occupancy() is the floor of the real value and
// TotalOccupancy() the sum of those floors (<= capacity). vCPU ids order
// nothing but the rare fold, which sums a class in id order.

#ifndef AQLSCHED_SRC_HW_LLC_MODEL_H_
#define AQLSCHED_SRC_HW_LLC_MODEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/hw/topology.h"
#include "src/sim/check.h"

namespace aql {

// Exact work counters of one LlcModel: plain increments, no clock reads.
struct LlcCounters {
  uint64_t commits = 0;           // CommitAccesses calls that fetched lines
  uint64_t overflow_commits = 0;  // ... and overflowed the socket
  uint64_t class_rescales = 0;    // class scale-factor updates
  uint64_t renormalizations = 0;  // factors folded into their class's stakes
  uint64_t memo_hits = 0;         // MissRatio answers from the memo
  uint64_t memo_misses = 0;       // MissRatio computations
  LlcCounters& operator+=(const LlcCounters& o) {
    commits += o.commits;
    overflow_commits += o.overflow_commits;
    class_rescales += o.class_rescales;
    renormalizations += o.renormalizations;
    memo_hits += o.memo_hits;
    memo_misses += o.memo_misses;
    return *this;
  }
};

class LlcModel {
 public:
  LlcModel(int sockets, uint64_t capacity_bytes, const HwParams& params);

  // Miss ratio of `vcpu`'s references over a `wss_bytes` working set on
  // `socket`. Memoized per (socket, vcpu, occupancy epoch, wss).
  double MissRatio(int socket, int vcpu, uint64_t wss_bytes) const;
  // `vcpu` fetched `misses` lines on `socket`: grows its occupancy (up to
  // min(wss, capacity)) and evicts co-residents if the socket overflows.
  void CommitAccesses(int socket, int vcpu, uint64_t wss_bytes, uint64_t misses);
  // Drops `vcpu`'s occupancy on `socket` (cross-socket move or teardown).
  void Remove(int socket, int vcpu);
  // Marks `vcpu` as running on `socket` (recency protection, see above).
  void SetRunning(int socket, int vcpu, bool running);

  uint64_t Occupancy(int socket, int vcpu) const;
  uint64_t TotalOccupancy(int socket) const;  // walks the socket's vCPUs
  const LlcCounters& counters() const { return counters_; }

 private:
  enum Class : uint8_t { kProtected = 0, kOther = 1 };
  struct Slot {          // one per vCPU id
    double stake = 0.0;  // occupancy = stake * factor[cls]
    uint64_t wss = 0;    // last committed WSS (0 = never)
    Class cls = kOther;
    bool running = false;
    mutable uint64_t memo_epoch = 0;  // MissRatio memo; socket epochs start at 1
    mutable uint64_t memo_wss = 0;
    mutable double memo_ratio = 0.0;
  };
  struct SocketState {
    std::vector<Slot> slots;        // indexed by vCPU id, grown on demand
    double bytes[2] = {0.0, 0.0};   // per class: sum of the members' occupancies
    double factor[2] = {1.0, 1.0};  // per class: lazy scale factor
    uint64_t epoch = 1;
  };
  static constexpr double kRenormalizeBelow = 0x1p-20;  // see Rescale

  const SocketState& At(int s) const { return sockets_.at(static_cast<size_t>(s)); }
  SocketState& At(int s) { return sockets_.at(static_cast<size_t>(s)); }
  Slot& SlotOf(int socket, int vcpu);  // grows the socket's table
  // CommitAccesses past its warm early return: `me` grows by `grow` bytes
  // and/or moves to class `cls`, evicting co-residents on overflow.
  void Grow(SocketState& s, Slot& me, Class cls, double grow);
  Class ClassOf(bool running, uint64_t wss) const {
    return running && wss != 0 && wss <= capacity_ ? kProtected : kOther;
  }
  static double OccupancyOf(const SocketState& s, const Slot& slot) {
    return slot.stake * s.factor[slot.cls];
  }
  // Leave takes `slot`'s occupancy out of its class; Join adds it to `cls`.
  static double Leave(SocketState& s, Slot& slot);
  static void Join(SocketState& s, Slot& slot, Class cls, double bytes);
  double Evict(SocketState& s, double overflow);  // returns the residue left
  void Rescale(SocketState& s, Class cls, double keep);

  uint64_t capacity_;
  HwParams params_;
  std::vector<SocketState> sockets_;
  mutable LlcCounters counters_;
};

// Per-socket memory-bus (DRAM bandwidth) contention model.
//
// Each pCPU registers the uncontended fetch-bandwidth demand of its in-flight
// compute step (miss bytes per nanosecond of planned execution). When the
// socket's aggregate demand exceeds the controller's sustainable bandwidth
// (Topology::mem_bw_bytes_per_ns), memory stalls stretch by demand/bandwidth
// — the classic bandwidth-saturation slowdown streaming workloads inflict on
// each other. With mem_bw_bytes_per_ns == 0 the bus is unmodeled and the
// factor is always 1.
//
// Demand lives in one flat vector indexed by pcpu id (a pCPU registers on
// one socket only), with per-socket running totals kept by `total += new -
// old`. StallFactor is not memoized: on a modeled bus every demand-bearing
// step changes its socket's total twice (the machine clears the demand at
// step end and sets it at step start), so a memo keyed on it is stale.
class MemBus {
 public:
  MemBus(int sockets, double bw_bytes_per_ns)
      : bw_(bw_bytes_per_ns), total_(static_cast<size_t>(sockets), 0.0) {
    AQL_CHECK(sockets >= 1);
    AQL_CHECK(bw_bytes_per_ns >= 0.0);
  }

  // Registers/updates `pcpu`'s demand on `socket` (0 clears it).
  void SetDemand(int socket, int pcpu, double bytes_per_ns);

  // Aggregate registered demand on `socket`, in bytes per nanosecond.
  double TotalDemand(int socket) const;

  // Multiplier (>= 1) applied to memory-stall time on `socket`, given that a
  // step with `extra_demand` is about to start there on top of the demand
  // already registered.
  double StallFactor(int socket, double extra_demand) const;

  double bandwidth() const { return bw_; }

 private:
  struct PcpuDemand {
    double bytes_per_ns = 0.0;
    int socket = -1;  // bound by the pCPU's first SetDemand
  };

  // Grows `demand_` to cover `pcpu` and binds it to `socket`; checks that a
  // bound pCPU stays on its socket.
  void Bind(int socket, int pcpu);

  double bw_;
  std::vector<PcpuDemand> demand_;  // by pcpu id (grown on demand; ids are dense)
  std::vector<double> total_;
};

// Hot-path members, defined here so the dispatcher's per-step calls compile
// into it.

inline LlcModel::Slot& LlcModel::SlotOf(int socket, int vcpu) {
  AQL_CHECK(vcpu >= 0);
  SocketState& s = At(socket);
  if (static_cast<size_t>(vcpu) >= s.slots.size()) {
    s.slots.resize(static_cast<size_t>(vcpu) + 1);
  }
  return s.slots[static_cast<size_t>(vcpu)];
}

inline double LlcModel::MissRatio(int socket, int vcpu, uint64_t wss_bytes) const {
  const SocketState& s = At(socket);
  const size_t v = static_cast<size_t>(vcpu);  // a negative id wraps: absent
  if (wss_bytes == 0 || v >= s.slots.size()) {
    return wss_bytes == 0 ? params_.min_miss_ratio : 1.0;  // 1.0: nothing resident
  }
  const Slot& slot = s.slots[v];
  if (slot.memo_epoch == s.epoch && slot.memo_wss == wss_bytes) {
    ++counters_.memo_hits;
    return slot.memo_ratio;
  }
  ++counters_.memo_misses;  // references spread uniformly; the resident part hits
  slot.memo_epoch = s.epoch;
  slot.memo_wss = wss_bytes;
  slot.memo_ratio = std::max(params_.min_miss_ratio,
                             1.0 - OccupancyOf(s, slot) / static_cast<double>(wss_bytes));
  return slot.memo_ratio;
}

inline void LlcModel::CommitAccesses(int socket, int vcpu, uint64_t wss_bytes,
                                     uint64_t misses) {
  if (misses == 0 || wss_bytes == 0) {
    return;
  }
  ++counters_.commits;
  Slot& me = SlotOf(socket, vcpu);
  SocketState& s = At(socket);
  me.wss = wss_bytes;
  const Class cls = ClassOf(me.running, wss_bytes);
  const double occ = OccupancyOf(s, me);
  const double limit = static_cast<double>(std::min(wss_bytes, capacity_));
  uint64_t fetched = misses * params_.cache_line_bytes;
  if (wss_bytes > capacity_) {
    // Streaming fetches carry no reuse; DIP/RRIP insertion admits a fraction.
    fetched = static_cast<uint64_t>(static_cast<double>(fetched) *
                                    params_.stream_insertion_fraction);
  }
  const double grow =
      std::min(static_cast<double>(fetched), limit > occ ? limit - occ : 0.0);
  if (grow == 0.0 && cls == me.cls) {
    return;  // warm: nothing changes, and MissRatio keeps hitting its memo
  }
  Grow(s, me, cls, grow);
}

inline void MemBus::SetDemand(int socket, int pcpu, double bytes_per_ns) {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(total_.size()));
  AQL_CHECK(pcpu >= 0);
  AQL_CHECK(bytes_per_ns >= 0.0);
  if (static_cast<size_t>(pcpu) >= demand_.size() ||
      demand_[static_cast<size_t>(pcpu)].socket != socket) {
    Bind(socket, pcpu);
  }
  double& slot = demand_[static_cast<size_t>(pcpu)].bytes_per_ns;
  if (bytes_per_ns == slot) {
    // No change: skipping the `total += new - old` of an exact zero delta is
    // bit-safe (totals are never -0.0, so x + 0.0 == x).
    return;
  }
  total_[static_cast<size_t>(socket)] += bytes_per_ns - slot;
  slot = bytes_per_ns;
}

inline double MemBus::StallFactor(int socket, double extra_demand) const {
  if (bw_ <= 0.0) {
    return 1.0;
  }
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(total_.size()));
  const double demand = total_[static_cast<size_t>(socket)] + extra_demand;
  return demand > bw_ ? demand / bw_ : 1.0;
}

}  // namespace aql

#endif  // AQLSCHED_SRC_HW_LLC_MODEL_H_
