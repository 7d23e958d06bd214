#include "src/hw/llc_model.h"

#include <algorithm>

#include "src/sim/check.h"

namespace aql {

LlcModel::LlcModel(int sockets, uint64_t capacity_bytes, const HwParams& params)
    : capacity_(capacity_bytes), params_(params), sockets_(static_cast<size_t>(sockets)) {
  AQL_CHECK(sockets >= 1);
  AQL_CHECK(capacity_bytes > 0);
  const double w = params.running_eviction_weight;
  AQL_CHECK(w >= 0.0 && w <= 1.0);
}

double LlcModel::Leave(SocketState& s, Slot& slot) {
  const double bytes = OccupancyOf(s, slot);
  s.bytes[slot.cls] -= bytes;
  slot.stake = 0.0;
  return bytes;
}

void LlcModel::Join(SocketState& s, Slot& slot, Class cls, double bytes) {
  s.bytes[cls] += bytes;
  slot.cls = cls;
  if (s.factor[cls] == 1.0) {
    slot.stake = bytes;
  } else {  // stake * factor may round to a neighbour of `bytes`: drop the memo
    slot.stake = bytes / s.factor[cls];
    slot.memo_epoch = 0;
  }
}

void LlcModel::Grow(SocketState& s, Slot& me, Class cls, double grow) {
  // Growth or a class change. The fetcher stays out while the victims scale.
  ++s.epoch;
  double mine = Leave(s, me) + grow;
  const double overflow =
      s.bytes[kProtected] + s.bytes[kOther] + mine - static_cast<double>(capacity_);
  if (overflow > 0.0) {
    mine = std::max(0.0, mine - Evict(s, overflow));
  }
  Join(s, me, cls, mine);
}

double LlcModel::Evict(SocketState& s, double overflow) {
  ++counters_.overflow_commits;
  const double w = params_.running_eviction_weight;
  const double protected_bytes = std::max(0.0, s.bytes[kProtected]);
  const double other_bytes = std::max(0.0, s.bytes[kOther]);
  const double weight_total = w * protected_bytes + other_bytes;
  // The commit's one division: class k keeps 1 - overflow * w_k / W.
  const double per_weight = weight_total > 0.0 ? overflow / weight_total : 1.0;
  if (per_weight < 1.0) {
    Rescale(s, kProtected, 1.0 - per_weight * w);
    Rescale(s, kOther, 1.0 - per_weight);
    return 0.0;
  }
  // The weight-1 class is capped (w <= 1, so it caps first): it is wiped, the
  // protected class covers the residue, and the fetcher whatever is left.
  const double left = overflow - other_bytes;
  Rescale(s, kOther, 0.0);
  if (protected_bytes > 0.0) {
    Rescale(s, kProtected, std::max(0.0, 1.0 - left / protected_bytes));
  }
  return std::max(0.0, left - protected_bytes);
}

void LlcModel::Rescale(SocketState& s, Class cls, double keep) {
  if (s.bytes[cls] <= 0.0) {
    return;
  }
  ++counters_.class_rescales;
  s.bytes[cls] *= keep;
  s.factor[cls] *= keep;
  if (s.factor[cls] < kRenormalizeBelow) {  // fold the factor into the stakes
    ++counters_.renormalizations;
    s.bytes[cls] = 0.0;
    for (Slot& slot : s.slots) {
      if (slot.cls == cls) {
        slot.stake *= s.factor[cls];
        s.bytes[cls] += slot.stake;
      }
    }
    s.factor[cls] = 1.0;
  }
}

void LlcModel::SetRunning(int socket, int vcpu, bool running) {
  Slot& me = SlotOf(socket, vcpu);
  me.running = running;
  if (ClassOf(running, me.wss) != me.cls) {
    Join(At(socket), me, ClassOf(running, me.wss), Leave(At(socket), me));
  }
}

void LlcModel::Remove(int socket, int vcpu) {
  SetRunning(socket, vcpu, false);
  ++At(socket).epoch;
  Leave(At(socket), SlotOf(socket, vcpu));
}

uint64_t LlcModel::Occupancy(int socket, int vcpu) const {
  const SocketState& s = At(socket);
  const size_t v = static_cast<size_t>(vcpu);  // a negative id wraps: absent
  return v < s.slots.size() ? static_cast<uint64_t>(OccupancyOf(s, s.slots[v])) : 0;
}

uint64_t LlcModel::TotalOccupancy(int socket) const {
  const SocketState& s = At(socket);
  uint64_t total = 0;  // sum of floors: never above the capacity
  for (const Slot& slot : s.slots) {
    total += static_cast<uint64_t>(OccupancyOf(s, slot));
  }
  return total;
}

void MemBus::Bind(int socket, int pcpu) {
  if (static_cast<size_t>(pcpu) >= demand_.size()) {
    demand_.resize(static_cast<size_t>(pcpu) + 1);
  }
  PcpuDemand& d = demand_[static_cast<size_t>(pcpu)];
  if (d.socket < 0) {
    d.socket = socket;
  }
  AQL_CHECK_MSG(d.socket == socket, "a pCPU's memory-bus demand moved to another socket");
}

double MemBus::TotalDemand(int socket) const {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(total_.size()));
  return total_[static_cast<size_t>(socket)];
}

}  // namespace aql
