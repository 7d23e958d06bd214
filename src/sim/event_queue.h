// Discrete-event timer core.
//
// The queue orders callbacks by (time, rank, sequence number): at equal
// timestamps a lower tie-break rank runs first, and within a rank events
// scheduled earlier run first — this makes simulations fully deterministic.
// Callers that do not care pass no rank and get kDefaultRank, which sorts
// last (a multi-socket Machine ranks each socket's events by socket index,
// see src/hv/machine.h). Two kinds of events share one sequence counter (and
// therefore one total order):
//
//  * Dynamic events (ScheduleAt): one-shot callbacks stored in a slab and
//    ordered through a flat binary min-heap of POD entries. The EventId
//    returned at scheduling time encodes (slab index, generation), so
//    Cancel is an O(1) liveness flip — no tombstone side-table — and a
//    cancel of an id that already fired (or was already cancelled) is a
//    checked no-op: the generation no longer matches, nothing leaks.
//  * Timer slots (RegisterSlot/ArmSlot/DisarmSlot): a fixed handler with at
//    most one outstanding deadline, for high-frequency periodic deadlines
//    that are re-armed constantly (the dispatcher's per-pCPU segment timer).
//    Re-arming overwrites the deadline in place — no heap traffic, no
//    allocation, no cancellation bookkeeping. A slot's rank is fixed at
//    registration; arming draws a sequence number from the shared counter,
//    so slots interleave with dynamic events exactly as if they had been
//    ScheduleAt'd with that rank.
//
// The pop path takes the minimum of the heap front (dead entries skimmed
// lazily) and a linear scan over the slots; slot counts are tiny (one per
// pCPU), so the scan is cheaper than the heap churn it replaces. The slot
// deadlines sit in a dense {when, key} array that the scan reads without
// touching the handlers; a disarmed slot holds a sentinel that sorts after
// every armable deadline. Arming, disarming and the pop path are defined in
// this header so they compile into their callers, and a slot's handler is
// called through a plain function pointer instantiated where it was
// registered (no std::function).

#ifndef AQLSCHED_SRC_SIM_EVENT_QUEUE_H_
#define AQLSCHED_SRC_SIM_EVENT_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/time.h"

namespace aql {

// Opaque handle identifying a scheduled dynamic event. Id 0 is
// "invalid/none"; live ids encode (slab index, generation) so stale handles
// are recognized and rejected in O(1).
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Tie-break rank among events at one timestamp: lower ranks run first.
using EventRank = uint8_t;
inline constexpr EventRank kDefaultRank = 0xFF;

// Wall-clock cost of the pop machinery itself (entry selection and slab /
// heap bookkeeping, excluding callback execution), accumulated only when a
// profile sink is attached (aql_bench --profile).
struct EventCoreProfile {
  double seconds = 0.0;
  uint64_t events = 0;
};

class EventQueue {
 public:
  using Callback = std::function<void(TimeNs now)>;
  // Index of a registered timer slot; valid for the queue's lifetime.
  using SlotId = int;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `cb` to run at absolute time `when`, tie-broken by `rank`.
  // `when` must not be in the past relative to the last popped event.
  EventId ScheduleAt(TimeNs when, Callback cb, EventRank rank = kDefaultRank);

  // Cancels a pending event. Returns true if the event was still pending;
  // ids that already fired or were already cancelled are a checked no-op.
  bool Cancel(EventId id);

  // Registers a permanent timer slot with a fixed handler and tie-break
  // rank and no armed deadline; when the slot's deadline pops, the queue
  // calls handler(now). The queue keeps a reference to `handler`, not a
  // copy, so it must stay alive while the slot can fire. Must not be called
  // from inside a slot handler (the handler table may grow).
  template <typename Handler>
  SlotId RegisterSlot(Handler& handler, EventRank rank = kDefaultRank) {
    return AddSlot(const_cast<void*>(static_cast<const void*>(&handler)),
                   [](void* h, TimeNs now) { (*static_cast<Handler*>(h))(now); }, rank);
  }

  // Arms (or re-arms, overwriting any pending deadline) `slot` to fire at
  // `when`. Draws a fresh sequence number, exactly like ScheduleAt with the
  // slot's rank would.
  void ArmSlot(SlotId slot, TimeNs when);

  // Disarms `slot`; a no-op if it is not armed.
  void DisarmSlot(SlotId slot);

  bool SlotArmed(SlotId slot) const;

  // True if no live events remain (dynamic or armed slots).
  bool Empty() const { return live_count_ == 0; }

  // Number of live pending events (dynamic + armed slots).
  size_t LiveCount() const { return live_count_; }

  // Time of the earliest live event; kTimeInfinite if empty.
  TimeNs NextTime() const;

  // Pops and runs the earliest live event. Returns false if queue was empty.
  bool RunNext() { return RunBest(kTimeInfinite); }

  // Pops and runs the earliest live event if its time is <= `deadline`;
  // computes the minimum only once. Returns false if nothing qualified.
  bool RunNextIfBefore(TimeNs deadline) { return RunBest(deadline); }

  // Current simulated time (time of the last event run).
  TimeNs Now() const { return now_; }

  // Attaches (or detaches, with nullptr) the profiling sink.
  void set_profile(EventCoreProfile* profile) { profile_ = profile; }

 private:
  using ProfileClock = std::chrono::steady_clock;
  using SlotFn = void (*)(void* handler, TimeNs now);

  // `key` packs (rank, seq) into one integer — rank in the top 8 bits — so
  // the tie-break costs the same single compare as a plain sequence number.
  struct HeapEntry {
    TimeNs when;
    uint64_t key;
    uint32_t index;  // slab index
  };
  struct SlabEntry {
    Callback cb;
    uint32_t generation = 0;
    bool live = false;
  };
  // A slot's armed deadline, or kDisarmed. Real keys stay below the
  // sentinel key (the sequence counter would need 2^56 draws to reach it),
  // so kDisarmed sorts after every deadline ArmSlot can set, kTimeInfinite
  // included, and never wins the scan.
  struct Deadline {
    TimeNs when;
    uint64_t key;
  };
  static constexpr Deadline kDisarmed = {std::numeric_limits<TimeNs>::max(),
                                         std::numeric_limits<uint64_t>::max()};
  struct SlotHandler {
    SlotFn fn;
    void* handler;
    EventRank rank;
  };
  // Earliest live event: a slot index, the heap front, or nothing.
  static constexpr int kHeapFront = -1;
  static constexpr int kNone = -2;
  struct Best {
    TimeNs when;
    uint64_t key;
    int slot;
  };

  static bool HeapLater(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.key > b.key;
  }

  static constexpr int kRankShift = 56;
  uint64_t NextKey(EventRank rank) {
    return (static_cast<uint64_t>(rank) << kRankShift) | next_seq_++;
  }

  SlotId AddSlot(void* handler, SlotFn fn, EventRank rank);

  // Drops cancelled entries from the front of the heap and recycles their
  // slab slots. Logically const: dead entries are unobservable, skimming
  // only changes when their storage is reclaimed (hence the mutable state).
  void SkimDead() const {
    if (!heap_.empty() && !slab_[heap_.front().index].live) {
      SkimDeadFront();
    }
  }
  void SkimDeadFront() const;

  Best FindBest() const;
  bool RunBest(TimeNs deadline);
  // Pops the heap front and runs its callback (RunBest's dynamic-event arm).
  void RunHeapFront(ProfileClock::time_point profile_start);
  // Adds the pop machinery's time since `start` to the profile sink.
  void FlushProfile(ProfileClock::time_point start);

  static EventId MakeId(uint32_t index, uint32_t generation) {
    return (static_cast<EventId>(index + 1) << 32) | generation;
  }

  mutable std::vector<HeapEntry> heap_;  // binary min-heap by (when, key)
  mutable std::vector<SlabEntry> slab_;
  mutable std::vector<uint32_t> free_;  // recycled slab indices
  std::vector<Deadline> deadlines_;     // by slot id
  std::vector<SlotHandler> handlers_;   // by slot id
  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  // Guards RegisterSlot against growing `handlers_` while a slot handler is
  // executing.
  bool slot_callback_active_ = false;
  EventCoreProfile* profile_ = nullptr;
};

inline void EventQueue::ArmSlot(SlotId slot, TimeNs when) {
  AQL_CHECK(slot >= 0 && slot < static_cast<SlotId>(deadlines_.size()));
  AQL_CHECK_MSG(when >= now_, "slot armed in the past");
  Deadline& d = deadlines_[static_cast<size_t>(slot)];
  if (d.key == kDisarmed.key) {
    ++live_count_;
  }
  d.when = when;
  d.key = NextKey(handlers_[static_cast<size_t>(slot)].rank);
}

inline void EventQueue::DisarmSlot(SlotId slot) {
  AQL_CHECK(slot >= 0 && slot < static_cast<SlotId>(deadlines_.size()));
  Deadline& d = deadlines_[static_cast<size_t>(slot)];
  if (d.key != kDisarmed.key) {
    d = kDisarmed;
    AQL_CHECK(live_count_ > 0);
    --live_count_;
  }
}

inline bool EventQueue::SlotArmed(SlotId slot) const {
  AQL_CHECK(slot >= 0 && slot < static_cast<SlotId>(deadlines_.size()));
  return deadlines_[static_cast<size_t>(slot)].key != kDisarmed.key;
}

inline EventQueue::Best EventQueue::FindBest() const {
  SkimDead();
  Best best{kDisarmed.when, kDisarmed.key, kNone};
  if (!heap_.empty()) {
    best = Best{heap_.front().when, heap_.front().key, kHeapFront};
  }
  for (size_t i = 0; i < deadlines_.size(); ++i) {
    const Deadline& d = deadlines_[i];
    if (d.when < best.when || (d.when == best.when && d.key < best.key)) {
      best = Best{d.when, d.key, static_cast<int>(i)};
    }
  }
  return best;
}

inline bool EventQueue::RunBest(TimeNs deadline) {
  const ProfileClock::time_point profile_start =
      profile_ != nullptr ? ProfileClock::now() : ProfileClock::time_point();
  const Best best = FindBest();
  if (best.slot == kNone || best.when > deadline) {
    return false;
  }
  AQL_CHECK(best.when >= now_);
  AQL_CHECK(live_count_ > 0);
  --live_count_;
  now_ = best.when;
  if (best.slot == kHeapFront) {
    RunHeapFront(profile_start);
    return true;
  }
  deadlines_[static_cast<size_t>(best.slot)] = kDisarmed;
  if (profile_ != nullptr) {
    FlushProfile(profile_start);
  }
  // The handler table is stable while a handler runs (RegisterSlot is
  // barred), and the slot is disarmed, so the handler may re-arm it.
  const SlotHandler& h = handlers_[static_cast<size_t>(best.slot)];
  slot_callback_active_ = true;
  h.fn(h.handler, now_);
  slot_callback_active_ = false;
  return true;
}

}  // namespace aql

#endif  // AQLSCHED_SRC_SIM_EVENT_QUEUE_H_
