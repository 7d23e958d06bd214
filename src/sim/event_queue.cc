#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/sim/check.h"

namespace aql {

EventId EventQueue::ScheduleAt(TimeNs when, Callback cb, EventRank rank) {
  AQL_CHECK_MSG(when >= now_, "event scheduled in the past");
  AQL_CHECK(cb != nullptr);
  uint32_t index;
  if (free_.empty()) {
    index = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  SlabEntry& entry = slab_[index];
  entry.cb = std::move(cb);
  entry.live = true;
  heap_.push_back(HeapEntry{when, NextKey(rank), index});
  std::push_heap(heap_.begin(), heap_.end(), HeapLater);
  ++live_count_;
  return MakeId(index, entry.generation);
}

bool EventQueue::Cancel(EventId id) {
  if (id == kInvalidEventId) {
    return false;
  }
  const uint32_t index = static_cast<uint32_t>(id >> 32) - 1;
  const uint32_t generation = static_cast<uint32_t>(id);
  if (index >= slab_.size()) {
    return false;
  }
  SlabEntry& entry = slab_[index];
  if (!entry.live || entry.generation != generation) {
    // Already fired, already cancelled, or the slab slot was recycled for a
    // newer event: a checked no-op, nothing to leak or double-count.
    return false;
  }
  entry.live = false;
  entry.cb = nullptr;  // release captures now; the heap entry skims later
  AQL_CHECK(live_count_ > 0);
  --live_count_;
  return true;
}

EventQueue::SlotId EventQueue::AddSlot(void* handler, SlotFn fn, EventRank rank) {
  AQL_CHECK(handler != nullptr && fn != nullptr);
  AQL_CHECK_MSG(!slot_callback_active_, "RegisterSlot from inside a slot callback");
  handlers_.push_back(SlotHandler{fn, handler, rank});
  deadlines_.push_back(kDisarmed);
  return static_cast<SlotId>(handlers_.size()) - 1;
}

void EventQueue::SkimDeadFront() const {
  while (!heap_.empty() && !slab_[heap_.front().index].live) {
    SlabEntry& entry = slab_[heap_.front().index];
    ++entry.generation;  // invalidate any still-outstanding id
    free_.push_back(heap_.front().index);
    std::pop_heap(heap_.begin(), heap_.end(), HeapLater);
    heap_.pop_back();
  }
}

TimeNs EventQueue::NextTime() const {
  const Best best = FindBest();
  return best.slot != kNone ? best.when : kTimeInfinite;
}

void EventQueue::FlushProfile(ProfileClock::time_point start) {
  profile_->seconds += std::chrono::duration<double>(ProfileClock::now() - start).count();
  ++profile_->events;
}

void EventQueue::RunHeapFront(ProfileClock::time_point profile_start) {
  const uint32_t index = heap_.front().index;
  std::pop_heap(heap_.begin(), heap_.end(), HeapLater);
  heap_.pop_back();
  SlabEntry& entry = slab_[index];
  // Move the callback out before recycling: it may schedule new events
  // that reuse this very slab slot.
  Callback cb = std::move(entry.cb);
  entry.live = false;
  entry.cb = nullptr;
  ++entry.generation;
  free_.push_back(index);
  if (profile_ != nullptr) {
    FlushProfile(profile_start);
  }
  cb(now_);
}

}  // namespace aql
