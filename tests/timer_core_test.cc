// Stress tests for the timer core (src/sim/event_queue.h): the slab/heap
// dynamic path and the per-slot one-outstanding-deadline path must pop in
// exactly the order a plain priority queue over (when, rank, seq) would —
// ties included — under arbitrary schedule/cancel/arm/disarm interleavings.

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace aql {
namespace {

// Reference model: every live event as an explicit (when, rank, seq)
// record, popped by scanning for the lexicographic minimum. Slots are
// modelled as cancel-old + schedule-new with the slot's rank and a fresh
// sequence number, which is exactly the contract ArmSlot promises.
class ReferenceQueue {
 public:
  uint64_t Schedule(TimeNs when, EventRank rank) {
    const uint64_t token = next_token_++;
    live_[token] = {when, rank, next_seq_++};
    return token;
  }

  bool Cancel(uint64_t token) { return live_.erase(token) != 0; }

  bool Empty() const { return live_.empty(); }
  size_t Size() const { return live_.size(); }

  // Pops the earliest (when, rank, seq) record; returns its token.
  uint64_t PopBest(TimeNs* when_out) {
    auto best = live_.begin();
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->second < best->second) {
        best = it;
      }
    }
    const uint64_t token = best->first;
    *when_out = best->second.when;
    live_.erase(best);
    return token;
  }

  TimeNs NextTime() const {
    TimeNs best = kTimeInfinite;
    for (const auto& [token, rec] : live_) {
      (void)token;
      best = std::min(best, rec.when);
    }
    return best;
  }

 private:
  struct Record {
    TimeNs when;
    EventRank rank;
    uint64_t seq;
    bool operator<(const Record& o) const {
      return std::tie(when, rank, seq) < std::tie(o.when, o.rank, o.seq);
    }
  };
  std::map<uint64_t, Record> live_;
  uint64_t next_token_ = 1;
  uint64_t next_seq_ = 1;
};

TEST(TimerCoreStressTest, MatchesReferenceUnderRandomInterleavings) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    EventQueue q;
    ReferenceQueue ref;

    // Token of the reference record -> EventId in the queue under test, and
    // the popped-order log on both sides.
    std::map<uint64_t, EventId> ids;
    std::vector<uint64_t> pending_tokens;
    std::vector<uint64_t> popped;       // tokens, in queue pop order
    std::vector<uint64_t> ref_popped;   // tokens, in reference pop order

    // Ranks are drawn from a small set, the default included, so equal
    // timestamps tie across ranks and within one.
    const auto draw_rank = [&rng]() -> EventRank {
      const int64_t r = rng.UniformInt(0, 3);
      return r == 3 ? kDefaultRank : static_cast<EventRank>(r);
    };

    // Fixed slots with their own ranks and pop logs: more slots than fit
    // one cache line of deadlines. A firing slot re-arms itself from inside
    // its callback about a third of the time, as the Machine's segment
    // slots do after every completed step.
    constexpr int kSlots = 16;
    EventQueue::SlotId slots[kSlots];
    EventRank slot_ranks[kSlots];
    uint64_t slot_tokens[kSlots] = {};
    const auto arm = [&](int s, TimeNs when) {
      if (slot_tokens[s] != 0) {
        ref.Cancel(slot_tokens[s]);
      }
      slot_tokens[s] = ref.Schedule(when, slot_ranks[s]);
      q.ArmSlot(slots[s], when);
    };
    const auto on_slot = [&](int s, TimeNs now) {
      popped.push_back(slot_tokens[s]);
      slot_tokens[s] = 0;
      if (rng.UniformInt(0, 2) == 0) {
        arm(s, now + rng.UniformInt(0, 12));
      }
    };
    // One handler object per slot; the queue may keep a reference to it.
    struct SlotHandler {
      const decltype(on_slot)* fire;
      int slot;
      void operator()(TimeNs now) const { (*fire)(slot, now); }
    };
    std::vector<SlotHandler> handlers;
    for (int s = 0; s < kSlots; ++s) {
      handlers.push_back(SlotHandler{&on_slot, s});
    }
    for (int s = 0; s < kSlots; ++s) {
      slot_ranks[s] = draw_rank();
      slots[s] = q.RegisterSlot(handlers[static_cast<size_t>(s)], slot_ranks[s]);
    }

    for (int op = 0; op < 4000; ++op) {
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind <= 3) {
        // Schedule a dynamic event; cluster times to force (when, rank)
        // ties.
        const TimeNs when = q.Now() + rng.UniformInt(0, 12);
        const EventRank rank = draw_rank();
        const uint64_t token = ref.Schedule(when, rank);
        ids[token] = q.ScheduleAt(
            when, [&popped, token](TimeNs) { popped.push_back(token); }, rank);
        pending_tokens.push_back(token);
      } else if (kind <= 5 && !pending_tokens.empty()) {
        // Cancel a random pending-or-fired dynamic event. The two sides must
        // agree on whether it was still live.
        const size_t i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pending_tokens.size()) - 1));
        const uint64_t token = pending_tokens[i];
        EXPECT_EQ(q.Cancel(ids[token]), ref.Cancel(token)) << "seed " << seed;
      } else if (kind == 6) {
        // Arm (or re-arm) a slot: reference sees cancel-old + schedule-new.
        const int s = static_cast<int>(rng.UniformInt(0, kSlots - 1));
        arm(s, q.Now() + rng.UniformInt(0, 12));
      } else if (kind == 7) {
        const int s = static_cast<int>(rng.UniformInt(0, kSlots - 1));
        const bool was_armed = q.SlotArmed(slots[s]);
        EXPECT_EQ(was_armed, slot_tokens[s] != 0) << "seed " << seed;
        q.DisarmSlot(slots[s]);
        if (slot_tokens[s] != 0) {
          ref.Cancel(slot_tokens[s]);
          slot_tokens[s] = 0;
        }
      } else {
        // Pop once on both sides; order (including ties) must agree. The
        // reference pops first: a slot callback may re-arm, which schedules
        // on both sides from inside RunNext.
        EXPECT_EQ(q.NextTime(), ref.NextTime()) << "seed " << seed;
        EXPECT_EQ(q.LiveCount(), ref.Size()) << "seed " << seed;
        if (!ref.Empty()) {
          TimeNs ref_when = 0;
          ref_popped.push_back(ref.PopBest(&ref_when));
          ASSERT_TRUE(q.RunNext()) << "seed " << seed;
          EXPECT_EQ(q.Now(), ref_when) << "seed " << seed;
        } else {
          EXPECT_FALSE(q.RunNext()) << "seed " << seed;
        }
      }
      ASSERT_EQ(popped, ref_popped) << "seed " << seed << " op " << op;
    }

    // Drain both completely; the full pop order must match.
    while (!ref.Empty()) {
      TimeNs ref_when = 0;
      ref_popped.push_back(ref.PopBest(&ref_when));
      ASSERT_TRUE(q.RunNext());
      EXPECT_EQ(q.Now(), ref_when);
    }
    EXPECT_FALSE(q.RunNext());
    EXPECT_TRUE(q.Empty());
    EXPECT_EQ(popped, ref_popped) << "seed " << seed;
  }
}

// A slot armed at kTimeInfinite is a live event like any other: it ties
// with heap events at kTimeInfinite by (rank, seq), and it pops.
TEST(TimerCoreTest, SlotAtInfinityTiesWithHeapEventsAtInfinity) {
  EventQueue q;
  std::vector<int> order;
  const auto on_slot = [&](TimeNs) { order.push_back(100); };
  const auto on_rank1_slot = [&](TimeNs) { order.push_back(101); };
  const EventQueue::SlotId slot = q.RegisterSlot(on_slot);
  const EventQueue::SlotId rank1_slot = q.RegisterSlot(on_rank1_slot, /*rank=*/1);
  q.ScheduleAt(kTimeInfinite, [&](TimeNs) { order.push_back(1); });
  q.ArmSlot(slot, kTimeInfinite);
  q.ScheduleAt(kTimeInfinite, [&](TimeNs) { order.push_back(2); });
  q.ScheduleAt(kTimeInfinite, [&](TimeNs) { order.push_back(3); }, /*rank=*/2);
  q.ArmSlot(rank1_slot, kTimeInfinite);
  EXPECT_EQ(q.LiveCount(), 5u);
  EXPECT_EQ(q.NextTime(), kTimeInfinite);
  EXPECT_TRUE(q.SlotArmed(slot));

  ASSERT_TRUE(q.RunNextIfBefore(kTimeInfinite));  // rank 1 first
  EXPECT_EQ(q.Now(), kTimeInfinite);
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{101, 3, 1, 100, 2}));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.SlotArmed(slot));
  EXPECT_EQ(q.NextTime(), kTimeInfinite);

  // A slot alone at infinity is still an event, not "nothing left".
  q.ArmSlot(slot, kTimeInfinite);
  EXPECT_FALSE(q.Empty());
  ASSERT_TRUE(q.RunNext());
  EXPECT_EQ(order.back(), 100);
  EXPECT_FALSE(q.RunNext());
}

TEST(TimerCoreTest, StaleCancelIsACheckedNoOp) {
  EventQueue q;
  int runs = 0;
  const EventId fired = q.ScheduleAt(5, [&](TimeNs) { ++runs; });
  ASSERT_TRUE(q.RunNext());
  EXPECT_EQ(runs, 1);
  // Cancelling an id that already fired must not disturb queue state —
  // in particular it must not leak a tombstone or corrupt the live count.
  EXPECT_FALSE(q.Cancel(fired));
  EXPECT_EQ(q.LiveCount(), 0u);
  EXPECT_TRUE(q.Empty());

  // The slab slot gets recycled by a new event; the stale id must not be
  // able to cancel the newcomer.
  const EventId fresh = q.ScheduleAt(10, [&](TimeNs) { ++runs; });
  EXPECT_FALSE(q.Cancel(fired));
  EXPECT_EQ(q.LiveCount(), 1u);
  ASSERT_TRUE(q.RunNext());
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(q.Cancel(fresh));  // fired as well by now

  // Double-cancel of a pending event: first wins, second is a no-op.
  const EventId pending = q.ScheduleAt(20, [&](TimeNs) { ++runs; });
  EXPECT_TRUE(q.Cancel(pending));
  EXPECT_FALSE(q.Cancel(pending));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.RunNext());
  EXPECT_EQ(runs, 2);
}

TEST(TimerCoreTest, SlotRearmOverwritesDeadline) {
  EventQueue q;
  std::vector<TimeNs> fired;
  const auto on_slot = [&](TimeNs now) { fired.push_back(now); };
  const EventQueue::SlotId slot = q.RegisterSlot(on_slot);
  EXPECT_FALSE(q.SlotArmed(slot));

  q.ArmSlot(slot, 10);
  EXPECT_TRUE(q.SlotArmed(slot));
  EXPECT_EQ(q.LiveCount(), 1u);
  q.ArmSlot(slot, 30);  // overwrite: one outstanding deadline only
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_EQ(q.NextTime(), 30);

  ASSERT_TRUE(q.RunNext());
  EXPECT_FALSE(q.SlotArmed(slot));
  EXPECT_EQ(fired, (std::vector<TimeNs>{30}));

  // Disarm is an O(1) no-op when unarmed and a real cancel when armed.
  q.DisarmSlot(slot);
  q.ArmSlot(slot, 40);
  q.DisarmSlot(slot);
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.RunNext());
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TimerCoreTest, SlotAndDynamicEventsShareTheTieBreakOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto on_slot = [&](TimeNs) { order.push_back(100); };
  const EventQueue::SlotId slot = q.RegisterSlot(on_slot);
  // seq 1: dynamic at t=5; seq 2: slot armed at t=5; seq 3: dynamic at t=5.
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(1); });
  q.ArmSlot(slot, 5);
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(2); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 100, 2}));

  // Re-arming draws a fresh sequence number: the slot moves behind events
  // scheduled between the two arms.
  order.clear();
  q.ArmSlot(slot, 20);
  q.ScheduleAt(20, [&](TimeNs) { order.push_back(3); });
  q.ArmSlot(slot, 20);  // re-arm: now sequenced after "3"
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{3, 100}));

  // At equal time a lower rank runs first whatever its sequence number,
  // the default rank runs last, and sequence order holds within a rank.
  order.clear();
  const auto on_rank1_slot = [&](TimeNs) { order.push_back(101); };
  const EventQueue::SlotId rank1_slot = q.RegisterSlot(on_rank1_slot, /*rank=*/1);
  q.ScheduleAt(30, [&](TimeNs) { order.push_back(4); });  // default rank
  q.ScheduleAt(30, [&](TimeNs) { order.push_back(5); }, /*rank=*/2);
  q.ArmSlot(rank1_slot, 30);
  q.ScheduleAt(30, [&](TimeNs) { order.push_back(6); }, /*rank=*/1);
  q.ScheduleAt(30, [&](TimeNs) { order.push_back(7); }, /*rank=*/0);
  q.ArmSlot(slot, 30);  // default rank, sequenced after "4"
  q.ScheduleAt(30, [&](TimeNs) { order.push_back(8); }, kDefaultRank);
  q.ScheduleAt(29, [&](TimeNs) { order.push_back(9); });  // earlier time wins
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{9, 7, 101, 6, 5, 4, 100, 8}));
}

TEST(TimerCoreTest, RunNextIfBeforeHonorsDeadline) {
  EventQueue q;
  int runs = 0;
  q.ScheduleAt(10, [&](TimeNs) { ++runs; });
  q.ScheduleAt(20, [&](TimeNs) { ++runs; });
  EXPECT_TRUE(q.RunNextIfBefore(15));
  EXPECT_FALSE(q.RunNextIfBefore(15));  // next event is at 20
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_TRUE(q.RunNextIfBefore(20));  // inclusive deadline
  EXPECT_EQ(runs, 2);
}

}  // namespace
}  // namespace aql
