// Simulation driver: owns the clock/event queue and the root RNG.
//
// All simulator components hold a Simulation& and schedule work through it.
// The driver supports running until the queue drains or until a deadline,
// which is how experiments bound their simulated duration.
//
// One EventQueue orders every event by (time, rank, seq). Callers that pass
// no rank get kDefaultRank, which sorts last among events at one timestamp;
// a multi-socket Machine ranks its per-socket events by socket index (see
// src/hv/machine.h), so socket events run in socket order and before
// coordinator-style events (accounting, monitor, run sentinels).
//
// Thread confinement: a Simulation (and the whole object graph hanging off
// it — Machine, schedulers, workload models, RNG) is single-thread-confined
// *per run section*: exactly one thread may be inside RunUntil/RunUntilIdle
// at a time, and any hand-off between threads must happen-before the next
// run section (the fleet layer's WorkPool epoch barrier provides this; see
// src/sim/work_pool.h). There is deliberately no internal locking and no
// process-global mutable state — all counters (event sequence numbers, RNG
// streams, profile sinks) live inside the instance, which is what makes
// parallel fleet host islands bit-identical to the sequential schedule. The
// `running_` guard below turns reentrant (same-thread) misuse into a hard
// abort; cross-thread misuse is caught by the ThreadSanitizer CI job.

#ifndef AQLSCHED_SRC_SIM_SIMULATION_H_
#define AQLSCHED_SRC_SIM_SIMULATION_H_

#include <cstdint>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace aql {

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimeNs Now() const { return queue_.Now(); }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }

  // Schedules `cb` to run `delay` ns from now.
  EventId After(TimeNs delay, EventQueue::Callback cb, EventRank rank = kDefaultRank);

  // Schedules `cb` at an absolute timestamp.
  EventId At(TimeNs when, EventQueue::Callback cb, EventRank rank = kDefaultRank);

  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Runs events until the queue is empty. Returns number of events run.
  // Not reentrant (see the thread-confinement note above).
  uint64_t RunUntilIdle();

  // Runs events with timestamp <= deadline. The clock is left at
  // min(deadline, time of last event). Returns number of events run.
  // Not reentrant (see the thread-confinement note above).
  uint64_t RunUntil(TimeNs deadline);

 private:
  EventQueue queue_;
  Rng rng_;
  // True while a run section is active. Plain (non-atomic) on purpose: a
  // second thread entering concurrently is already a contract violation,
  // and the unsynchronized flag is the first thing TSan flags for it.
  bool running_ = false;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_SIM_SIMULATION_H_
