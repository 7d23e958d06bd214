#include "reference.h"

#include <chrono>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

double ReferenceSliceSeconds() {
  using Entry = std::pair<uint64_t, uint32_t>;  // (time, id), like an event queue
  constexpr uint32_t kIds = 4096;
  constexpr uint64_t kStateMask = (1u << 14) - 1;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  std::vector<uint64_t> state(kStateMask + 1);
  uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint32_t id = 0; id < kIds; ++id) {
    queue.push({next() & 0xffffff, id});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int n = 0; n < kReferenceOps; ++n) {
    const auto [when, id] = queue.top();
    queue.pop();
    const uint64_t r = next();
    state[(id * 31u + r) & kStateMask] += when;
    queue.push({when + (r & 0xffff), id});
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // Keep the loop's effects observable so the compiler cannot drop it.
  volatile uint64_t sink = state[x & kStateMask];
  (void)sink;
  return seconds;
}

}  // namespace perfbench
