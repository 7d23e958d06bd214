// Reference kernel: fixed host work, independent of the simulator, timed
// around every measured interval so that host times can be expressed on a
// nominal host.
//
// Shared hosts drift in speed by 10-30% over tens of seconds, for every
// program alike (measured on a 4-vCPU VM). A wall rescaled by the kernel's
// speed measured right around it cancels most of that drift. A change to
// the simulator cannot move the kernel, so it moves the rescaled time
// exactly as it moves the wall.

#ifndef AQL_PERFBENCH_REFERENCE_H_
#define AQL_PERFBENCH_REFERENCE_H_

#include <cstdint>

namespace perfbench {

// Operations of one timed slice.
inline constexpr int kReferenceOps = 50000;

// The nominal host the benchmark's host seconds are normalized to runs the
// kernel at 100 ns per operation, close to its speed on the 4-vCPU x86-64
// VM the benchmark was sized on (gcc 12, -O2).
inline constexpr double kNominalNsPerOp = 100.0;

// Seconds on the nominal host for `wall` seconds measured while a slice of
// the kernel took `slice_s` seconds.
inline double NominalSeconds(double wall, double slice_s) {
  return wall * kNominalNsPerOp * 1e-9 * kReferenceOps / slice_s;
}

// Runs one slice (a binary-heap event loop over a working set that fits the
// L2 cache) and returns its host seconds.
double ReferenceSliceSeconds();

}  // namespace perfbench

#endif  // AQL_PERFBENCH_REFERENCE_H_
