// Self-tests of the benchmark itself (aql_perfbench --self-test).

#ifndef AQL_PERFBENCH_SELFTEST_H_
#define AQL_PERFBENCH_SELFTEST_H_

namespace perfbench {

// Generator determinism, the property guard, the invariant checker against
// corrupted results and traced-runner fidelity on small cells. Prints one
// line per check; returns the process exit code.
int RunSelfTest();

}  // namespace perfbench

#endif  // AQL_PERFBENCH_SELFTEST_H_
