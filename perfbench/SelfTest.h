//===- perfbench/SelfTest.h - Tests of the output checks ---------*- C++ -*-===//
//
// Hand-made graphs with hand-computed answers, and for pr also workload-size
// graphs: every check must accept the right output and reject each
// hand-corrupted one.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SELFTEST_H
#define PERFBENCH_SELFTEST_H

namespace perfbench {

/// Runs every case; prints failures and returns the process exit code.
int runSelfTest();

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_H
