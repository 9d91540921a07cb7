//===- perfbench/Probe.h - Machine-speed probe -------------------*- C++ -*-===//
//
// A fixed piece of work of the benchmark's own, the same for every seed and
// every version of the program, timed between the suite's rounds. On a shared
// machine whose speed drifts with its neighbours' load, the kernels' times and
// the probe's move together, so the end-to-end kernel times are reported
// scaled by ProbeRefMs over the probe's time, which cancels that common drift.
// The probe runs while the program's task-system workers sleep on their
// condition variable, so the program does not slow it. The set-up, mostly
// text parsing, is scaled by a second probe of the same kind of work.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The probe time the reported kernel times are scaled to, in ms: about the
/// probe's time on the 4-vCPU Xeon the reference figures come from (1.0 to
/// 1.15 ms there).
inline constexpr double ProbeRefMs = 1.0;

class SpeedProbe {
public:
  /// Builds one private 4 MiB random cycle per thread, from a fixed seed.
  explicit SpeedProbe(int Threads);

  /// Walks a fixed part of every thread's cycle, eight dependent chains at a
  /// time (gathers, as a traversal makes them), each on its own std::thread,
  /// twice. Returns the time of the second walk in ms, averaged over the
  /// threads.
  double runMs();

private:
  int Threads;
  std::vector<std::vector<std::uint32_t>> Cycles;
  std::uint64_t Sink = 0; ///< keeps the walks from being optimised away
};

/// The parse-probe time the reported set-up time is scaled to, in ms: its
/// time on the reference machine when least disturbed (6.5 to 7 ms).
inline constexpr double ParseRefMs = 6.5;

class ParseProbe {
public:
  /// Builds 32768 DIMACS arc lines from a fixed seed.
  ParseProbe();

  /// Reads every line with sscanf, as the program's DIMACS loader does.
  /// Returns the wall time in ms.
  double runMs();

private:
  std::string Text;                ///< the lines, each ended by a NUL
  std::vector<std::uint32_t> Starts; ///< where each line begins in Text
  long long Sink = 0; ///< keeps the reads from being optimised away
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
