//===- perfbench/suite.cpp - EGACS graph-suite benchmark ------------------===//
//
// Times the ten kernels of the paper's suite through the program's public
// entry points (loadDimacs, Csr::sortedByDestination, runKernel with
// KernelConfig::allOptimizations at the best SIMD target, pr held to a fixed
// round count as Checks.h explains) and checks every output with the
// independent checks of Checks.h.
//
//   egacs_suite gen --workload W --seed S --out FILE.gr
//   egacs_suite run --workload W --seed S --input FILE.gr --seconds T
//   egacs_suite run ... --layers FILE.json     (traced and counted run)
//   egacs_suite run ... --tasks N              (override the task count)
//   egacs_suite selftest
//
// `run` prints one JSON object as its last stdout line. Without --layers it
// holds the end-to-end metrics of an untraced, uncounted run; with --layers
// it holds the per-layer metrics, which it also writes to FILE.json together
// with the spans recorded around every public call.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Graphs.h"
#include "Probe.h"
#include "SelfTest.h"

#include "BenchCommon.h"
#include "graph/Csr.h"
#include "graph/Loader.h"
#include "kernels/Kernels.h"
#include "runtime/TaskSystem.h"
#include "simd/Ops.h"
#include "support/Stats.h"
#include "trace/Trace.h"
#include "verify/Oracle.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace egacs;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, before main: setup_s runs from here.
const Clock::time_point ProcessStart = Clock::now();

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

struct SuiteKernel {
  KernelKind Kind;
  const char *Key; ///< metric-name stem
};

/// The paper's suite (Table VIII), in the order the rounds run it.
constexpr SuiteKernel Suite[] = {
    {KernelKind::BfsWl, "bfs_wl"}, {KernelKind::BfsCx, "bfs_cx"},
    {KernelKind::BfsTp, "bfs_tp"}, {KernelKind::BfsHb, "bfs_hb"},
    {KernelKind::Cc, "cc"},        {KernelKind::Tri, "tri"},
    {KernelKind::SsspNf, "sssp"},  {KernelKind::Mis, "mis"},
    {KernelKind::Pr, "pr"},        {KernelKind::Mst, "mst"},
};
constexpr std::size_t NumKernels = std::size(Suite);

/// Calls per kernel that precede the timed rounds.
constexpr int WarmupRounds = 1;
/// Timed rounds a run makes even when --seconds has already passed.
constexpr int MinRounds = 5;
/// Empty launches timed for runtime.launch_us.
constexpr int LaunchSamples = 2001;
/// Parse-probe samples taken after the set-up; the fastest scales it.
constexpr int ParseSamples = 5;

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "egacs_suite: %s\n"
               "usage: egacs_suite gen --workload W --seed S --out FILE\n"
               "       egacs_suite run --workload W --seed S --input FILE "
               "--seconds T [--layers FILE] [--tasks N]\n"
               "       egacs_suite selftest\n"
               "workloads: %s\n",
               Why.c_str(), workloadNames().c_str());
  std::exit(2);
}

std::map<std::string, std::string> parseFlags(int Argc, char **Argv) {
  std::map<std::string, std::string> Flags;
  for (int I = 2; I < Argc; I += 2) {
    std::string Key = Argv[I];
    if (Key.rfind("--", 0) != 0 || I + 1 >= Argc)
      usage("bad argument '" + Key + "'");
    Flags[Key.substr(2)] = Argv[I + 1];
  }
  return Flags;
}

std::string need(const std::map<std::string, std::string> &Flags,
                 const std::string &Key) {
  auto It = Flags.find(Key);
  if (It == Flags.end())
    usage("missing --" + Key);
  return It->second;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The value a quarter of the way up \p V (nearest rank, from below).
double lowerQuartile(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 4];
}

/// Peak resident set of this process so far, in MB.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) * 1024.0 / 1e6;
  return 0.0;
}

/// Spans the benchmark records around each public call it makes, kept in
/// memory and written out with the per-layer metrics.
class SpanLog {
public:
  /// Runs \p Fn inside a span named \p Name and returns its duration in ms.
  template <typename Fn> double span(const std::string &Name, Fn &&F) {
    int Id = static_cast<int>(Spans.size());
    Spans.push_back({Name, Open, msSince(ProcessStart), 0.0});
    int Parent = Open;
    Open = Id;
    F();
    Open = Parent;
    Spans[static_cast<std::size_t>(Id)].EndMs = msSince(ProcessStart);
    return Spans[static_cast<std::size_t>(Id)].EndMs -
           Spans[static_cast<std::size_t>(Id)].BeginMs;
  }

  /// Duration of the first span called \p Name, in ms.
  double durationMs(const std::string &Name) const {
    for (const Rec &R : Spans)
      if (R.Name == Name)
        return R.EndMs - R.BeginMs;
    return 0.0;
  }

  void appendJson(std::string &Out) const {
    Out += "[";
    char Buf[160];
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n    {\"name\": \"%s\", \"id\": %zu, \"parent\": %d, "
                    "\"begin_ms\": %.6f, \"end_ms\": %.6f}",
                    I ? "," : "", Spans[I].Name.c_str(), I, Spans[I].Parent,
                    Spans[I].BeginMs, Spans[I].EndMs);
      Out += Buf;
    }
    Out += "\n  ]";
  }

private:
  struct Rec {
    std::string Name;
    int Parent;
    double BeginMs;
    double EndMs;
  };
  std::vector<Rec> Spans;
  int Open = -1;
};

/// Metrics in insertion order, printed as the result's "metrics" object.
class Metrics {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Json.empty() ? "" : ", ", Name.c_str(), Value, Unit);
    Json += Buf;
  }
  const std::string &json() const { return Json; }

private:
  std::string Json;
};

/// The program's state for one workload: the loaded graph, its sorted copy,
/// the traversal source, and the task system the kernels run on.
struct Program {
  Csr G;
  Csr Sorted;
  NodeId Source = 0;
  /// Seconds from the process's start until the graph was loaded, sorted and
  /// its source chosen: one cold set-up.
  double SetupS = 0.0;
  std::unique_ptr<TaskSystem> TS;
  KernelConfig Cfg;
  simd::TargetKind Target = simd::TargetKind::Scalar1;

  /// tri needs destination-sorted adjacency; every other kernel takes G.
  const Csr &graphFor(KernelKind Kind) const {
    return kernelNeedsSortedAdjacency(Kind) ? Sorted : G;
  }

  KernelOutput run(KernelKind Kind, trace::TraceSession *Trace = nullptr) {
    KernelConfig C = Cfg;
    C.Trace = Trace;
    return runKernel(Kind, Target, graphFor(Kind), C, Source);
  }
};

/// Loads the input and prepares what the suite needs; \p Log (optional)
/// records one span per public call. Returns false if the file fails to load.
bool setUp(Program &P, const std::string &Input, int Tasks, SpanLog *Log) {
  auto Step = [&](const char *Name, auto &&F) {
    if (Log)
      Log->span(Name, F);
    else
      F();
  };
  std::optional<Csr> Loaded;
  Step("graph.load", [&] { Loaded = loadDimacs(Input); });
  if (!Loaded)
    return false;
  P.G = std::move(*Loaded);
  Step("graph.sort", [&] { P.Sorted = P.G.sortedByDestination(); });
  // Traversals start at the highest-degree node, inside the giant component.
  Step("graph.source", [&] {
    EdgeId Best = -1;
    for (NodeId N = 0; N < P.G.numNodes(); ++N)
      if (P.G.degree(N) > Best) {
        Best = P.G.degree(N);
        P.Source = N;
      }
  });
  P.SetupS = msSince(ProcessStart) / 1e3;
  P.TS = makeTaskSystem(TaskSystemKind::Pool, Tasks);
  P.Cfg = KernelConfig::allOptimizations(*P.TS, Tasks);
  // The one departure from the defaults: pr makes PrRounds rounds.
  P.Cfg.PrTolerance = 0.0f;
  P.Target = bench::bestTarget();
  return true;
}

/// Copies the program's graph into the checks' source-grouped, sorted form.
Adjacency adjacencyOf(const Csr &G) {
  Adjacency A;
  A.Offset.assign(G.rowStart(), G.rowStart() + G.numNodes() + 1);
  A.Dst.resize(static_cast<std::size_t>(G.numEdges()));
  A.W.assign(A.Dst.size(), 0);
  std::vector<std::pair<NodeId, Weight>> Row;
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    Row.clear();
    auto Nbrs = G.neighbors(N);
    for (std::size_t I = 0; I < Nbrs.size(); ++I)
      Row.emplace_back(Nbrs[I], G.hasWeights() ? G.weights(N)[I] : 0);
    std::sort(Row.begin(), Row.end());
    auto Base = static_cast<std::size_t>(G.rowStart()[N]);
    for (std::size_t I = 0; I < Row.size(); ++I) {
      A.Dst[Base + I] = Row[I].first;
      A.W[Base + I] = Row[I].second;
    }
  }
  return A;
}

/// Checks outputs against the reference and counts operations.
class Checker {
public:
  Checker(const Adjacency &A, const Reference &R) : A(A), R(R) {}

  /// Counts one operation; \p Why non-empty marks it failed.
  void record(const char *What, const std::string &Why) {
    ++Attempted;
    if (Why.empty())
      return;
    if (Failed++ < 10)
      std::fprintf(stderr, "egacs_suite: %s output rejected: %s\n", What,
                   Why.c_str());
  }

  void check(const SuiteKernel &K, const KernelOutput &Out) {
    record(K.Key, reason(K.Kind, Out));
  }

  std::int64_t Attempted = 0;
  std::int64_t Failed = 0;

private:
  std::string reason(KernelKind Kind, const KernelOutput &Out) const {
    switch (Kind) {
    case KernelKind::BfsWl:
    case KernelKind::BfsCx:
    case KernelKind::BfsTp:
    case KernelKind::BfsHb:
      return checkBfs(R, Out.IntData);
    case KernelKind::Cc:
      return checkCc(R, Out.IntData);
    case KernelKind::Tri:
      return checkTri(R, Out.Scalar0);
    case KernelKind::SsspNf:
      return checkSssp(R, Out.IntData);
    case KernelKind::Mis:
      return checkMis(A, Out.IntData);
    case KernelKind::Pr:
      return checkPr(R, Out.FloatData);
    case KernelKind::Mst:
      return checkMst(R, Out.Scalar0, Out.Scalar1);
    }
    return "unknown kernel";
  }

  const Adjacency &A;
  const Reference &R;
};

/// Regenerates the workload's graph in the benchmark's own code and
/// computes the reference answers from it.
struct Expected {
  Adjacency A;
  Reference R;

  Expected(const Workload &W, std::uint64_t Seed, const Program &P)
      : A(buildAdjacency(generate(W, Seed))),
        R(computeReference(A, P.Source, P.Cfg.PrDamping)) {}
};

void printResult(const Checker &C, const Metrics &M) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              C.Failed == 0 ? "true" : "false",
              static_cast<long long>(C.Attempted),
              static_cast<long long>(C.Failed), M.json().c_str());
  std::fflush(stdout);
}

int genMain(const std::map<std::string, std::string> &Flags) {
  const Workload *W = findWorkload(need(Flags, "workload"));
  if (!W)
    usage("unknown workload '" + need(Flags, "workload") + "'");
  Adjacency A =
      buildAdjacency(generate(*W, std::stoull(need(Flags, "seed"))));
  return writeDimacs(A, need(Flags, "out")) ? 0 : 1;
}

/// End-to-end run: untraced, uncounted, kernels interleaved round-robin, the
/// speed probe before and after each round.
int endToEnd(const Workload &W, std::uint64_t Seed, const std::string &Input,
             double Seconds) {
  Program P;
  if (!setUp(P, Input, W.Tasks, nullptr))
    return 1;
  // The machine's speed for the set-up's kind of work, right after it. The
  // probe's buffers are freed before the warm-up, so peak_rss_mb is the
  // program's.
  double ParseMinMs = 0.0;
  {
    ParseProbe Parse;
    std::vector<double> ParseMs;
    for (int I = 0; I < ParseSamples; ++I)
      ParseMs.push_back(Parse.runMs());
    ParseMinMs = *std::min_element(ParseMs.begin(), ParseMs.end());
  }

  // Warm-up rounds; their outputs are checked below with the timed ones.
  std::vector<KernelOutput> Warm;
  for (int R = 0; R < WarmupRounds; ++R)
    for (const SuiteKernel &K : Suite)
      Warm.push_back(P.run(K.Kind));
  // Sampled before the benchmark builds its own graph copy and references.
  double RssMb = peakRssMb();

  Expected E(W, Seed, P);
  Checker C(E.A, E.R);
  C.record("graph", checkLoadedGraph(E.A, adjacencyOf(P.G)));
  for (std::size_t I = 0; I < Warm.size(); ++I)
    C.check(Suite[I % NumKernels], Warm[I]);
  Warm.clear();

  std::vector<std::vector<double>> Ms(NumKernels);
  SpeedProbe Probe(W.Tasks);
  std::vector<double> ProbeMs;
  Clock::time_point LoopStart = Clock::now();
  for (int Round = 0;
       Round < MinRounds || msSince(LoopStart) < Seconds * 1e3; ++Round) {
    ProbeMs.push_back(Probe.runMs());
    for (std::size_t K = 0; K < NumKernels; ++K) {
      Clock::time_point T0 = Clock::now();
      KernelOutput Out = P.run(Suite[K].Kind);
      Ms[K].push_back(msSince(T0));
      C.check(Suite[K], Out);
    }
    ProbeMs.push_back(Probe.runMs());
  }

  // A neighbour's load only ever slows a call down, so each kernel's lower
  // quartile, and the probe's, are what the machine gives when it is least
  // disturbed; the ratio of the two cancels the drift both share. Kernel
  // times are reported at the machine speed where the probe takes
  // ProbeRefMs.
  double Scale = ProbeRefMs / lowerQuartile(ProbeMs);
  Metrics M;
  M.add("setup_s", P.SetupS * ParseRefMs / ParseMinMs, "s");
  double SuiteMs = 0.0;
  std::string Raw;
  for (std::size_t K = 0; K < NumKernels; ++K) {
    double Ms25 = lowerQuartile(Ms[K]) * Scale;
    SuiteMs += Ms25;
    M.add(std::string(Suite[K].Key) + "_ms", Ms25, "ms");
    Raw += " " + std::string(Suite[K].Key) + " " + std::to_string(median(Ms[K]));
  }
  M.add("suite_ms", SuiteMs, "ms");
  M.add("peak_rss_mb", RssMb, "MB");
  std::fprintf(stderr,
               "egacs_suite: %s seed %llu: unscaled set-up %.6f s, parse "
               "probe %.4f ms; %zu timed rounds, probe lower quartile %.4f ms "
               "(scale %.4f), unscaled kernel medians (ms):%s\n",
               W.Name, static_cast<unsigned long long>(Seed), P.SetupS,
               ParseMinMs, Ms[0].size(), ProbeRefMs / Scale, Scale,
               Raw.c_str());
  printResult(C, M);
  return 0;
}

/// Per-layer run: spans around every public call, trace round records and
/// op counts; never mixed into the end-to-end timings.
int perLayer(const Workload &W, std::uint64_t Seed, const std::string &Input,
             double Seconds, const std::string &LayersPath) {
  SpanLog Log;
  Program P;
  if (!setUp(P, Input, W.Tasks, &Log))
    return 1;

  Expected E(W, Seed, P);
  Checker C(E.A, E.R);
  C.record("graph", checkLoadedGraph(E.A, adjacencyOf(P.G)));

  // Empty launches at the workload's task count.
  std::vector<double> LaunchUs;
  Log.span("runtime.launch", [&] {
    for (int I = 0; I < LaunchSamples; ++I) {
      Clock::time_point T0 = Clock::now();
      P.TS->launch(W.Tasks, [](int, int) {});
      LaunchUs.push_back(msSince(T0) * 1e3);
    }
  });

  for (const SuiteKernel &K : Suite)
    C.check(K, P.run(K.Kind));

  // Untraced and traced passes alternate so both see the same conditions.
  std::vector<std::vector<double>> Plain(NumKernels), Traced(NumKernels),
      Rounds(NumKernels);
  SpeedProbe Probe(W.Tasks);
  std::vector<double> ProbeMs;
  Clock::time_point LoopStart = Clock::now();
  for (int Round = 0; Round < 3 || msSince(LoopStart) < Seconds * 1e3;
       ++Round) {
    ProbeMs.push_back(Probe.runMs());
    for (std::size_t K = 0; K < NumKernels; ++K) {
      KernelOutput Out;
      Plain[K].push_back(Log.span(std::string("kernels.") + Suite[K].Key,
                                  [&] { Out = P.run(Suite[K].Kind); }));
      C.check(Suite[K], Out);
    }
    for (std::size_t K = 0; K < NumKernels; ++K) {
      trace::TraceSession Session;
      KernelOutput Out;
      Traced[K].push_back(
          Log.span(std::string("kernels.") + Suite[K].Key + ".traced",
                   [&] { Out = P.run(Suite[K].Kind, &Session); }));
      Rounds[K].push_back(static_cast<double>(Session.rounds().size()));
      C.check(Suite[K], Out);
    }
  }

  // One counted pass: op counting on, a stats snapshot around each call.
  std::vector<StatsSnapshot> Counts(NumKernels);
  std::vector<KernelOutput> Outs(NumKernels);
  simd::setOpCounting(true);
  for (std::size_t K = 0; K < NumKernels; ++K) {
    StatsSnapshot Before = StatsSnapshot::capture();
    Log.span(std::string("kernels.") + Suite[K].Key + ".counted",
             [&] { Outs[K] = P.run(Suite[K].Kind); });
    Counts[K] = StatsSnapshot::capture() - Before;
  }
  simd::setOpCounting(false);

  // The program's own oracles over the suite's outputs.
  double OracleMs = Log.span("verify", [&] {
    for (std::size_t K = 0; K < NumKernels; ++K) {
      verify::OracleResult Ok = verify::checkKernelOutput(
          Suite[K].Kind, P.graphFor(Suite[K].Kind), P.Source, Outs[K], P.Cfg);
      if (!Ok.Ok)
        std::fprintf(stderr, "egacs_suite: program oracle rejects %s: %s\n",
                     Suite[K].Key, Ok.Reason.c_str());
    }
  });
  for (std::size_t K = 0; K < NumKernels; ++K)
    C.check(Suite[K], Outs[K]);

  Metrics M;
  M.add("graph.load_s", Log.durationMs("graph.load") / 1e3, "s");
  M.add("graph.sort_s", Log.durationMs("graph.sort") / 1e3, "s");
  M.add("graph.csr_mb",
        static_cast<double>(P.G.memoryFootprintBytes() +
                            P.Sorted.memoryFootprintBytes()) /
            1e6,
        "MB");
  M.add("runtime.launch_us", median(LaunchUs), "us");
  M.add("machine.probe_ms", lowerQuartile(ProbeMs), "ms");
  ParseProbe Parse;
  std::vector<double> ParseMs;
  for (int I = 0; I < ParseSamples; ++I)
    ParseMs.push_back(Parse.runMs());
  M.add("machine.parse_ms", *std::min_element(ParseMs.begin(), ParseMs.end()),
        "ms");
  double PlainSuite = 0.0, TracedSuite = 0.0;
  for (std::size_t K = 0; K < NumKernels; ++K) {
    PlainSuite += median(Plain[K]);
    TracedSuite += median(Traced[K]);
  }
  M.add("verify.oracle_ms", OracleMs, "ms");
  M.add("trace.overhead", TracedSuite / PlainSuite, "ratio");
  for (std::size_t K = 0; K < NumKernels; ++K) {
    const StatsSnapshot &S = Counts[K];
    std::string Key = Suite[K].Key;
    auto Count = [&](Stat St) { return static_cast<double>(S.get(St)); };
    double Total = Count(Stat::InnerTotalLanes);
    M.add("runtime.task_launches." + Key, Count(Stat::TaskLaunches), "count");
    M.add("runtime.barrier_waits." + Key, Count(Stat::BarrierWaits), "count");
    M.add("kernels.rounds." + Key, median(Rounds[K]), "count");
    M.add("sched.cas_attempts." + Key, Count(Stat::CasAttempts), "count");
    M.add("sched.cas_failures." + Key, Count(Stat::CasFailures), "count");
    M.add("simd.gather_ops." + Key, Count(Stat::GatherOps), "count");
    M.add("simd.lane_util." + Key,
          Total > 0 ? Count(Stat::InnerActiveLanes) / Total : 0.0, "ratio");
    M.add("worklist.items_pushed." + Key, Count(Stat::ItemsPushed), "count");
    M.add("worklist.atomic_pushes." + Key, Count(Stat::AtomicPushes), "count");
  }

  std::string Doc = "{\n  \"workload\": \"" + std::string(W.Name) +
                    "\",\n  \"seed\": " + std::to_string(Seed) +
                    ",\n  \"metrics\": {" + M.json() + "},\n  \"spans\": ";
  Log.appendJson(Doc);
  Doc += "\n}\n";
  std::ofstream(LayersPath) << Doc;
  printResult(C, M);
  return 0;
}

int runMain(const std::map<std::string, std::string> &Flags) {
  const Workload *W = findWorkload(need(Flags, "workload"));
  if (!W)
    usage("unknown workload '" + need(Flags, "workload") + "'");
  std::uint64_t Seed = std::stoull(need(Flags, "seed"));
  std::string Input = need(Flags, "input");
  double Seconds = std::stod(need(Flags, "seconds"));
  // --tasks overrides the workload's task count (for 1- vs 4-task figures).
  Workload Run = *W;
  if (auto Tasks = Flags.find("tasks"); Tasks != Flags.end())
    Run.Tasks = std::stoi(Tasks->second);
  auto Layers = Flags.find("layers");
  if (Layers == Flags.end())
    return endToEnd(Run, Seed, Input, Seconds);
  return perLayer(Run, Seed, Input, Seconds, Layers->second);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    usage("missing mode");
  std::string Mode = Argv[1];
  if (Mode == "selftest")
    return runSelfTest();
  if (Mode == "gen")
    return genMain(parseFlags(Argc, Argv));
  if (Mode == "run")
    return runMain(parseFlags(Argc, Argv));
  usage("unknown mode '" + Mode + "'");
}
