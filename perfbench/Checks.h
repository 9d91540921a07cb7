//===- perfbench/Checks.h - Independent output checks ------------*- C++ -*-===//
//
// Every kernel output the benchmark times is checked here, against answers
// computed by this file's own algorithms from the generator's edge list. No
// code of the program under test (its reference kernels or its verify/
// oracles) is used, so a fault shared by a kernel and its in-tree checker
// cannot hide.
//
// Each check returns an empty string when the output is right and the first
// violated property otherwise.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Graphs.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Unreached distance, as the program encodes it in bfs/sssp outputs.
inline constexpr std::int32_t Unreached = 0x7fffffff;

/// Node states of an MIS output, as the program encodes them.
inline constexpr std::int32_t MisMember = 1;
inline constexpr std::int32_t MisExcluded = 2;

/// Rounds pr makes when it is never allowed to stop early: runKernel's cap
/// (engine/KernelTable.h). The benchmark runs pr with PrTolerance 0 and this
/// many rounds, for two reasons. The default tolerance, an absolute 1e-4, is
/// larger than the mean rank 1/N of every workload graph, so pr stops after
/// one to five rounds and any residual budget built on it is wider than the
/// ranks. And a tolerance scaled to 1/N makes the round count, and with it
/// pr's time, depend on the seed (260 to 764 ms over six rmat-t4 seeds at
/// 0.003/N).
inline constexpr int PrRounds = 50;

/// Each float rounding the pr kernel makes is within 2^-24 of the value;
/// the pr reference allows 16 times that.
inline constexpr double PrFloatRel = 1e-6;

/// Answers computed apart from the program.
struct Reference {
  std::vector<std::int32_t> BfsDist;  ///< serial BFS from the source
  std::vector<std::int32_t> SsspDist; ///< Dijkstra from the source
  std::vector<std::int32_t> Component; ///< union-find root per node
  std::int64_t NumComponents = 0;
  std::int64_t Triangles = 0;  ///< degree-ordered forward count
  std::int64_t MstWeight = 0;  ///< Kruskal spanning forest
  std::int64_t MstEdges = 0;
  double PrDamping = 0.0;
  std::vector<double> PrRank;  ///< PrRounds rounds from uniform, in double
  std::vector<double> PrSlack; ///< bound on the kernel's float error per node
};

Reference computeReference(const Adjacency &A, std::int32_t Source,
                           double PrDamping);

/// The graph the program loaded, \p Loaded, has the nodes and arcs that were
/// written, \p Written, and every loaded arc has its reverse with the same
/// weight. Rows of both must be sorted by destination.
std::string checkLoadedGraph(const Adjacency &Written, const Adjacency &Loaded);

/// bfs: every distance equals the serial BFS.
std::string checkBfs(const Reference &R, const std::vector<std::int32_t> &Dist);
/// sssp: every distance equals Dijkstra.
std::string checkSssp(const Reference &R, const std::vector<std::int32_t> &Dist);
/// cc: the labels induce the union-find partition (label values are free).
std::string checkCc(const Reference &R, const std::vector<std::int32_t> &Label);
/// tri: the count equals the forward-algorithm count.
std::string checkTri(const Reference &R, std::int64_t Count);
/// mst: weight and edge count equal Kruskal's; the edge count is also
/// nodes minus components.
std::string checkMst(const Reference &R, std::int64_t Weight,
                     std::int64_t Edges);
/// mis: every node decided, no two adjacent members, every excluded node
/// next to a member.
std::string checkMis(const Adjacency &A, const std::vector<std::int32_t> &State);
/// pr: finite ranks at or above the teleport floor, each within its float
/// slack of the reference's PrRounds-round iteration.
std::string checkPr(const Reference &R, const std::vector<float> &Rank);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
