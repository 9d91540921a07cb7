//===- perfbench/Graphs.h - Seeded workload graphs ---------------*- C++ -*-===//
//
// The benchmark's own input generator. It shares no code with the program
// under test: the graphs are built here, written as DIMACS files, and read
// back through the program's loader, so a loader fault shows as a mismatch
// against the edge list kept here.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GRAPHS_H
#define PERFBENCH_GRAPHS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One undirected edge with U < V; it becomes the two arcs U->V and V->U of
/// the same weight in the DIMACS file.
struct Edge {
  std::int32_t U = 0;
  std::int32_t V = 0;
  std::int32_t W = 0;
};

/// A simple undirected graph: no self-loops, no parallel edges, weights >= 1.
struct Graph {
  std::int32_t NumNodes = 0;
  std::vector<Edge> Edges;

  std::int64_t numArcs() const {
    return 2 * static_cast<std::int64_t>(Edges.size());
  }
};

/// The same graph as arcs grouped by source, destinations ascending, in the
/// order they are written to the DIMACS file.
struct Adjacency {
  std::vector<std::int64_t> Offset; ///< NumNodes + 1 row starts
  std::vector<std::int32_t> Dst;
  std::vector<std::int32_t> W;

  std::int32_t numNodes() const {
    return static_cast<std::int32_t>(Offset.size()) - 1;
  }
  std::int64_t degree(std::int32_t N) const {
    return Offset[static_cast<std::size_t>(N) + 1] -
           Offset[static_cast<std::size_t>(N)];
  }
};

/// A named workload: which graph class and how many tasks run the kernels.
struct Workload {
  const char *Name;
  int Tasks;
};

/// Returns the workload called \p Name, or null.
const Workload *findWorkload(const std::string &Name);

/// Comma-separated list of the workload names, for messages.
std::string workloadNames();

/// Generates \p W's graph; the same seed gives the same graph.
Graph generate(const Workload &W, std::uint64_t Seed);

/// Builds the source-grouped, destination-sorted arc view of \p G.
Adjacency buildAdjacency(const Graph &G);

/// Writes \p A as a DIMACS shortest-path file ("p sp N M", 1-based "a u v w"
/// arcs). Returns false with a message on stderr when the write fails.
bool writeDimacs(const Adjacency &A, const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_GRAPHS_H
