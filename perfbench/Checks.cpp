//===- perfbench/Checks.cpp - Independent output checks -------------------===//

#include "Checks.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <queue>
#include <unordered_map>

namespace perfbench {
namespace {

std::size_t idx(std::int64_t I) { return static_cast<std::size_t>(I); }

/// Union-find with path halving and union by size.
class DisjointSets {
public:
  explicit DisjointSets(std::int32_t N)
      : Parent(idx(N)), Size(idx(N), 1) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }
  std::int32_t find(std::int32_t X) {
    while (Parent[idx(X)] != X) {
      Parent[idx(X)] = Parent[idx(Parent[idx(X)])];
      X = Parent[idx(X)];
    }
    return X;
  }
  bool unite(std::int32_t A, std::int32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    if (Size[idx(A)] < Size[idx(B)])
      std::swap(A, B);
    Parent[idx(B)] = A;
    Size[idx(A)] += Size[idx(B)];
    return true;
  }

private:
  std::vector<std::int32_t> Parent;
  std::vector<std::int32_t> Size;
};

std::vector<std::int32_t> bfs(const Adjacency &A, std::int32_t Source) {
  std::vector<std::int32_t> Dist(idx(A.numNodes()), Unreached);
  std::vector<std::int32_t> Queue{Source};
  Dist[idx(Source)] = 0;
  for (std::size_t Head = 0; Head < Queue.size(); ++Head) {
    std::int32_t U = Queue[Head];
    for (std::int64_t I = A.Offset[idx(U)]; I < A.Offset[idx(U) + 1]; ++I) {
      std::int32_t V = A.Dst[idx(I)];
      if (Dist[idx(V)] == Unreached) {
        Dist[idx(V)] = Dist[idx(U)] + 1;
        Queue.push_back(V);
      }
    }
  }
  return Dist;
}

std::vector<std::int32_t> dijkstra(const Adjacency &A, std::int32_t Source) {
  const std::int64_t Inf = INT64_MAX;
  std::vector<std::int64_t> Dist(idx(A.numNodes()), Inf);
  using Item = std::pair<std::int64_t, std::int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> Heap;
  Dist[idx(Source)] = 0;
  Heap.push({0, Source});
  while (!Heap.empty()) {
    auto [D, U] = Heap.top();
    Heap.pop();
    if (D != Dist[idx(U)])
      continue;
    for (std::int64_t I = A.Offset[idx(U)]; I < A.Offset[idx(U) + 1]; ++I) {
      std::int32_t V = A.Dst[idx(I)];
      std::int64_t ND = D + A.W[idx(I)];
      if (ND < Dist[idx(V)]) {
        Dist[idx(V)] = ND;
        Heap.push({ND, V});
      }
    }
  }
  std::vector<std::int32_t> Out(Dist.size(), Unreached);
  for (std::size_t V = 0; V < Dist.size(); ++V)
    if (Dist[V] != Inf)
      Out[V] = static_cast<std::int32_t>(std::min<std::int64_t>(Dist[V], Unreached - 1));
  return Out;
}

/// Forward algorithm: orient each edge from lower to higher (degree, id)
/// rank and count, per node, the closing edges among its out-neighbours.
/// The kernel orders by node id and merges sorted lists; this orders by
/// degree and marks, so the two share neither orientation nor method.
std::int64_t triangles(const Adjacency &A) {
  const std::int32_t N = A.numNodes();
  auto Before = [&](std::int32_t X, std::int32_t Y) {
    std::int64_t DX = A.degree(X), DY = A.degree(Y);
    return DX != DY ? DX < DY : X < Y;
  };
  std::vector<std::int64_t> Start(idx(N) + 1, 0);
  std::vector<std::int32_t> Out;
  Out.reserve(A.Dst.size() / 2);
  for (std::int32_t U = 0; U < N; ++U) {
    for (std::int64_t I = A.Offset[idx(U)]; I < A.Offset[idx(U) + 1]; ++I)
      if (Before(U, A.Dst[idx(I)]))
        Out.push_back(A.Dst[idx(I)]);
    Start[idx(U) + 1] = static_cast<std::int64_t>(Out.size());
  }
  std::vector<std::int32_t> Mark(idx(N), -1);
  std::int64_t Count = 0;
  for (std::int32_t U = 0; U < N; ++U) {
    for (std::int64_t I = Start[idx(U)]; I < Start[idx(U) + 1]; ++I)
      Mark[idx(Out[idx(I)])] = U;
    for (std::int64_t I = Start[idx(U)]; I < Start[idx(U) + 1]; ++I) {
      std::int32_t V = Out[idx(I)];
      for (std::int64_t J = Start[idx(V)]; J < Start[idx(V) + 1]; ++J)
        Count += Mark[idx(Out[idx(J)])] == U;
    }
  }
  return Count;
}

std::string mismatch(const char *What, std::int64_t Got, std::int64_t Want) {
  return std::string(What) + ": got " + std::to_string(Got) + ", expected " +
         std::to_string(Want);
}

std::string checkDistances(const char *Kernel,
                           const std::vector<std::int32_t> &Want,
                           const std::vector<std::int32_t> &Got) {
  if (Got.size() != Want.size())
    return mismatch((std::string(Kernel) + " output size").c_str(),
                    static_cast<std::int64_t>(Got.size()),
                    static_cast<std::int64_t>(Want.size()));
  for (std::size_t V = 0; V < Want.size(); ++V)
    if (Got[V] != Want[V])
      return mismatch((std::string(Kernel) + " distance of node " +
                       std::to_string(V))
                          .c_str(),
                      Got[V], Want[V]);
  return {};
}

/// The pr kernel's recurrence, r'(v) = (1-d)/N + d * sum over in-neighbours
/// u of r(u)/deg(u), for PrRounds rounds from uniform ranks, in double.
/// Alongside it runs a bound on how far the kernel's float ranks can be from
/// these: each round the kernel rounds node v's rank at most deg(v)+3 times
/// (one share per in-neighbour, the sum, the damping and the teleport term),
/// each time by at most PrFloatRel of the rank, and inherits d times its
/// in-neighbours' errors through their shares. In-neighbours are neighbours:
/// the graph is symmetric.
void pageRank(const Adjacency &A, double D, std::vector<double> &Rank,
              std::vector<double> &Slack) {
  const std::int32_t N = A.numNodes();
  Rank.assign(idx(N), N > 0 ? 1.0 / N : 0.0);
  Slack.assign(idx(N), N > 0 ? PrFloatRel / N : 0.0);
  std::vector<double> Next(idx(N)), NextSlack(idx(N));
  for (int Round = 0; Round < PrRounds; ++Round) {
    std::fill(Next.begin(), Next.end(), (1.0 - D) / N);
    std::fill(NextSlack.begin(), NextSlack.end(), 0.0);
    for (std::int32_t U = 0; U < N; ++U) {
      if (A.degree(U) == 0)
        continue;
      auto Deg = static_cast<double>(A.degree(U));
      for (std::int64_t I = A.Offset[idx(U)]; I < A.Offset[idx(U) + 1]; ++I) {
        Next[idx(A.Dst[idx(I)])] += D * Rank[idx(U)] / Deg;
        NextSlack[idx(A.Dst[idx(I)])] += D * Slack[idx(U)] / Deg;
      }
    }
    for (std::int32_t V = 0; V < N; ++V)
      NextSlack[idx(V)] += PrFloatRel *
                           static_cast<double>(A.degree(V) + 3) * Next[idx(V)];
    Rank.swap(Next);
    Slack.swap(NextSlack);
  }
}

} // namespace

Reference computeReference(const Adjacency &A, std::int32_t Source,
                           double PrDamping) {
  Reference R;
  const std::int32_t N = A.numNodes();
  R.BfsDist = bfs(A, Source);
  R.SsspDist = dijkstra(A, Source);

  DisjointSets Components(N);
  for (std::int32_t U = 0; U < N; ++U)
    for (std::int64_t I = A.Offset[idx(U)]; I < A.Offset[idx(U) + 1]; ++I)
      Components.unite(U, A.Dst[idx(I)]);
  R.Component.resize(idx(N));
  for (std::int32_t U = 0; U < N; ++U) {
    R.Component[idx(U)] = Components.find(U);
    R.NumComponents += R.Component[idx(U)] == U;
  }

  R.Triangles = triangles(A);

  struct WeightedEdge {
    std::int32_t W, U, V;
  };
  std::vector<WeightedEdge> Edges;
  for (std::int32_t U = 0; U < N; ++U)
    for (std::int64_t I = A.Offset[idx(U)]; I < A.Offset[idx(U) + 1]; ++I)
      if (U < A.Dst[idx(I)])
        Edges.push_back({A.W[idx(I)], U, A.Dst[idx(I)]});
  std::sort(Edges.begin(), Edges.end(),
            [](const WeightedEdge &X, const WeightedEdge &Y) {
              return X.W < Y.W;
            });
  DisjointSets Forest(N);
  for (const WeightedEdge &E : Edges)
    if (Forest.unite(E.U, E.V)) {
      R.MstWeight += E.W;
      ++R.MstEdges;
    }

  R.PrDamping = PrDamping;
  pageRank(A, PrDamping, R.PrRank, R.PrSlack);
  return R;
}

std::string checkLoadedGraph(const Adjacency &Written,
                             const Adjacency &Loaded) {
  if (Loaded.numNodes() != Written.numNodes())
    return mismatch("loaded node count", Loaded.numNodes(),
                    Written.numNodes());
  if (Loaded.Dst.size() != Written.Dst.size())
    return mismatch("loaded arc count",
                    static_cast<std::int64_t>(Loaded.Dst.size()),
                    static_cast<std::int64_t>(Written.Dst.size()));
  if (Loaded.Offset != Written.Offset || Loaded.Dst != Written.Dst ||
      Loaded.W != Written.W)
    return "loaded arcs differ from the arcs written";
  for (std::int32_t U = 0; U < Loaded.numNodes(); ++U)
    for (std::int64_t I = Loaded.Offset[idx(U)]; I < Loaded.Offset[idx(U) + 1];
         ++I) {
      std::int32_t V = Loaded.Dst[idx(I)];
      auto RowBegin = Loaded.Dst.begin() + Loaded.Offset[idx(V)];
      auto RowEnd = Loaded.Dst.begin() + Loaded.Offset[idx(V) + 1];
      auto Back = std::lower_bound(RowBegin, RowEnd, U);
      if (Back == RowEnd || *Back != U)
        return "arc " + std::to_string(U) + "->" + std::to_string(V) +
               " has no reverse";
      if (Loaded.W[idx(Back - Loaded.Dst.begin())] != Loaded.W[idx(I)])
        return "arc " + std::to_string(U) + "->" + std::to_string(V) +
               " and its reverse differ in weight";
    }
  return {};
}

std::string checkBfs(const Reference &R, const std::vector<std::int32_t> &Dist) {
  return checkDistances("bfs", R.BfsDist, Dist);
}

std::string checkSssp(const Reference &R,
                      const std::vector<std::int32_t> &Dist) {
  return checkDistances("sssp", R.SsspDist, Dist);
}

std::string checkCc(const Reference &R, const std::vector<std::int32_t> &Label) {
  if (Label.size() != R.Component.size())
    return mismatch("cc output size", static_cast<std::int64_t>(Label.size()),
                    static_cast<std::int64_t>(R.Component.size()));
  // The labels induce the same partition iff component -> label and
  // label -> component are both functions.
  std::unordered_map<std::int32_t, std::int32_t> LabelOf, ComponentOf;
  for (std::size_t V = 0; V < Label.size(); ++V) {
    auto [L, NewL] = LabelOf.try_emplace(R.Component[V], Label[V]);
    if (!NewL && L->second != Label[V])
      return "cc: node " + std::to_string(V) + " is split from its component";
    auto [C, NewC] = ComponentOf.try_emplace(Label[V], R.Component[V]);
    if (!NewC && C->second != R.Component[V])
      return "cc: node " + std::to_string(V) +
             " shares a label with another component (components merged)";
  }
  return {};
}

std::string checkTri(const Reference &R, std::int64_t Count) {
  if (Count != R.Triangles)
    return mismatch("tri count", Count, R.Triangles);
  return {};
}

std::string checkMst(const Reference &R, std::int64_t Weight,
                     std::int64_t Edges) {
  if (Weight != R.MstWeight)
    return mismatch("mst weight", Weight, R.MstWeight);
  if (Edges != R.MstEdges)
    return mismatch("mst edge count", Edges, R.MstEdges);
  auto Nodes = static_cast<std::int64_t>(R.Component.size());
  if (Edges != Nodes - R.NumComponents)
    return mismatch("mst edge count vs nodes - components", Edges,
                    Nodes - R.NumComponents);
  return {};
}

std::string checkMis(const Adjacency &A,
                     const std::vector<std::int32_t> &State) {
  if (State.size() != idx(A.numNodes()))
    return mismatch("mis output size", static_cast<std::int64_t>(State.size()),
                    A.numNodes());
  for (std::int32_t U = 0; U < A.numNodes(); ++U) {
    std::int32_t S = State[idx(U)];
    if (S != MisMember && S != MisExcluded)
      return "mis: node " + std::to_string(U) + " is undecided (state " +
             std::to_string(S) + ")";
    bool MemberNeighbour = false;
    for (std::int64_t I = A.Offset[idx(U)]; I < A.Offset[idx(U) + 1]; ++I)
      MemberNeighbour |= State[idx(A.Dst[idx(I)])] == MisMember;
    if (S == MisMember && MemberNeighbour)
      return "mis: members " + std::to_string(U) +
             " and a neighbour are adjacent (not independent)";
    if (S == MisExcluded && !MemberNeighbour)
      return "mis: node " + std::to_string(U) +
             " is excluded with no member neighbour (not maximal)";
  }
  return {};
}

std::string checkPr(const Reference &R, const std::vector<float> &Rank) {
  const std::size_t N = R.PrRank.size();
  if (Rank.size() != N)
    return mismatch("pr output size", static_cast<std::int64_t>(Rank.size()),
                    static_cast<std::int64_t>(N));
  const double Floor = (1.0 - R.PrDamping) / static_cast<double>(N);
  for (std::size_t V = 0; V < N; ++V) {
    double Got = Rank[V];
    if (!std::isfinite(Got))
      return "pr: node " + std::to_string(V) + " has a non-finite rank";
    if (Got < Floor * (1.0 - PrFloatRel))
      return "pr: node " + std::to_string(V) + " rank " + std::to_string(Got) +
             " is below the teleport floor " + std::to_string(Floor);
    if (std::fabs(Got - R.PrRank[V]) > R.PrSlack[V])
      return "pr: node " + std::to_string(V) + " rank " + std::to_string(Got) +
             " differs from the reference " + std::to_string(R.PrRank[V]) +
             " by more than its float slack " + std::to_string(R.PrSlack[V]);
  }
  return {};
}

} // namespace perfbench
