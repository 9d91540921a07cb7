//===- perfbench/SelfTest.cpp - Tests of the output checks ----------------===//

#include "SelfTest.h"

#include "Checks.h"
#include "Graphs.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {
namespace {

int Cases = 0;
int Failures = 0;

void fail(const std::string &Case, const std::string &What) {
  ++Failures;
  std::fprintf(stderr, "selftest: %s: %s\n", Case.c_str(), What.c_str());
}

void accepts(const std::string &Case, const std::string &Why) {
  ++Cases;
  if (!Why.empty())
    fail(Case, "right output rejected: " + Why);
}

void rejects(const std::string &Case, const std::string &Why) {
  ++Cases;
  if (Why.empty())
    fail(Case, "corrupted output accepted");
}

void equals(const std::string &Case, long long Got, long long Want) {
  ++Cases;
  if (Got != Want)
    fail(Case, "got " + std::to_string(Got) + ", want " + std::to_string(Want));
}

constexpr std::int32_t U = Unreached;
constexpr std::int32_t In = MisMember;
constexpr std::int32_t Out = MisExcluded;

/// Two triangles {0,1,2} and {3,4,5} joined by 2-3, plus isolated node 6.
Graph twoTriangles() {
  return {7,
          {{0, 1, 2}, {1, 2, 3}, {0, 2, 4}, {2, 3, 1}, {3, 4, 5}, {4, 5, 1},
           {3, 5, 2}}};
}

/// A stand-in for the pr kernel: its recurrence in float, shares pushed in
/// node order, for \p Rounds rounds from uniform ranks.
std::vector<float> floatPageRank(const Adjacency &A, double D, int Rounds) {
  const std::int32_t N = A.numNodes();
  const float Base = static_cast<float>((1.0 - D) / N);
  std::vector<float> Rank(static_cast<std::size_t>(N), 1.0f / static_cast<float>(N));
  std::vector<float> Sum(Rank.size());
  for (int Round = 0; Round < Rounds; ++Round) {
    std::fill(Sum.begin(), Sum.end(), 0.0f);
    for (std::int32_t U = 0; U < N; ++U) {
      if (A.degree(U) == 0)
        continue;
      float Share = Rank[static_cast<std::size_t>(U)] /
                    static_cast<float>(A.degree(U));
      for (std::int64_t I = A.Offset[static_cast<std::size_t>(U)];
           I < A.Offset[static_cast<std::size_t>(U) + 1]; ++I)
        Sum[static_cast<std::size_t>(A.Dst[static_cast<std::size_t>(I)])] += Share;
    }
    for (std::size_t V = 0; V < Rank.size(); ++V)
      Rank[V] = Base + static_cast<float>(D) * Sum[V];
  }
  return Rank;
}

void referenceAnswers(const Reference &R) {
  const std::vector<std::int32_t> Bfs{0, 1, 1, 2, 3, 3, U};
  const std::vector<std::int32_t> Sssp{0, 2, 4, 5, 8, 7, U};
  equals("reference bfs", R.BfsDist == Bfs, 1);
  equals("reference sssp", R.SsspDist == Sssp, 1);
  equals("reference components", R.NumComponents, 2);
  equals("reference triangles", R.Triangles, 2);
  equals("reference mst weight", R.MstWeight, 9);
  equals("reference mst edges", R.MstEdges, 5);

  Graph K5{5, {}};
  for (std::int32_t X = 0; X < 5; ++X)
    for (std::int32_t Y = X + 1; Y < 5; ++Y)
      K5.Edges.push_back({X, Y, 1 + X + Y});
  equals("reference triangles of K5",
         computeReference(buildAdjacency(K5), 0, 0.85).Triangles, 10);
}

void distances(const Reference &R) {
  accepts("bfs right", checkBfs(R, R.BfsDist));
  auto Bfs = R.BfsDist;
  Bfs[4] = 2;
  rejects("bfs one wrong distance", checkBfs(R, Bfs));
  Bfs = R.BfsDist;
  Bfs[6] = 4;
  rejects("bfs unreachable node reached", checkBfs(R, Bfs));
  Bfs = R.BfsDist;
  Bfs[5] = U;
  rejects("bfs reachable node unreached", checkBfs(R, Bfs));
  Bfs.pop_back();
  rejects("bfs short output", checkBfs(R, Bfs));

  accepts("sssp right", checkSssp(R, R.SsspDist));
  auto Sssp = R.SsspDist;
  Sssp[4] = 10; // the longer route 0-2-3-4
  rejects("sssp one wrong distance", checkSssp(R, Sssp));
}

void components(const Reference &R) {
  accepts("cc min-id labels", checkCc(R, {0, 0, 0, 0, 0, 0, 6}));
  accepts("cc other label values", checkCc(R, {9, 9, 9, 9, 9, 9, -3}));
  rejects("cc merged component", checkCc(R, {0, 0, 0, 0, 0, 0, 0}));
  rejects("cc split component", checkCc(R, {0, 0, 0, 3, 3, 3, 6}));
  rejects("cc short output", checkCc(R, {0, 0, 0, 0, 0, 0}));
}

void triangles(const Reference &R) {
  accepts("tri right", checkTri(R, 2));
  rejects("tri dropped triangle", checkTri(R, 1));
  rejects("tri extra triangle", checkTri(R, 3));
}

void spanningForest(const Reference &R) {
  accepts("mst right", checkMst(R, 9, 5));
  rejects("mst heavier forest", checkMst(R, 10, 5));
  rejects("mst missing edge", checkMst(R, 7, 4));
  // Edge count that matches Kruskal but not nodes - components.
  Reference Wrong = R;
  Wrong.MstEdges = 6;
  rejects("mst edges vs nodes - components", checkMst(Wrong, 9, 6));
}

void independentSet(const Adjacency &A) {
  accepts("mis right", checkMis(A, {In, Out, Out, In, Out, Out, In}));
  rejects("mis two adjacent members",
          checkMis(A, {In, In, Out, In, Out, Out, In}));
  rejects("mis not maximal", checkMis(A, {In, Out, Out, In, Out, Out, Out}));
  rejects("mis undecided node", checkMis(A, {In, Out, 0, In, Out, Out, In}));
}

void pageRanks(const Adjacency &A, const Reference &R) {
  std::vector<float> Rank(R.PrRank.begin(), R.PrRank.end());
  accepts("pr reference", checkPr(R, Rank));
  accepts("pr in float", checkPr(R, floatPageRank(A, R.PrDamping, PrRounds)));

  auto Leaked = Rank;
  for (float &X : Leaked)
    X *= 0.9f;
  rejects("pr leaked rank mass", checkPr(R, Leaked));

  // Mass moved from node 0 to node 6 keeps the sum.
  auto Moved = Rank;
  Moved[0] -= 0.05f;
  Moved[6] += 0.05f;
  rejects("pr rank moved between nodes", checkPr(R, Moved));

  auto Floor = Rank;
  Floor[6] = 0.0f;
  rejects("pr rank below teleport floor", checkPr(R, Floor));

  auto NotFinite = Rank;
  NotFinite[3] = std::numeric_limits<float>::quiet_NaN();
  rejects("pr non-finite rank", checkPr(R, NotFinite));
}

/// The pr check at the size the benchmark runs it, where a budget that grows
/// with the arcs or does not shrink with 1/N would admit anything.
void pageRanksAtScale(const char *WorkloadName) {
  Adjacency A = buildAdjacency(generate(*findWorkload(WorkloadName), 1));
  Reference R = computeReference(A, 0, 0.85);
  const std::string Case = std::string("pr on ") + WorkloadName + ": ";
  std::vector<float> Rank = floatPageRank(A, R.PrDamping, PrRounds);
  accepts(Case + "computed in float", checkPr(R, Rank));

  auto Leaked = Rank;
  for (float &X : Leaked)
    X *= 0.9f;
  rejects(Case + "a tenth of the rank mass leaked", checkPr(R, Leaked));

  std::vector<float> AtFloor(
      Rank.size(), static_cast<float>((1.0 - R.PrDamping) / A.numNodes()));
  rejects(Case + "every rank at the teleport floor", checkPr(R, AtFloor));

  rejects(Case + "stopped after five rounds",
          checkPr(R, floatPageRank(A, R.PrDamping, 5)));

  std::int32_t Hub = 0;
  for (std::int32_t V = 0; V < A.numNodes(); ++V)
    if (A.degree(V) > A.degree(Hub))
      Hub = V;
  auto Doubled = Rank;
  Doubled[static_cast<std::size_t>(Hub)] *= 2.0f;
  rejects(Case + "the hub's rank doubled", checkPr(R, Doubled));
}

void loadedGraph(const Adjacency &A) {
  accepts("graph as written", checkLoadedGraph(A, A));
  Adjacency Dropped = A; // drop the last arc of the last non-empty row (5->4)
  Dropped.Dst.erase(Dropped.Dst.end() - 1);
  Dropped.W.erase(Dropped.W.end() - 1);
  for (std::size_t I = 6; I < Dropped.Offset.size(); ++I)
    --Dropped.Offset[I];
  rejects("graph arc dropped", checkLoadedGraph(A, Dropped));
  Adjacency Reweighted = A;
  Reweighted.W[0] += 1; // 0->1 no longer matches 1->0
  rejects("graph weight changed", checkLoadedGraph(A, Reweighted));
  // Even a file written with an unpaired arc weight is caught by the
  // reverse-arc test.
  rejects("graph asymmetric weight", checkLoadedGraph(Reweighted, Reweighted));
}

} // namespace

int runSelfTest() {
  Adjacency A = buildAdjacency(twoTriangles());
  Reference R = computeReference(A, 0, 0.85);
  referenceAnswers(R);
  distances(R);
  components(R);
  triangles(R);
  spanningForest(R);
  independentSet(A);
  pageRanks(A, R);
  pageRanksAtScale("rmat-t4");
  pageRanksAtScale("random-t1");
  loadedGraph(A);
  std::fprintf(stderr, "selftest: %d of %d cases passed\n", Cases - Failures,
               Cases);
  return Failures == 0 ? 0 : 1;
}

} // namespace perfbench
