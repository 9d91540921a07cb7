//===- perfbench/Graphs.cpp - Seeded workload graphs ----------------------===//

#include "Graphs.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

constexpr Workload Workloads[] = {
    {"rmat-t4", 4},
    {"road-t4", 4},
    {"random-t1", 1},
};

// Graph sizes. Each is chosen so that one pass of the ten kernels takes a
// few hundred milliseconds on a 4-thread x86 box, which gives every kernel
// enough timed calls in a 25-second run for a steady median.
constexpr int RmatScale = 15;        // 32768 nodes
constexpr int RmatEdgeFactor = 8;    // sampled edges per node before dedupe
constexpr int RoadWidth = 256;       // 256 x 256 grid
constexpr int RoadHeight = 256;
constexpr double RoadDiagonals = 0.05;
constexpr std::uint64_t RoadLayoutSeed = 0x726f6164; // fixed diagonal layout
constexpr int RandomNodes = 1 << 17; // 131072 nodes, about 4 arcs each
constexpr std::uint64_t RandomLayoutSeed = 0x756e6966; // fixed edge set

/// splitmix64: small, seedable, and independent of the program's RNG.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}

  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, Bound).
  std::uint64_t below(std::uint64_t Bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  std::uint64_t State;
};

/// Adds U-V unless it is a self-loop; duplicates are removed afterwards.
void addEdge(std::vector<Edge> &Out, std::int32_t U, std::int32_t V,
             std::int32_t W) {
  if (U == V)
    return;
  if (U > V)
    std::swap(U, V);
  Out.push_back({U, V, W});
}

/// Sorts by endpoint pair and keeps the first-generated copy of each edge.
void dedupe(std::vector<Edge> &Edges) {
  std::stable_sort(Edges.begin(), Edges.end(),
                   [](const Edge &A, const Edge &B) {
                     return A.U != B.U ? A.U < B.U : A.V < B.V;
                   });
  Edges.erase(std::unique(Edges.begin(), Edges.end(),
                          [](const Edge &A, const Edge &B) {
                            return A.U == B.U && A.V == B.V;
                          }),
              Edges.end());
}

Graph rmat(Rng &R) {
  Graph G;
  G.NumNodes = 1 << RmatScale;
  const double A = 0.57, B = 0.19, C = 0.19;
  std::int64_t Samples = static_cast<std::int64_t>(RmatEdgeFactor) * G.NumNodes;
  for (std::int64_t I = 0; I < Samples; ++I) {
    std::int32_t U = 0, V = 0;
    for (int Bit = 0; Bit < RmatScale; ++Bit) {
      double P = R.unit();
      if (P >= A + B + C) {
        U |= 1 << Bit;
        V |= 1 << Bit;
      } else if (P >= A + B) {
        U |= 1 << Bit;
      } else if (P >= A) {
        V |= 1 << Bit;
      }
    }
    addEdge(G.Edges, U, V, static_cast<std::int32_t>(1 + R.below(255)));
  }
  dedupe(G.Edges);
  return G;
}

Graph road(Rng &R) {
  Graph G;
  G.NumNodes = RoadWidth * RoadHeight;
  auto Id = [](int X, int Y) { return Y * RoadWidth + X; };
  auto Weight = [&R] { return static_cast<std::int32_t>(1 + R.below(1000)); };
  // The diagonals are the same for every seed; the seed draws the weights.
  // Traversals start at the first highest-degree node, a cell with both
  // diagonals, and with seeded diagonals its place on the grid (and so the
  // BFS depth, hence bfs-tp's time) moved by up to 20 % between seeds.
  Rng Layout(RoadLayoutSeed);
  for (int Y = 0; Y < RoadHeight; ++Y)
    for (int X = 0; X < RoadWidth; ++X) {
      if (X + 1 < RoadWidth)
        addEdge(G.Edges, Id(X, Y), Id(X + 1, Y), Weight());
      if (Y + 1 < RoadHeight)
        addEdge(G.Edges, Id(X, Y), Id(X, Y + 1), Weight());
      if (X + 1 < RoadWidth && Y + 1 < RoadHeight &&
          Layout.unit() < RoadDiagonals)
        addEdge(G.Edges, Id(X, Y), Id(X + 1, Y + 1), Weight());
    }
  dedupe(G.Edges);
  return G;
}

Graph uniform(Rng &R) {
  Graph G;
  G.NumNodes = RandomNodes;
  // NumNodes * 2 undirected samples give about 4 arcs per node. The edges
  // are the same for every seed; the seed draws the weights. With seeded
  // edges the depth of the graph's longest paths, and with it the rounds cc
  // and sssp make, moved their times by 14-17 % (interquartile range over
  // median of eight seeds) against 2-5 % for the other kernels.
  Rng Layout(RandomLayoutSeed);
  for (std::int64_t I = 0; I < 2 * static_cast<std::int64_t>(G.NumNodes); ++I) {
    auto U = static_cast<std::int32_t>(Layout.below(G.NumNodes));
    auto V = static_cast<std::int32_t>(Layout.below(G.NumNodes));
    addEdge(G.Edges, U, V, static_cast<std::int32_t>(1 + R.below(255)));
  }
  dedupe(G.Edges);
  return G;
}

/// Appends the decimal digits of \p V.
void appendInt(std::string &Out, std::int64_t V) {
  char Buf[24];
  int Len = std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  Out.append(Buf, static_cast<std::size_t>(Len));
}

} // namespace

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

std::string workloadNames() {
  std::string Names;
  for (const Workload &W : Workloads)
    Names += (Names.empty() ? "" : ", ") + std::string(W.Name);
  return Names;
}

Graph generate(const Workload &W, std::uint64_t Seed) {
  // Mix the workload into the seed so workloads never share a stream.
  std::uint64_t Mixed = Seed * 0x100000001b3ull;
  for (const char *C = W.Name; *C; ++C)
    Mixed = (Mixed ^ static_cast<unsigned char>(*C)) * 0x100000001b3ull;
  Rng R(Mixed);
  std::string Name = W.Name;
  if (Name.rfind("rmat", 0) == 0)
    return rmat(R);
  if (Name.rfind("road", 0) == 0)
    return road(R);
  return uniform(R);
}

Adjacency buildAdjacency(const Graph &G) {
  Adjacency A;
  A.Offset.assign(static_cast<std::size_t>(G.NumNodes) + 1, 0);
  for (const Edge &E : G.Edges) {
    ++A.Offset[static_cast<std::size_t>(E.U) + 1];
    ++A.Offset[static_cast<std::size_t>(E.V) + 1];
  }
  for (std::size_t I = 1; I < A.Offset.size(); ++I)
    A.Offset[I] += A.Offset[I - 1];
  A.Dst.resize(static_cast<std::size_t>(G.numArcs()));
  A.W.resize(A.Dst.size());
  std::vector<std::int64_t> Cursor(A.Offset.begin(), A.Offset.end() - 1);
  auto Put = [&](std::int32_t From, std::int32_t To, std::int32_t W) {
    auto Slot = static_cast<std::size_t>(Cursor[static_cast<std::size_t>(From)]++);
    A.Dst[Slot] = To;
    A.W[Slot] = W;
  };
  for (const Edge &E : G.Edges) {
    Put(E.U, E.V, E.W);
    Put(E.V, E.U, E.W);
  }
  // Sort each row by destination (weights follow their arcs).
  std::vector<std::pair<std::int32_t, std::int32_t>> Row;
  for (std::int32_t N = 0; N < G.NumNodes; ++N) {
    auto Begin = static_cast<std::size_t>(A.Offset[static_cast<std::size_t>(N)]);
    auto End = static_cast<std::size_t>(A.Offset[static_cast<std::size_t>(N) + 1]);
    Row.clear();
    for (std::size_t I = Begin; I < End; ++I)
      Row.emplace_back(A.Dst[I], A.W[I]);
    std::sort(Row.begin(), Row.end());
    for (std::size_t I = Begin; I < End; ++I) {
      A.Dst[I] = Row[I - Begin].first;
      A.W[I] = Row[I - Begin].second;
    }
  }
  return A;
}

bool writeDimacs(const Adjacency &A, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return false;
  }
  std::string Buf = "c perfbench workload graph\np sp ";
  appendInt(Buf, A.numNodes());
  Buf += ' ';
  appendInt(Buf, static_cast<std::int64_t>(A.Dst.size()));
  Buf += '\n';
  bool Ok = true;
  for (std::int32_t N = 0; N < A.numNodes() && Ok; ++N) {
    for (auto I = static_cast<std::size_t>(A.Offset[static_cast<std::size_t>(N)]);
         I < static_cast<std::size_t>(A.Offset[static_cast<std::size_t>(N) + 1]);
         ++I) {
      Buf += "a ";
      appendInt(Buf, N + 1);
      Buf += ' ';
      appendInt(Buf, A.Dst[I] + 1);
      Buf += ' ';
      appendInt(Buf, A.W[I]);
      Buf += '\n';
    }
    if (Buf.size() > (1u << 20)) {
      Ok = std::fwrite(Buf.data(), 1, Buf.size(), F) == Buf.size();
      Buf.clear();
    }
  }
  Ok = Ok && std::fwrite(Buf.data(), 1, Buf.size(), F) == Buf.size();
  Ok = (std::fclose(F) == 0) && Ok;
  if (!Ok)
    std::fprintf(stderr, "perfbench: write to %s failed\n", Path.c_str());
  return Ok;
}

} // namespace perfbench
