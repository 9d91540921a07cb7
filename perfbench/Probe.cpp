//===- perfbench/Probe.cpp - Machine-speed probe --------------------------===//

#include "Probe.h"

#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

constexpr std::uint32_t CycleSize = 1u << 20; // 4 MiB of uint32 per thread
constexpr int Chains = 8;
constexpr int Steps = 1 << 15; // per chain and walk

} // namespace

SpeedProbe::SpeedProbe(int Threads) : Threads(Threads) {
  for (int T = 0; T < Threads; ++T) {
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<std::uint32_t> Cycle(CycleSize);
    std::iota(Cycle.begin(), Cycle.end(), 0u);
    std::uint64_t X = 0x5eed0000u + static_cast<std::uint64_t>(T);
    for (std::uint32_t I = CycleSize - 1; I > 0; --I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(Cycle[I], Cycle[static_cast<std::uint32_t>((X >> 33) % I)]);
    }
    Cycles.push_back(std::move(Cycle));
  }
}

double SpeedProbe::runMs() {
  std::vector<double> Ms(static_cast<std::size_t>(Threads));
  std::vector<std::uint64_t> Sums(static_cast<std::size_t>(Threads));
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      const std::uint32_t *Next = Cycles[static_cast<std::size_t>(T)].data();
      std::uint32_t At[Chains];
      for (int K = 0; K < Chains; ++K)
        At[K] = static_cast<std::uint32_t>(K) * (CycleSize / Chains);
      std::uint64_t Sum = 0;
      auto Walk = [&] {
        for (int Step = 0; Step < Steps; ++Step)
          for (int K = 0; K < Chains; ++K) {
            At[K] = Next[At[K]];
            Sum += At[K];
          }
      };
      // The first walk brings the cycle back into cache after the kernels;
      // only the second is timed, so thread start-up is not timed either.
      Walk();
      auto T0 = std::chrono::steady_clock::now();
      Walk();
      Ms[static_cast<std::size_t>(T)] =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - T0)
              .count();
      Sums[static_cast<std::size_t>(T)] = Sum;
    });
  for (std::thread &W : Workers)
    W.join();
  Sink += std::accumulate(Sums.begin(), Sums.end(), std::uint64_t{0});
  return std::accumulate(Ms.begin(), Ms.end(), 0.0) / Threads;
}

ParseProbe::ParseProbe() {
  constexpr int NumLines = 32768;
  // One allocation each, so that freeing them returns them to the system.
  Text.reserve(NumLines * 24);
  Starts.reserve(NumLines);
  std::uint64_t X = 0x5eed;
  char Line[64];
  for (int I = 0; I < NumLines; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    std::snprintf(Line, sizeof(Line), "a %llu %llu %llu\n",
                  static_cast<unsigned long long>((X >> 40) % 65536 + 1),
                  static_cast<unsigned long long>((X >> 20) % 65536 + 1),
                  static_cast<unsigned long long>((X >> 10) % 1000 + 1));
    Starts.push_back(static_cast<std::uint32_t>(Text.size()));
    Text.append(Line);
    Text.push_back('\0');
  }
}

double ParseProbe::runMs() {
  auto T0 = std::chrono::steady_clock::now();
  for (std::uint32_t Start : Starts) {
    long long Src = 0, Dst = 0, W = 0;
    std::sscanf(Text.data() + Start, "a %lld %lld %lld", &Src, &Dst, &W);
    Sink += Src + Dst + W;
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace perfbench
