#include "ref_loop.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kWords = std::size_t(1) << 17;  // 1 MiB per buffer

std::uint64_t mix_integers() {
  std::uint64_t x = 1;
  for (int i = 0; i < 2'000'000; ++i) {
    x = x * 6364136223846793005ull + (x >> 17);
  }
  return x;
}

std::uint64_t churn_map() {
  std::map<std::uint64_t, std::vector<char>> table;
  std::uint64_t x = 1;
  for (int i = 0; i < 40'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t key = (x >> 33) % 4096;
    const auto it = table.find(key);
    if (it == table.end()) {
      table.emplace(key, std::vector<char>(48 + (x & 63)));
    } else {
      table.erase(it);
    }
  }
  return table.size();
}

std::uint64_t stream_buffers(std::vector<std::uint64_t>& a,
                             std::vector<std::uint64_t>& b) {
  for (std::uint64_t round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < kWords; ++i) {
      b[i] ^= a[(i * 7) & (kWords - 1)] + round;
    }
    std::memcpy(a.data(), b.data(), kWords * sizeof(std::uint64_t));
  }
  return a[5];
}

volatile std::uint64_t g_sink = 0;  // keeps every pass's result alive

}  // namespace

double run_ref_loop() {
  // Allocated once, so no pass pays for fresh pages.
  static std::vector<std::uint64_t> a(kWords, 1), b(kWords, 2);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t result = mix_integers() + churn_map() +
                               stream_buffers(a, b);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  g_sink = g_sink + result;
  return seconds;
}

}  // namespace perfbench
