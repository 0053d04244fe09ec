// Seeded input generation: every size and payload byte a workload sends
// is a pure function of (--seed, workload), so the same seed gives the
// same inputs and the simulator receives nothing else.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and good enough to draw sizes and bytes.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream for `purpose` from the run seed.
inline std::uint64_t derive_seed(std::uint64_t seed,
                                 std::uint64_t purpose) noexcept {
  SeededRng rng(seed ^ (purpose * 0xd6e8feb86659fd93ull));
  return rng.next();
}

/// A size drawn uniformly within +-50 % of `nominal` (both ends included).
inline std::size_t draw_size(SeededRng& rng, std::size_t nominal) noexcept {
  const std::size_t low = nominal - nominal / 2;
  const std::size_t high = nominal + nominal / 2;
  return low + std::size_t(rng.below(high - low + 1));
}

/// Every RPC of a run: request and response sizes plus where their bytes
/// come from in the seeded arena. A request carries its own index in its
/// first 8 bytes (little endian) so the server and client can check the
/// content against the plan; the rest is arena bytes.
struct RpcPlan {
  std::uint32_t request_len = 0;
  std::uint32_t response_len = 0;
  std::uint32_t request_off = 0;
  std::uint32_t response_off = 0;
};

constexpr std::size_t kIndexBytes = 8;

class InputPlan {
 public:
  /// `count` RPCs with sizes within +-50 % of the nominal ones. Requests
  /// are never shorter than the index they carry.
  InputPlan(std::uint64_t seed, std::size_t count, std::size_t request_nominal,
            std::size_t response_nominal) {
    SeededRng rng(derive_seed(seed, 1));
    const std::size_t arena_size =
        2 * (request_nominal + response_nominal) + (std::size_t(1) << 16);
    arena_.resize(arena_size);
    for (std::size_t i = 0; i < arena_size; i += 8) {
      const std::uint64_t word = rng.next();
      std::memcpy(arena_.data() + i, &word,
                  std::min<std::size_t>(8, arena_size - i));
    }
    plans_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      RpcPlan plan;
      plan.request_len = std::uint32_t(
          std::max(kIndexBytes, draw_size(rng, request_nominal)));
      plan.response_len = std::uint32_t(draw_size(rng, response_nominal));
      plan.request_off = std::uint32_t(
          rng.below(arena_size - (plan.request_len - kIndexBytes) + 1));
      plan.response_off =
          std::uint32_t(rng.below(arena_size - plan.response_len + 1));
      plans_.push_back(plan);
    }
  }

  std::size_t size() const noexcept { return plans_.size(); }
  const RpcPlan& plan(std::size_t i) const { return plans_.at(i); }

  /// The request bytes of RPC `i`.
  std::vector<std::uint8_t> request(std::size_t i) const {
    const RpcPlan& p = plans_.at(i);
    std::vector<std::uint8_t> out(p.request_len);
    const std::uint64_t index = i;
    std::memcpy(out.data(), &index, kIndexBytes);
    std::memcpy(out.data() + kIndexBytes, arena_.data() + p.request_off,
                p.request_len - kIndexBytes);
    return out;
  }

  /// The response bytes RPC `i` must come back with.
  std::span<const std::uint8_t> response(std::size_t i) const {
    const RpcPlan& p = plans_.at(i);
    return {arena_.data() + p.response_off, p.response_len};
  }

  /// Index carried by a request, or size() when it is too short or out
  /// of range.
  std::size_t index_of(std::span<const std::uint8_t> request) const noexcept {
    if (request.size() < kIndexBytes) return plans_.size();
    std::uint64_t index = 0;
    std::memcpy(&index, request.data(), kIndexBytes);
    return index < plans_.size() ? std::size_t(index) : plans_.size();
  }

  /// Whether `request` is exactly the bytes planned for its index.
  bool request_matches(std::span<const std::uint8_t> request) const {
    const std::size_t i = index_of(request);
    if (i == plans_.size()) return false;
    const RpcPlan& p = plans_[i];
    return request.size() == p.request_len &&
           std::memcmp(request.data() + kIndexBytes,
                       arena_.data() + p.request_off,
                       p.request_len - kIndexBytes) == 0;
  }

  /// Whether `response` is exactly the bytes planned for RPC `i`.
  bool response_matches(std::size_t i,
                        std::span<const std::uint8_t> response) const {
    const std::span<const std::uint8_t> want = this->response(i);
    return response.size() == want.size() &&
           std::memcmp(response.data(), want.data(), want.size()) == 0;
  }

 private:
  std::vector<std::uint8_t> arena_;
  std::vector<RpcPlan> plans_;
};

}  // namespace perfbench
