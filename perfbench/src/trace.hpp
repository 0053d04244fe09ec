// Wall-time spans and allocation counts, recorded from the benchmark's
// own code around each call into a simulator layer.
//
// A span's self time is its duration minus the part of it that its child
// spans on the same thread cover. Spans nest as the call graph does:
//
//   setup.topology | setup.fabric | setup.channels    (driving thread)
//   netsim.run  -> apps.done -> apps.call            (completion issues
//               -> apps.handler                       the next request)
//
// On a sharded engine the completions and handlers run on the worker
// threads, while netsim.run is open on the driving thread; those spans
// are children of netsim.run on another thread (see Ledger in main.cpp
// for how their time is charged).
//
// Every operator new in the process is attributed to the innermost open
// span of the allocating thread, or to the current phase's layer when the
// thread has none open (a shard worker between callbacks is inside
// netsim.run). Recording is off unless set_tracing(true): an untraced
// run pays one relaxed load per span and per allocation.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  none,
  setup_topology,
  setup_fabric,
  setup_channels,
  run,
  call,
  handler,
  done,
};
constexpr std::size_t kLayerCount = 8;

constexpr const char* layer_name(Layer layer) noexcept {
  constexpr const char* kNames[kLayerCount] = {
      "unattributed",   "setup.topology", "setup.fabric", "setup.channels",
      "netsim.run",     "apps.call",      "apps.handler", "apps.done"};
  return kNames[std::size_t(layer)];
}

struct LayerTotals {
  std::uint64_t self_ns = 0;  // durations minus same-thread children
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

/// One thread's open spans and totals. Times are passed in, so the
/// self-time rule is testable without a clock.
class SpanStack {
 public:
  void open(Layer layer, std::uint64_t now_ns) noexcept {
    if (depth_ == kMaxDepth) {
      ++overflow_;
      return;
    }
    open_[depth_++] = Open{layer, now_ns, 0};
  }

  void close(std::uint64_t now_ns) noexcept {
    if (overflow_ > 0) {
      --overflow_;
      return;
    }
    if (depth_ == 0) return;
    const Open span = open_[--depth_];
    const std::uint64_t duration = now_ns - span.start_ns;
    LayerTotals& t = totals_[std::size_t(span.layer)];
    t.self_ns += duration - span.child_ns;
    if (depth_ > 0) {
      open_[depth_ - 1].child_ns += duration;
    } else {
      root_ns_ += duration;
    }
  }

  /// Innermost open layer, or `fallback` when none is open.
  Layer current(Layer fallback) const noexcept {
    return depth_ == 0 ? fallback : open_[depth_ - 1].layer;
  }

  void note_alloc(Layer layer, std::size_t bytes) noexcept {
    LayerTotals& t = totals_[std::size_t(layer)];
    ++t.allocs;
    t.alloc_bytes += bytes;
  }

  const std::array<LayerTotals, kLayerCount>& totals() const noexcept {
    return totals_;
  }
  /// Summed durations of spans closed with no parent on this thread —
  /// equal to the sum of every span's self time.
  std::uint64_t root_ns() const noexcept { return root_ns_; }

  void reset() noexcept {
    totals_ = {};
    root_ns_ = 0;
  }

 private:
  struct Open {
    Layer layer = Layer::none;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
  };
  static constexpr std::size_t kMaxDepth = 16;

  std::array<Open, kMaxDepth> open_{};
  std::size_t depth_ = 0;
  std::size_t overflow_ = 0;
  std::array<LayerTotals, kLayerCount> totals_{};
  std::uint64_t root_ns_ = 0;
};

inline std::uint64_t wall_ns() noexcept {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

// --- process-wide recorder (alloc_count.cpp) --------------------------------

bool tracing() noexcept;
void set_tracing(bool on) noexcept;
/// Layer charged for allocations on a thread with no open span.
void set_phase(Layer layer) noexcept;
void open_span(Layer layer) noexcept;
void close_span() noexcept;

/// Per-thread totals since the last reset.
struct ThreadTotals {
  bool main_thread = false;  // the thread that drives the run
  std::array<LayerTotals, kLayerCount> layers{};
  std::uint64_t root_ns = 0;
};
std::vector<ThreadTotals> thread_totals();
/// Zeroes the driving thread's totals and forgets every other thread's.
/// Call only while no other thread records (between engine runs, whose
/// shard workers have been joined).
void reset_totals();

/// RAII span around one call into a layer; free when tracing is off.
class Span {
 public:
  explicit Span(Layer layer) : active_(tracing()) {
    if (active_) open_span(layer);
  }
  ~Span() {
    if (active_) close_span();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace perfbench
