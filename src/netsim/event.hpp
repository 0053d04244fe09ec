// Deterministic discrete-event loop with a virtual nanosecond clock.
//
// Single-threaded by design: determinism is what lets every bench and test
// reproduce bit-for-bit (docs/determinism.md). Ties are broken by
// insertion order, so identical schedules replay identically.
//
// The engine is built for wall-clock speed — the simulator schedules one
// event per packet hop, CPU charge, and timer, so the per-event constant
// is the simulator's own throughput ceiling:
//
//   * EventCallback is a move-only callable with a 48-byte small-buffer
//     store: the common capture sets (this + a key + a couple of scalars,
//     or a wrapped std::function) run with ZERO heap allocations per
//     scheduled event. Larger captures fall back to one heap cell.
//   * Events live in a free-listed pool; the priority queue is a monotone
//     radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990) keyed on `when`
//     alone. Bucket b > 0 holds the keys whose highest bit differing from
//     `last_` is bit b-1; bucket 0 is the FIFO of events at exactly
//     `last_`. Each bucket is a FIFO list threaded through a 16-byte
//     (when, next) link array that runs parallel to the pool, so the queue
//     grows only when the pool does and bucket walks stay dense.
//     A push is one XOR, one count-leading-zeros and a tail link; a pop
//     that finds bucket 0 empty redistributes the lowest non-empty bucket
//     around its minimum, so an event moves at most 64 times however long
//     it waits (a 5 ms timer among nanosecond packet hops). No
//     (when, seq) comparisons, no sifting.
//
// FIFO order among equal timestamps follows from the bucket invariant
// rather than from a sequence field: equal keys always share a bucket in
// insertion order, and redistribution preserves the order it finds. A
// schedule therefore runs in (when, insertion order), the contract that
// tests/netsim/event_test.cpp checks against a reference queue.
//
// The one rule the bounded runs keep: `last_` advances only to a time
// that is about to run. run_until, run_ready_before and earliest() peek
// past their bound without redistributing, because a caller may still
// insert at any time >= now() — below the next pending event — and the
// radix heap only accepts keys >= last_.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace smt::sim {

/// Move-only type-erased void() callable with small-buffer optimisation.
/// Captures up to kInlineCapacity bytes (and max_align_t alignment, and a
/// noexcept move) are stored in line — no allocation per scheduled event.
class EventCallback {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Decayed = std::decay_t<F>;
    if constexpr (fits_inline<Decayed>()) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
      ops_ = &inline_ops<Decayed>;
    } else {
      ::new (static_cast<void*>(storage_))
          Decayed*(new Decayed(std::forward<F>(fn)));
      ops_ = &heap_ops<Decayed>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventCallback");
    ops_->invoke(storage_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct into `dst` from `src`, then destroy `src`'s value.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineCapacity &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  static constexpr Ops inline_ops = {
      [](void* storage) { (*static_cast<F*>(storage))(); },
      [](void* src, void* dst) noexcept {
        F* from = static_cast<F*>(src);
        ::new (dst) F(std::move(*from));
        from->~F();
      },
      [](void* storage) noexcept { static_cast<F*>(storage)->~F(); },
  };

  template <typename F>
  static constexpr Ops heap_ops = {
      [](void* storage) { (**static_cast<F**>(storage))(); },
      [](void* src, void* dst) noexcept {
        ::new (dst) F*(*static_cast<F**>(src));
      },
      [](void* storage) noexcept { delete *static_cast<F**>(storage); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

class EventLoop {
 public:
  using Callback = EventCallback;

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` nanoseconds from now (>= 0).
  void schedule(SimDuration delay, Callback fn) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedules `fn` at an absolute virtual time (clamped to now).
  void schedule_at(SimTime when, Callback fn) {
    if (when < now_) when = now_;
    std::uint32_t index;
    if (free_head_ != kNone) {
      index = free_head_;
      free_head_ = links_[index].next;
      pool_[index] = std::move(fn);
    } else {
      index = std::uint32_t(pool_.size());
      pool_.push_back(std::move(fn));
      links_.emplace_back();
    }
    links_[index].when = when;
    push(index);
    ++size_;
  }

  /// Runs events until the queue drains or `deadline` passes.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime deadline) {
    std::size_t executed = 0;
    while (size_ != 0 && earliest() <= deadline && !stopped_) {
      run_top();
      ++executed;
    }
    if (now_ < deadline && !stopped_) now_ = deadline;
    return executed;
  }

  /// Runs until the queue is empty (or stop() is called).
  std::size_t run() {
    std::size_t executed = 0;
    while (size_ != 0 && !stopped_) {
      run_top();
      ++executed;
    }
    return executed;
  }

  /// Sentinel returned by earliest() when no events are pending.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  /// Timestamp of the earliest pending event, or kNoEvent. The sharded
  /// engine's coordinator uses this to pick each barrier window's floor.
  /// A peek: it reads the lowest non-empty bucket's minimum and never
  /// redistributes, so `last_` stays put.
  SimTime earliest() const noexcept {
    if (buckets_[0].head != kNone) return last_;
    if (occupied_ == 0) return kNoEvent;
    return buckets_[std::size_t(std::countr_zero(occupied_)) + 1].min;
  }

  /// Runs every event with `when` STRICTLY before `horizon`, then stops.
  /// Unlike run_until, now() is NOT advanced to the horizon: it stays at
  /// the last executed event, so a cross-shard arrival scheduled later for
  /// any time >= horizon is never clamped forward. This is the per-window
  /// drive of the sharded engine (see netsim/shard.hpp); single-threaded
  /// callers keep using run()/run_until, whose behaviour is unchanged.
  std::size_t run_ready_before(SimTime horizon) {
    std::size_t executed = 0;
    while (size_ != 0 && earliest() < horizon && !stopped_) {
      run_top();
      ++executed;
    }
    return executed;
  }

  /// Stops the loop from inside a callback.
  void stop() noexcept { stopped_ = true; }
  bool stopped() const noexcept { return stopped_; }
  void reset_stop() noexcept { stopped_ = false; }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t pending() const noexcept { return size_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  // Bucket 0 plus one per bit of a 64-bit key.
  static constexpr std::size_t kBuckets = 65;

  /// Queue state of pool slot i, kept apart from the closures so bucket
  /// walks touch 16 bytes per event.
  struct Link {
    SimTime when = 0;
    // While queued: the next event in the same bucket. While free: the
    // next free slot.
    std::uint32_t next = kNone;
  };
  /// FIFO list of pool indices, and the smallest key it holds.
  struct Bucket {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    SimTime min = kNoEvent;
  };

  /// Appends pool slot `index` to the bucket of its key.
  void push(std::uint32_t index) {
    Link& link = links_[index];
    assert(link.when >= last_ && "radix heap key below last_");
    link.next = kNone;
    // Bucket 0 when the key equals last_, else one plus the highest bit
    // in which it differs from last_.
    const std::size_t b = std::size_t(
        std::bit_width(std::uint64_t(link.when) ^ std::uint64_t(last_)));
    Bucket& bucket = buckets_[b];
    if (bucket.head == kNone) {
      bucket.head = index;
    } else {
      links_[bucket.tail].next = index;
    }
    bucket.tail = index;
    if (b != 0) {
      bucket.min = std::min(bucket.min, link.when);
      occupied_ |= std::uint64_t(1) << (b - 1);
    }
  }

  /// Bucket 0 is empty: advances last_ to the minimum of the lowest
  /// non-empty bucket and spreads that bucket over the lower ones, in the
  /// order it holds its events. Only called for an event about to run.
  void redistribute() {
    const std::size_t b = std::size_t(std::countr_zero(occupied_)) + 1;
    const Bucket from = buckets_[b];
    buckets_[b] = Bucket{};
    occupied_ &= ~(std::uint64_t(1) << (b - 1));
    last_ = from.min;
    for (std::uint32_t index = from.head; index != kNone;) {
      const std::uint32_t next = links_[index].next;
      push(index);
      index = next;
    }
  }

  /// Pops and runs the earliest event. The callback is moved out (never
  /// copied) and its pool slot is recycled before it runs, so a callback
  /// that schedules new events reuses the hottest slot.
  void run_top() {
    if (buckets_[0].head == kNone) redistribute();
    const std::uint32_t index = buckets_[0].head;
    Link& link = links_[index];
    buckets_[0].head = link.next;
    --size_;
    now_ = link.when;
    Callback fn = std::move(pool_[index]);
    link.next = free_head_;
    free_head_ = index;
    fn();
  }

  SimTime now_ = 0;
  SimTime last_ = 0;  // every pending key is >= last_; last_ <= now_
  bool stopped_ = false;
  std::size_t size_ = 0;
  std::uint64_t occupied_ = 0;  // bit b-1 set: bucket b > 0 is non-empty
  std::array<Bucket, kBuckets> buckets_;
  std::vector<Callback> pool_;  // free-listed closure storage
  std::vector<Link> links_;     // parallel to pool_
  std::uint32_t free_head_ = kNone;
};

/// Schedules a callback onto ANOTHER shard's event loop at an absolute
/// virtual time — a cross-shard mailbox post (netsim/shard.hpp). A link
/// direction or switch egress port wired with one of these delivers into
/// the remote shard's mailbox instead of scheduling locally; the stamped
/// time must respect the engine's lookahead contract.
using RemoteScheduler = std::function<void(SimTime when, EventCallback fn)>;

}  // namespace smt::sim
