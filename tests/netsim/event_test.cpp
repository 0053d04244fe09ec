#include "netsim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace smt::sim {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(usec(3), [&] { order.push_back(3); });
  loop.schedule(usec(1), [&] { order.push_back(1); });
  loop.schedule(usec(2), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), usec(3));
}

TEST(EventLoop, FifoAmongSameTimeEvents) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(usec(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  std::vector<SimTime> times;
  loop.schedule(usec(1), [&] {
    times.push_back(loop.now());
    loop.schedule(usec(1), [&] { times.push_back(loop.now()); });
  });
  loop.run();
  EXPECT_EQ(times, (std::vector<SimTime>{usec(1), usec(2)}));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.schedule(usec(1), [&] { ++count; });
  loop.schedule(usec(10), [&] { ++count; });
  const std::size_t executed = loop.run_until(usec(5));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), usec(5));
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, StopFromCallback) {
  EventLoop loop;
  int count = 0;
  loop.schedule(usec(1), [&] {
    ++count;
    loop.stop();
  });
  loop.schedule(usec(2), [&] { ++count; });
  loop.run();
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(loop.stopped());
  loop.reset_stop();
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, NegativeDelayClamped) {
  EventLoop loop;
  bool ran = false;
  loop.schedule(-100, [&] { ran = true; });
  loop.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now(), 0);
}

TEST(EventLoop, ScheduleAtPastClamped) {
  EventLoop loop;
  std::vector<SimTime> times;
  loop.schedule(usec(5), [&] {
    loop.schedule_at(usec(1), [&] { times.push_back(loop.now()); });
  });
  loop.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], usec(5));  // not in the past
}

namespace {
/// Counts copies/moves through the scheduling pipeline. The old
/// priority_queue engine copied queue_.top() before popping — a full
/// deep copy of the callback (and anything it captured) per event run.
struct CopyCounter {
  int* copies;
  int* moves;
  explicit CopyCounter(int* c, int* m) : copies(c), moves(m) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies), moves(other.moves) {
    ++*copies;
  }
  CopyCounter(CopyCounter&& other) noexcept
      : copies(other.copies), moves(other.moves) {
    ++*moves;
  }
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  void operator()() const {}
};

/// Same, but too big for the 48-byte inline store — exercises the heap
/// fallback, which must ALSO never copy (it relocates by pointer).
struct BigCopyCounter : CopyCounter {
  using CopyCounter::CopyCounter;
  std::uint64_t pad[8] = {};
};
}  // namespace

TEST(EventLoop, PopByMoveNeverCopiesInlineCallbacks) {
  static_assert(sizeof(CopyCounter) <= EventCallback::kInlineCapacity);
  EventLoop loop;
  int copies = 0, moves = 0;
  for (int i = 0; i < 100; ++i) {
    loop.schedule(usec(std::int64_t(i % 7)), CopyCounter(&copies, &moves));
  }
  loop.run();
  EXPECT_EQ(copies, 0) << "an event-engine stage copied a callback";
  EXPECT_GT(moves, 0);  // moved through schedule -> pool -> run, never copied
}

TEST(EventLoop, PopByMoveNeverCopiesHeapCallbacks) {
  static_assert(sizeof(BigCopyCounter) > EventCallback::kInlineCapacity);
  EventLoop loop;
  int copies = 0, moves = 0;
  for (int i = 0; i < 100; ++i) {
    loop.schedule(usec(std::int64_t(i % 7)), BigCopyCounter(&copies, &moves));
  }
  loop.run();
  EXPECT_EQ(copies, 0) << "the heap fallback copied a callback";
}

TEST(EventLoop, PoolReuseSurvivesChurn) {
  // Self-rescheduling chains churn the free-listed pool; order and count
  // must match the naive engine exactly.
  EventLoop loop;
  std::vector<int> order;
  std::function<void(int, int)> chain = [&](int id, int left) {
    order.push_back(id);
    if (left > 0) {
      loop.schedule(usec(1), [&chain, id, left] { chain(id, left - 1); });
    }
  };
  for (int id = 0; id < 4; ++id) {
    loop.schedule(usec(1), [&chain, id] { chain(id, 50); });
  }
  const std::size_t executed = loop.run();
  EXPECT_EQ(executed, 4u * 51u);
  ASSERT_EQ(order.size(), 4u * 51u);
  // FIFO tie-break: within every virtual timestamp the four chains run in
  // id order (they were scheduled in id order).
  for (std::size_t step = 0; step < order.size(); step += 4) {
    for (int id = 0; id < 4; ++id) {
      EXPECT_EQ(order[step + std::size_t(id)], id) << "at step " << step;
    }
  }
}

TEST(EventLoop, PendingCount) {
  EventLoop loop;
  EXPECT_TRUE(loop.empty());
  loop.schedule(usec(1), [] {});
  loop.schedule(usec(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_TRUE(loop.empty());
}


TEST(EventLoop, InsertBelowNextPendingAfterBoundedRuns) {
  // A bounded run peeks at the next pending event (10 us) without running
  // it; inserts between the bound and that event must still run first.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(usec(10), [&] { order.push_back(10); });
  loop.run_until(usec(2));
  EXPECT_EQ(loop.earliest(), usec(10));
  loop.schedule_at(usec(3), [&] { order.push_back(3); });
  EXPECT_EQ(loop.earliest(), usec(3));
  loop.run_ready_before(usec(4));
  EXPECT_EQ(loop.now(), usec(3));
  // The mailbox-drain pattern: posts at or after the horizon.
  loop.schedule_at(usec(4), [&] { order.push_back(4); });
  loop.schedule_at(usec(3), [&] { order.push_back(33); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{3, 33, 4, 10}));
}

namespace {

/// The ordering contract spelled out directly: a queue keyed by
/// (when, insertion index) with the same clamp, bound and stop rules as
/// EventLoop. The differential test below runs every schedule on both.
class ReferenceLoop {
 public:
  SimTime now() const { return now_; }
  SimTime earliest() const {
    return events_.empty() ? EventLoop::kNoEvent : events_.begin()->first.first;
  }
  std::size_t pending() const { return events_.size(); }
  void schedule_at(SimTime when, std::function<void()> fn) {
    events_.emplace(std::pair{std::max(when, now_), next_index_++},
                    std::move(fn));
  }
  std::size_t run_until(SimTime deadline) {
    const std::size_t executed =
        drain([deadline](SimTime when) { return when <= deadline; });
    if (now_ < deadline && !stopped_) now_ = deadline;
    return executed;
  }
  std::size_t run_ready_before(SimTime horizon) {
    return drain([horizon](SimTime when) { return when < horizon; });
  }
  std::size_t run() {
    return drain([](SimTime) { return true; });
  }
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  void reset_stop() { stopped_ = false; }

 private:
  template <typename Ready>
  std::size_t drain(Ready ready) {
    std::size_t executed = 0;
    while (!events_.empty() && ready(events_.begin()->first.first) &&
           !stopped_) {
      auto node = events_.extract(events_.begin());
      now_ = node.key().first;
      node.mapped()();
      ++executed;
    }
    return executed;
  }

  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint64_t next_index_ = 0;
  std::map<std::pair<SimTime, std::uint64_t>, std::function<void()>> events_;
};

/// Delay mix of the simulator: same instant, +1 ns, nanosecond hops, the
/// 5 ms Homa backstop, and arbitrary timers up to 10 ms.
SimDuration draw_delay(Rng& rng) {
  switch (rng.next_below(5)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return SimDuration(rng.next_below(2000));
    case 3: return msec(5);
    default: return SimDuration(rng.next_below(std::uint64_t(msec(10))));
  }
}

/// Runs one seeded random schedule and returns its trace: (id, now) for
/// every executed event, and (-1, op, executed, now, earliest, pending)
/// after every top-level step. Each event's own actions — nested schedules,
/// stop() — come from an Rng keyed by its id, so two loops that execute
/// the same events in the same order produce identical traces.
template <typename Loop>
std::vector<SimTime> run_schedule(std::uint64_t seed) {
  Loop loop;
  Rng steps(seed);
  std::vector<SimTime> trace;
  std::uint64_t next_id = 0;
  std::function<void(SimTime)> add = [&](SimTime when) {
    const std::uint64_t id = next_id++;
    loop.schedule_at(when, [&, id] {
      trace.push_back(SimTime(id));
      trace.push_back(loop.now());
      Rng own(mix_seed(seed, id));
      const std::uint64_t roll = own.next_below(20);
      const int children = roll < 9 ? 0 : roll < 17 ? 1 : 2;  // mean 0.75
      for (int c = 0; c < children; ++c) add(loop.now() + draw_delay(own));
      if (own.chance(0.01)) loop.stop();
    });
  };
  // Inserts `count` events spread over [lo, hi), or at lo when empty.
  auto add_between = [&](SimTime lo, SimTime hi, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      add(hi > lo ? lo + SimTime(steps.next_below(std::uint64_t(hi - lo)))
                  : lo);
    }
  };
  auto record = [&](SimTime op, std::size_t executed) {
    trace.insert(trace.end(), {-1, op, SimTime(executed), loop.now(),
                               loop.earliest(), SimTime(loop.pending())});
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = steps.next_below(6);
    std::size_t executed = 0;
    switch (op) {
      case 0: {  // same-timestamp burst
        const SimTime when = loop.now() + draw_delay(steps);
        for (std::uint64_t i = 0, n = 1 + steps.next_below(8); i < n; ++i) {
          add(when);
        }
        break;
      }
      case 1:
        add(loop.now() + draw_delay(steps));
        break;
      case 2: {  // run_until(d), then inserts in [d, next pending)
        const SimTime deadline = loop.now() + draw_delay(steps);
        executed = loop.run_until(deadline);
        add_between(deadline, std::min(loop.earliest(), deadline + msec(6)),
                    1 + steps.next_below(4));
        break;
      }
      case 3: {  // run_ready_before(h), then the mailbox drain: [h, next)
        const SimTime floor =
            loop.pending() == 0 ? loop.now() : loop.earliest();
        const SimTime horizon = floor + SimTime(steps.next_below(3000));
        executed = loop.run_ready_before(horizon);
        add_between(horizon, std::min(loop.earliest(), horizon + msec(6)),
                    1 + steps.next_below(4));
        add_between(loop.now(), horizon, steps.next_below(2));
        break;
      }
      case 4:
        executed = loop.run_until(loop.earliest() == EventLoop::kNoEvent
                                      ? loop.now()
                                      : loop.earliest());
        break;
      default:
        if (loop.pending() < 64) executed = loop.run();
        break;
    }
    record(SimTime(op), executed);
    if (loop.stopped()) {
      trace.push_back(-2);
      loop.reset_stop();
    }
  }
  record(-1, loop.run());
  return trace;
}

}  // namespace

TEST(EventLoop, DifferentialAgainstInsertionOrderedReference) {
  std::ptrdiff_t stops = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<SimTime> expected = run_schedule<ReferenceLoop>(seed);
    const std::vector<SimTime> actual = run_schedule<EventLoop>(seed);
    ASSERT_GT(expected.size(), 4000u) << "seed " << seed;
    stops += std::count(expected.begin(), expected.end(), SimTime(-2));
    const auto diverged =
        std::mismatch(expected.begin(), expected.end(), actual.begin(),
                      actual.end());
    ASSERT_TRUE(diverged.first == expected.end() &&
                diverged.second == actual.end())
        << "seed " << seed << ": traces diverge at entry "
        << (diverged.first - expected.begin()) << " of " << expected.size();
  }
  EXPECT_GT(stops, 0) << "no schedule exercised stop()/reset_stop()";
}

}  // namespace
}  // namespace smt::sim
