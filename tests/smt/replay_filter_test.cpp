#include "smt/replay_filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "common/rng.hpp"

namespace smt::proto {
namespace {

TEST(MessageIdFilter, AcceptsFreshIds) {
  MessageIdFilter filter;
  EXPECT_TRUE(filter.accept(0));
  EXPECT_TRUE(filter.accept(1));
  EXPECT_TRUE(filter.accept(2));
}

TEST(MessageIdFilter, RejectsReplays) {
  MessageIdFilter filter;
  EXPECT_TRUE(filter.accept(0));
  EXPECT_FALSE(filter.accept(0));
  EXPECT_TRUE(filter.accept(1));
  EXPECT_FALSE(filter.accept(0));
  EXPECT_FALSE(filter.accept(1));
}

TEST(MessageIdFilter, OutOfOrderAccepted) {
  // Unordered message delivery is the point of SMT (§4.4): out-of-order
  // fresh IDs are fine; only REPEATED IDs are replays.
  MessageIdFilter filter;
  EXPECT_TRUE(filter.accept(5));
  EXPECT_TRUE(filter.accept(3));
  EXPECT_TRUE(filter.accept(4));
  EXPECT_TRUE(filter.accept(0));
  EXPECT_FALSE(filter.accept(5));
  EXPECT_FALSE(filter.accept(3));
  EXPECT_TRUE(filter.accept(1));
}

TEST(MessageIdFilter, CompactsContiguousRuns) {
  MessageIdFilter filter;
  // Arrive out of order: 1..9 then 0 — everything folds into the mark.
  for (std::uint64_t id = 1; id < 10; ++id) EXPECT_TRUE(filter.accept(id));
  EXPECT_EQ(filter.low_water_mark(), 0u);
  EXPECT_EQ(filter.sparse_size(), 9u);
  EXPECT_TRUE(filter.accept(0));
  EXPECT_EQ(filter.low_water_mark(), 10u);
  EXPECT_EQ(filter.sparse_size(), 0u);
}

TEST(MessageIdFilter, MemoryBoundedUnderInOrderTraffic) {
  MessageIdFilter filter;
  for (std::uint64_t id = 0; id < 100000; ++id) {
    ASSERT_TRUE(filter.accept(id));
  }
  EXPECT_EQ(filter.sparse_size(), 0u);
  EXPECT_EQ(filter.low_water_mark(), 100000u);
}

TEST(MessageIdFilter, SeenQueryDoesNotMutate) {
  MessageIdFilter filter;
  filter.accept(2);
  EXPECT_TRUE(filter.seen(2));
  EXPECT_FALSE(filter.seen(3));
  EXPECT_TRUE(filter.accept(3));  // seen() didn't record it
}

TEST(MessageIdFilter, ResetClearsState) {
  MessageIdFilter filter;
  filter.accept(0);
  filter.accept(5);
  filter.reset();
  EXPECT_TRUE(filter.accept(0));
  EXPECT_TRUE(filter.accept(5));
  EXPECT_EQ(filter.low_water_mark(), 1u);
}

TEST(MessageIdFilter, RandomPermutationAllAcceptedOnceOnly) {
  // Property: over any arrival permutation, each ID is accepted exactly
  // once and replays always rejected.
  constexpr std::uint64_t kN = 1000;
  std::vector<std::uint64_t> ids(kN);
  for (std::uint64_t i = 0; i < kN; ++i) ids[i] = i;
  Rng rng(99);
  for (std::size_t i = kN; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.next_below(i)]);
  }
  MessageIdFilter filter;
  for (const auto id : ids) EXPECT_TRUE(filter.accept(id));
  EXPECT_EQ(filter.low_water_mark(), kN);
  EXPECT_EQ(filter.sparse_size(), 0u);
  for (const auto id : ids) EXPECT_FALSE(filter.accept(id));
}

TEST(MessageIdFilter, RandomStreamMatchesSetReference) {
  // Differential check against the obvious model: a set of every ID ever
  // accepted. Streams mix in-order runs, reordering within a window and
  // replays of old IDs; accept, seen and sparse_size must agree with the
  // model after every arrival.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    MessageIdFilter filter;
    std::set<std::uint64_t> accepted;
    std::uint64_t low_water = 0;  // smallest ID not yet accepted
    std::uint64_t cursor = 0;     // the sender's allocation front
    Rng rng(seed);
    for (int step = 0; step < 3000; ++step) {
      std::uint64_t id = cursor;
      const std::uint64_t kind = rng.next_below(10);
      if (kind < 5) {
        ++cursor;  // in order
      } else if (kind < 8) {
        id += rng.next_below(24);  // ahead of the front
      } else {
        id -= std::min<std::uint64_t>(cursor, rng.next_below(48));  // behind
      }
      const bool fresh = accepted.insert(id).second;
      ASSERT_EQ(filter.accept(id), fresh)
          << "seed " << seed << " step " << step;
      while (accepted.count(low_water) != 0) ++low_water;
      ASSERT_EQ(filter.low_water_mark(), low_water);
      const auto sparse = std::size_t(
          std::distance(accepted.lower_bound(low_water), accepted.end()));
      ASSERT_EQ(filter.sparse_size(), sparse);
      for (int probe = 0; probe < 4; ++probe) {
        // Probe around the low-water mark, below and above it.
        const std::uint64_t q = low_water + rng.next_below(40) -
                                std::min<std::uint64_t>(low_water, 8);
        ASSERT_EQ(filter.seen(q), accepted.count(q) != 0)
            << "seed " << seed << " step " << step << " id " << q;
      }
    }
  }
}

}  // namespace
}  // namespace smt::proto
