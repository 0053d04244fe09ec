#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <new>

#include "common/bytes.hpp"
#include "common/rng.hpp"

// Counts every global allocation in this test binary, so a test can show
// that an empty table allocates nothing.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Sanitizer runtimes supply an array form that bypasses operator new.
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace smt {
namespace {

// Sends every key to one of the last three slots: probe runs are as long
// as the table is full and wrap from the end of the array to its start.
struct CollidingHash {
  std::uint64_t operator()(std::uint64_t key) const noexcept {
    return ~std::uint64_t{0} - key % 3;
  }
};

// Replays `ops` seeded random try_emplace/find/erase operations on a
// FlatMap and on std::map and requires identical answers after each one.
// Keys come from [0, key_range), so hits, misses and re-inserts all occur.
template <class Hash>
void differential_run(std::uint64_t seed, std::uint64_t key_range, int ops) {
  FlatMap<std::uint64_t, std::uint64_t, Hash> table;
  std::map<std::uint64_t, std::uint64_t> reference;
  Rng rng(seed);
  for (int step = 0; step < ops; ++step) {
    const std::uint64_t key = rng.next_below(key_range);
    const std::uint64_t op = rng.next_below(8);
    if (op < 3) {
      const std::uint64_t value = rng.next();
      const auto [stored, inserted] = table.try_emplace(key, value);
      const auto [ref, ref_inserted] = reference.try_emplace(key, value);
      ASSERT_EQ(inserted, ref_inserted) << "seed " << seed << " step " << step;
      ASSERT_EQ(*stored, ref->second) << "seed " << seed << " step " << step;
    } else if (op < 6) {
      ASSERT_EQ(table.erase(key), reference.erase(key) == 1)
          << "seed " << seed << " step " << step;
    } else {
      const std::uint64_t* found = table.find(key);
      const auto ref = reference.find(key);
      ASSERT_EQ(found != nullptr, ref != reference.end())
          << "seed " << seed << " step " << step;
      if (found != nullptr) {
        ASSERT_EQ(*found, ref->second);
      }
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  // Every key of the range, present or not, answers as the reference does.
  for (std::uint64_t key = 0; key < key_range; ++key) {
    const std::uint64_t* found = table.find(key);
    const auto ref = reference.find(key);
    ASSERT_EQ(found != nullptr, ref != reference.end()) << "key " << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, ref->second) << "key " << key;
    }
  }
}

TEST(FlatMap, RandomOperationsMatchStdMap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    differential_run<FlatHash<std::uint64_t>>(seed, 64, 4000);
    differential_run<FlatHash<std::uint64_t>>(seed, 4096, 20000);
  }
}

TEST(FlatMap, LongProbeChainsAndWrapAroundMatchStdMap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    differential_run<CollidingHash>(seed, 48, 4000);
    differential_run<CollidingHash>(seed, 300, 6000);
  }
}

TEST(FlatMap, EraseOfAbsentKeysChangesNothing) {
  FlatMap<std::uint64_t, int, CollidingHash> table;
  EXPECT_FALSE(table.erase(7));  // empty, no storage yet
  for (std::uint64_t key = 0; key < 5; ++key) table.try_emplace(key, int(key));
  EXPECT_FALSE(table.erase(7));
  EXPECT_FALSE(table.erase(100));
  EXPECT_EQ(table.size(), 5u);
  EXPECT_TRUE(table.erase(2));
  EXPECT_FALSE(table.erase(2));
  for (std::uint64_t key = 0; key < 5; ++key) {
    const int* value = table.find(key);
    if (key == 2) {
      EXPECT_EQ(value, nullptr);
    } else {
      ASSERT_NE(value, nullptr);
      EXPECT_EQ(*value, int(key));
    }
  }
}

TEST(FlatMap, TryEmplaceKeepsTheExistingValue) {
  FlatMap<std::uint64_t, int> table;
  EXPECT_TRUE(table.try_emplace(3, 30).second);
  const auto [value, inserted] = table.try_emplace(3, 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*value, 30);
  *value = 31;
  EXPECT_EQ(*table.find(3), 31);
}

TEST(FlatMap, GrowthMovesNonTrivialValues) {
  // Bytes owns heap storage: growth and backward shifts must move each
  // value exactly once and destroy the moved-from slot.
  FlatMap<std::uint64_t, Bytes> table;
  const auto payload = [](std::uint64_t key) {
    return Bytes(std::size_t(key % 40 + 1), std::uint8_t(key));
  };
  for (std::uint64_t key = 0; key < 2000; ++key) {
    ASSERT_TRUE(table.try_emplace(key, payload(key)).second);
  }
  for (std::uint64_t key = 0; key < 2000; key += 2) {
    ASSERT_TRUE(table.erase(key));
  }
  for (std::uint64_t key = 2000; key < 3000; ++key) {
    ASSERT_TRUE(table.try_emplace(key, payload(key)).second);
  }
  EXPECT_EQ(table.size(), 2000u);
  for (std::uint64_t key = 0; key < 3000; ++key) {
    const Bytes* value = table.find(key);
    if (key < 2000 && key % 2 == 0) {
      EXPECT_EQ(value, nullptr) << key;
    } else {
      ASSERT_NE(value, nullptr) << key;
      EXPECT_EQ(*value, payload(key)) << key;
    }
  }
}

TEST(FlatMap, ClearThenReuse) {
  FlatMap<std::uint64_t, Bytes> table;
  for (std::uint64_t key = 0; key < 100; ++key) {
    table.try_emplace(key, Bytes(8, std::uint8_t(key)));
  }
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_FALSE(table.contains(key));
  }
  for (std::uint64_t key = 50; key < 250; ++key) {
    ASSERT_TRUE(table.try_emplace(key, Bytes(4, std::uint8_t(key))).second);
  }
  EXPECT_EQ(table.size(), 200u);
  EXPECT_FALSE(table.contains(49));
  ASSERT_NE(table.find(249), nullptr);
  EXPECT_EQ(*table.find(249), Bytes(4, std::uint8_t(249)));
}

TEST(FlatMap, EmptyTableAllocatesNothing) {
  const std::size_t before = g_allocations;
  {
    FlatMap<std::uint64_t, Bytes> table;
    EXPECT_EQ(table.find(1), nullptr);
    EXPECT_FALSE(table.contains(1));
    EXPECT_FALSE(table.erase(1));
    table.clear();
    EXPECT_EQ(table.size(), 0u);
  }
  EXPECT_EQ(g_allocations, before);

  FlatMap<std::uint64_t, int> table;
  table.try_emplace(1, 1);
  EXPECT_EQ(g_allocations, before + 1);  // the first insert allocates once
}

}  // namespace
}  // namespace smt
