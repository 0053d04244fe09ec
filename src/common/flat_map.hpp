// Open-addressed hash table for the simulator's id-keyed lookup tables.
//
// Homa's TX/RX/dedup tables, the flow-context manager's key index, the NIC
// context table and the RPC correlation tables are probed by key several
// times per message and never walked. FlatMap keeps them free of tree
// descents and per-entry node allocations by storing entries inline in
// one power-of-two slot array:
//
//   * linear probing from the key's home slot (hash & mask);
//   * backward-shift deletion — no tombstones, so a probe always ends at
//     the first empty slot and the table never needs a cleanup rehash;
//   * the load factor stays at most 3/4; the array doubles past that;
//   * an empty table owns no storage, and clear() keeps the array.
//
// Determinism: FlatMap deliberately has NO iteration API. Slot order is
// hash order, and keeping it unobservable means no result can depend on
// it — tables whose order a result consumes stay std::map
// (docs/determinism.md). clear() and the destructor do destroy values in
// slot order, so a value whose destructor has effects the simulation can
// observe does not belong in a FlatMap.
//
// Pointers returned by find()/try_emplace() stay valid only until the
// next try_emplace() (which may grow the array) or erase() (which may
// shift entries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"

namespace smt {

/// Hashes a key to 64 well-mixed bits. Integral keys go through the
/// SplitMix64 finaliser; a composite key specialises this template next to
/// its definition.
template <class Key>
struct FlatHash {
  static_assert(std::is_integral_v<Key>,
                "composite keys specialise smt::FlatHash");
  std::uint64_t operator()(Key key) const noexcept {
    return mix_seed(0, std::uint64_t(key));
  }
};

template <class Key, class Value, class Hash = FlatHash<Key>>
class FlatMap {
 public:
  FlatMap() noexcept = default;
  ~FlatMap() { destroy_entries(); }

  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;

  std::size_t size() const noexcept { return size_; }

  Value* find(const Key& key) noexcept {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].entry.value;
  }
  const Value* find(const Key& key) const noexcept {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].entry.value;
  }
  bool contains(const Key& key) const noexcept {
    return locate(key) != kAbsent;
  }

  /// Inserts `key` with a value built from `args` unless the key is
  /// present. Returns the key's value and whether it was inserted.
  template <class... Args>
  std::pair<Value*, bool> try_emplace(const Key& key, Args&&... args) {
    if (slots_ != nullptr) {
      const std::size_t i = probe(key);
      if (slots_[i].full) return {&slots_[i].entry.value, false};
    }
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    Slot& slot = slots_[probe(key)];
    ::new (&slot.entry) Entry{key, Value(std::forward<Args>(args)...)};
    slot.full = true;
    ++size_;
    return {&slot.entry.value, true};
  }

  /// Removes `key`; returns whether it was present.
  bool erase(const Key& key) {
    std::size_t hole = locate(key);
    if (hole == kAbsent) return false;
    std::destroy_at(&slots_[hole].entry);
    slots_[hole].full = false;
    // Backward shift: pull each later entry of the probe run into the
    // hole, unless the hole lies before that entry's home slot (moving it
    // there would put it where a probe from home never looks).
    for (std::size_t j = (hole + 1) & mask_; slots_[j].full;
         j = (j + 1) & mask_) {
      const std::size_t home = home_of(slots_[j].entry.key);
      if (((j - home) & mask_) < ((j - hole) & mask_)) continue;
      ::new (&slots_[hole].entry) Entry(std::move(slots_[j].entry));
      slots_[hole].full = true;
      std::destroy_at(&slots_[j].entry);
      slots_[j].full = false;
      hole = j;
    }
    --size_;
    return true;
  }

  /// Removes every entry; the slot array is kept for reuse.
  void clear() noexcept {
    destroy_entries();
    size_ = 0;
  }

 private:
  struct Entry {
    Key key;
    Value value;
  };
  // A slot's entry is alive exactly while `full` is set.
  struct Slot {
    Slot() noexcept {}
    ~Slot() {}
    union {
      Entry entry;
    };
    bool full = false;
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 8;

  std::size_t capacity() const noexcept {
    return slots_ == nullptr ? 0 : mask_ + 1;
  }
  std::size_t home_of(const Key& key) const noexcept {
    return std::size_t(hash_(key)) & mask_;
  }

  /// Slot holding `key`, or the empty slot that ends its probe run.
  /// Needs storage; the load bound guarantees an empty slot exists.
  std::size_t probe(const Key& key) const noexcept {
    std::size_t i = home_of(key);
    while (slots_[i].full && !(slots_[i].entry.key == key)) {
      i = (i + 1) & mask_;
    }
    return i;
  }
  std::size_t locate(const Key& key) const noexcept {
    if (size_ == 0) return kAbsent;
    const std::size_t i = probe(key);
    return slots_[i].full ? i : kAbsent;
  }

  void grow() {
    const std::size_t old_capacity = capacity();
    std::unique_ptr<Slot[]> old = std::move(slots_);
    const std::size_t new_capacity =
        old_capacity == 0 ? kMinCapacity : old_capacity * 2;
    slots_ = std::make_unique<Slot[]>(new_capacity);
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (!old[i].full) continue;
      Slot& slot = slots_[probe(old[i].entry.key)];
      ::new (&slot.entry) Entry(std::move(old[i].entry));
      slot.full = true;
      std::destroy_at(&old[i].entry);
    }
  }

  void destroy_entries() noexcept {
    if (size_ == 0) return;
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (!slots_[i].full) continue;
      std::destroy_at(&slots_[i].entry);
      slots_[i].full = false;
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hash_;
};

}  // namespace smt
