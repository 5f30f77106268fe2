// FlatHashTable: an open-addressing hash table keyed by a 64-bit integer.
//
// Linear probing over one power-of-two slot array kept at most half full,
// with backward-shift deletion (no tombstones), so a lookup is one probe
// sequence over contiguous memory. Keys are GUIDs or 64-bit hashes of
// longer keys; a table keyed by a hash stores one entry per distinct long
// key (colliding hashes included) and compares the long key in FindIf's
// predicate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pierstack {

template <typename V>
class FlatHashTable {
 public:
  /// The value of the first entry under `key` that `match` accepts, or
  /// null. Valid until the next insertion or erasure.
  template <typename Match>
  const V* FindIf(uint64_t key, Match&& match) const {
    if (slots_.empty()) return nullptr;
    for (size_t s = Home(key);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (!slot.used) return nullptr;
      if (slot.key == key && match(slot.value)) return &slot.value;
    }
  }

  const V* Find(uint64_t key) const {
    return FindIf(key, [](const V&) { return true; });
  }

  /// Inserts (key, value) unless `key` is present. Returns the entry's
  /// value and whether it was inserted — one probe either way.
  std::pair<V*, bool> TryEmplace(uint64_t key, V value) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t s = Home(key);
    for (; slots_[s].used; s = (s + 1) & mask_) {
      if (slots_[s].key == key) return {&slots_[s].value, false};
    }
    slots_[s] = Slot{key, std::move(value), true};
    ++size_;
    return {&slots_[s].value, true};
  }

  /// Inserts without a presence check, for callers that established with
  /// FindIf that no entry under `key` matches.
  void Insert(uint64_t key, V value) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    Place(key, std::move(value));
    ++size_;
  }

  /// Removes the first entry under `key`; false when there is none.
  bool Erase(uint64_t key) {
    if (slots_.empty()) return false;
    size_t hole = Home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (!slots_[hole].used) return false;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: pull each later member of the probe run into the
    // hole unless its home lies cyclically in (hole, s], where the move
    // would put it before its home.
    for (size_t s = (hole + 1) & mask_; slots_[s].used; s = (s + 1) & mask_) {
      size_t home = Home(slots_[s].key);
      if (((s - home) & mask_) >= ((s - hole) & mask_)) {
        slots_[hole] = std::move(slots_[s]);
        hole = s;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key = 0;
    V value{};
    bool used = false;
  };

  /// Fibonacci hashing: the multiply spreads sequential or low-entropy
  /// keys, and the top bits pick the slot.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Place(uint64_t key, V value) {
    size_t s = Home(key);
    while (slots_[s].used) s = (s + 1) & mask_;
    slots_[s] = Slot{key, std::move(value), true};
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    size_t n = old.empty() ? 16 : old.size() * 2;
    slots_.assign(n, Slot{});
    mask_ = n - 1;
    shift_ = 64;
    for (size_t p = n; p > 1; p >>= 1) --shift_;
    for (Slot& slot : old) {
      if (slot.used) Place(slot.key, std::move(slot.value));
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 64;
  size_t size_ = 0;
};

}  // namespace pierstack
