// FlatHashTable: insert/find/erase against std::unordered_map, with a key
// space small enough that probe runs collide, wrap and get shifted back.
#include "common/flat_table.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"

namespace pierstack {
namespace {

TEST(FlatHashTableTest, AgreesWithUnorderedMapUnderChurn) {
  FlatHashTable<uint32_t> table;
  std::unordered_map<uint64_t, uint32_t> ref;
  Rng rng(3);
  for (uint32_t step = 0; step < 200000; ++step) {
    // Keys span both low integers and high-entropy values.
    uint64_t key = rng.NextBelow(64);
    if (step % 3 == 0) key = key * 0x9E3779B97F4A7C15ULL;
    switch (rng.NextBelow(3)) {
      case 0: {
        auto [value, inserted] = table.TryEmplace(key, step);
        auto [it, ref_inserted] = ref.emplace(key, step);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*value, it->second);
        break;
      }
      case 1:
        ASSERT_EQ(table.Erase(key), ref.erase(key) == 1);
        break;
      default: {
        const uint32_t* value = table.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(value != nullptr, it != ref.end());
        if (value != nullptr) {
          ASSERT_EQ(*value, it->second);
        }
      }
    }
    ASSERT_EQ(table.size(), ref.size());
  }
  // Every surviving key is still reachable after all the shifting.
  for (const auto& [key, value] : ref) {
    const uint32_t* found = table.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  }
}

TEST(FlatHashTableTest, FindIfSeparatesCollidingKeys) {
  // Two entries under one key (a hash collision of two longer keys): the
  // predicate tells them apart.
  FlatHashTable<uint32_t> table;
  table.Insert(42, 1);
  table.Insert(42, 2);
  EXPECT_EQ(*table.FindIf(42, [](uint32_t v) { return v == 2; }), 2u);
  EXPECT_EQ(table.FindIf(42, [](uint32_t v) { return v == 3; }), nullptr);
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_EQ(table.size(), 2u);
}

}  // namespace
}  // namespace pierstack
