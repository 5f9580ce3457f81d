// Unit tests for the in-memory stable store (keyed by (area, register)).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/value.h"
#include "storage/memory_store.h"

namespace remus::storage {
namespace {

bytes b(std::initializer_list<std::uint8_t> xs) { return bytes(xs); }

constexpr record_key written0{record_area::written, 0};
constexpr record_key written7{record_area::written, 7};
constexpr record_key writing0{record_area::writing, 0};
constexpr record_key recovered{record_area::recovered, 0};

void exercise_basic(memory_store& st) {
  EXPECT_FALSE(st.retrieve(written0).has_value());
  st.store(written0, b({1, 2, 3}));
  ASSERT_TRUE(st.retrieve(written0).has_value());
  EXPECT_EQ(*st.retrieve(written0), b({1, 2, 3}));
  // Overwrite in place (records replace their predecessor).
  st.store(written0, b({9}));
  EXPECT_EQ(*st.retrieve(written0), b({9}));
  // Independent areas.
  st.store(writing0, b({4, 5}));
  EXPECT_EQ(*st.retrieve(writing0), b({4, 5}));
  EXPECT_EQ(*st.retrieve(written0), b({9}));
  // Independent registers of the same area.
  st.store(written7, b({7, 7}));
  EXPECT_EQ(*st.retrieve(written7), b({7, 7}));
  EXPECT_EQ(*st.retrieve(written0), b({9}));
  EXPECT_EQ(st.store_count(), 4u);
}

void exercise_for_each(memory_store& st) {
  st.store(written0, b({1}));
  st.store(record_key{record_area::written, 42}, b({42}));
  st.store(written7, b({7}));
  st.store(writing0, b({100}));  // different area: not enumerated
  st.store(recovered, b({5}));

  std::vector<std::pair<register_id, bytes>> seen;
  st.for_each(record_area::written,
              [&](register_id reg, const bytes& rec) { seen.emplace_back(reg, rec); });
  ASSERT_EQ(seen.size(), 3u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen[0], (std::pair<register_id, bytes>{0, b({1})}));
  EXPECT_EQ(seen[1], (std::pair<register_id, bytes>{7, b({7})}));
  EXPECT_EQ(seen[2], (std::pair<register_id, bytes>{42, b({42})}));
}

TEST(RecordKey, EncodedSizeMatchesRenderedName) {
  for (const record_key k :
       {written0, written7, writing0, recovered, record_key{record_area::written, 10},
        record_key{record_area::writing, 123456}, record_key{record_area::written, 9}}) {
    EXPECT_EQ(k.encoded_size(), to_string(k).size()) << to_string(k);
  }
}

TEST(MemoryStore, BasicRoundTrip) {
  memory_store st;
  exercise_basic(st);
}

TEST(MemoryStore, ForEachEnumeratesArea) {
  memory_store st;
  exercise_for_each(st);
}

TEST(MemoryStore, WipeClearsRecords) {
  memory_store st;
  st.store(written0, b({1}));
  st.wipe();
  EXPECT_FALSE(st.retrieve(written0).has_value());
}

TEST(MemoryStore, FootprintTracksContent) {
  memory_store st;
  EXPECT_EQ(st.footprint(), 0u);
  st.store(written0, b({1, 2, 3}));
  EXPECT_EQ(st.footprint(), sizeof(record_key) + 3u);
}

TEST(MemoryStore, EmptyRecordAllowed) {
  memory_store st;
  st.store(written0, {});
  ASSERT_TRUE(st.retrieve(written0).has_value());
  EXPECT_TRUE(st.retrieve(written0)->empty());
}

void exercise_store_and_obsolete(memory_store& st) {
  // The stable_store default decomposes into store() + erase(); entries
  // equal to the stored key are inert, absent keys are no-ops.
  st.store(writing0, b({1}));
  st.store(written7, b({2}));
  const record_key obsolete[] = {writing0, written7, written0, recovered};
  static_cast<stable_store&>(st).store_and_obsolete(written0, b({5}), obsolete);
  EXPECT_EQ(*st.retrieve(written0), b({5}));
  EXPECT_FALSE(st.retrieve(writing0).has_value());
  EXPECT_FALSE(st.retrieve(written7).has_value());
}

TEST(MemoryStore, StoreAndObsoleteDefaultDecomposes) {
  memory_store st;
  exercise_store_and_obsolete(st);
}

}  // namespace
}  // namespace remus::storage
