// Unit tests for the common substrate: ids, tags, values, codec, rng, and
// the recycling FIFO.
#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/recycling_vector.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/timestamp.h"
#include "common/value.h"

namespace remus {
namespace {

TEST(Ids, ProcessValidity) {
  EXPECT_FALSE(no_process.valid());
  EXPECT_TRUE(process_id{0}.valid());
  EXPECT_TRUE(process_id{7}.valid());
  EXPECT_EQ(process_id{3}, process_id{3});
  EXPECT_NE(process_id{3}, process_id{4});
}

TEST(Tag, InitialOrdersFirst) {
  EXPECT_TRUE(initial_tag.initial());
  const tag t{1, 0, process_id{0}};
  EXPECT_LT(initial_tag, t);
  EXPECT_FALSE(t.initial());
}

TEST(Tag, LexicographicBySequenceNumber) {
  const tag a{1, 0, process_id{9}};
  const tag b{2, 0, process_id{0}};
  EXPECT_LT(a, b);  // sn dominates pid
}

TEST(Tag, TieBreakByRecoveryCounterThenWriter) {
  const tag a{5, 0, process_id{1}};
  const tag b{5, 1, process_id{0}};
  EXPECT_LT(a, b);  // rec dominates writer
  const tag c{5, 1, process_id{2}};
  EXPECT_LT(b, c);  // writer id breaks the final tie
}

TEST(Tag, WriterRankOrdersInitialBeforeProcessZero) {
  // Same (sn, rec): the initial tag (invalid writer) must order first,
  // otherwise the first write by p0 could not replace the initial value.
  const tag init{0, 0, no_process};
  const tag p0{0, 0, process_id{0}};
  EXPECT_LT(init, p0);
}

TEST(Tag, EqualityIsStructural) {
  const tag a{3, 1, process_id{2}};
  const tag b{3, 1, process_id{2}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(to_string(a), to_string(b));
}

TEST(Tag, ToStringShowsRecOnlyWhenNonzero) {
  EXPECT_EQ(to_string(tag{4, 0, process_id{1}}), "[4,p1]");
  EXPECT_EQ(to_string(tag{4, 2, process_id{1}}), "[4r2,p1]");
}

TEST(Value, InitialIsEmpty) {
  EXPECT_TRUE(initial_value().is_initial());
  EXPECT_FALSE(value_of_u32(0).is_initial());
}

TEST(Value, U32RoundTrip) {
  const value v = value_of_u32(0xdeadbeef);
  EXPECT_EQ(v.size(), 4u);
  ASSERT_TRUE(value_as_u32(v).has_value());
  EXPECT_EQ(*value_as_u32(v), 0xdeadbeefu);
  EXPECT_FALSE(value_as_u64(v).has_value());
}

TEST(Value, U64RoundTrip) {
  const value v = value_of_u64(0x0123456789abcdefULL);
  ASSERT_TRUE(value_as_u64(v).has_value());
  EXPECT_EQ(*value_as_u64(v), 0x0123456789abcdefULL);
}

TEST(Value, StringRoundTrip) {
  const value v = value_of_string("hello shared memory");
  EXPECT_EQ(value_as_string(v), "hello shared memory");
}

TEST(Value, SizedPayloadIsDeterministic) {
  const value a = value_of_size(1000, 7);
  const value b = value_of_size(1000, 7);
  const value c = value_of_size(1000, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 1000u);
}

TEST(Codec, PrimitivesRoundTrip) {
  byte_writer w;
  w.put_u8(7);
  w.put_u32(0xcafebabe);
  w.put_u64(0x1122334455667788ULL);
  w.put_i64(-42);
  w.put_string("abc");
  w.put_process(process_id{5});
  w.put_tag(tag{9, 2, process_id{1}});
  w.put_value(value_of_u32(3));

  byte_reader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xcafebabeu);
  EXPECT_EQ(r.get_u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_string(), "abc");
  EXPECT_EQ(r.get_process(), process_id{5});
  EXPECT_EQ(r.get_tag(), (tag{9, 2, process_id{1}}));
  EXPECT_EQ(r.get_value(), value_of_u32(3));
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Codec, TruncationThrows) {
  byte_writer w;
  w.put_u32(1);
  byte_reader r(w.buffer());
  (void)r.get_u32();
  EXPECT_THROW((void)r.get_u32(), codec_error);
}

TEST(Codec, TrailingBytesDetected) {
  byte_writer w;
  w.put_u32(1);
  w.put_u32(2);
  byte_reader r(w.buffer());
  (void)r.get_u32();
  EXPECT_THROW(r.expect_done(), codec_error);
}

TEST(Codec, BadLengthPrefixThrows) {
  byte_writer w;
  w.put_u32(1000);  // claims 1000 bytes follow; none do
  byte_reader r(w.buffer());
  EXPECT_THROW((void)r.get_bytes(), codec_error);
}

TEST(Rng, Deterministic) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto x = r.next_in(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
    const double u = r.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  rng r(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  rng r(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ForkDiverges) {
  rng a(5);
  rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Time, LiteralsConvert) {
  EXPECT_EQ(5_us, 5000);
  EXPECT_EQ(2_ms, 2'000'000);
  EXPECT_EQ(1_s, 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
}

TEST(RecyclingFifo, KeepsOrderAcrossWrapAndGrowth) {
  recycling_fifo<int> q;
  int next_in = 0, next_out = 0;
  const auto push = [&](int n) {
    for (int i = 0; i < n; ++i) q.push_slot() = next_in++;
  };
  const auto pop = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  };
  push(3);
  pop(2);
  push(4);  // wraps round the ring, then grows while it is wrapped
  EXPECT_EQ(q.back(), next_in - 1);
  pop(5);
  EXPECT_TRUE(q.empty());
  push(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  push(6);
  next_out = next_in - 6;
  pop(6);
}

}  // namespace
}  // namespace remus
