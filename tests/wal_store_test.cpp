// Unit tests for the WAL engine: frame codec and both CRC32 kernels,
// scanner stop classification, the log-structured store (append,
// tombstones, compaction, recovery accounting), the corruption matrix
// (every single-bit flip of the final frame, every truncation offset), and
// the file-backed media.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/value.h"
#include "storage/corruption_injector.h"
#include "storage/wal_format.h"
#include "storage/wal_store.h"

namespace remus::storage {
namespace {

bytes b(std::initializer_list<std::uint8_t> xs) { return bytes(xs); }

constexpr record_key written0{record_area::written, 0};
constexpr record_key written7{record_area::written, 7};
constexpr record_key writing0{record_area::writing, 0};
constexpr record_key recovered0{record_area::recovered, 0};

std::unique_ptr<wal_store> make_memory_store(wal_store_config cfg = {}) {
  return std::make_unique<wal_store>(std::make_unique<memory_media>(), cfg);
}

memory_media& media_of(wal_store& st) {
  return static_cast<memory_media&>(st.media());
}

// ---------- Frame codec ----------

TEST(WalFormat, Crc32MatchesTheIeeeTestVector) {
  const char* s = "123456789";
  EXPECT_EQ(crc32_of({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(crc32_of({}), 0u);
}

TEST(WalFormat, IncrementalCrcMatchesOneShot) {
  const bytes data = b({1, 2, 3, 4, 5, 6, 7});
  std::uint32_t st = crc32_init;
  st = crc32_update(st, std::span(data).subspan(0, 3));
  st = crc32_update(st, std::span(data).subspan(3));
  EXPECT_EQ(crc32_final(st), crc32_of(data));
}

/// Bytewise-table CRC32 kept independent of the library's sliced tables.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t x : data) c = table[(c ^ x) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// Checks one CRC32 kernel (state in, state out, as crc32_update) against
/// the bytewise reference: every length 0-1024 from every start alignment
/// 0-15, a few spans of 64 KB and more, and every split point of the
/// incremental form across the folding kernel's 32- and 64-byte thresholds.
template <typename Kernel>
void expect_kernel_matches_reference(Kernel kernel) {
  rng r(0x43524333);
  bytes buf(16 + (256 << 10) + 64);
  for (std::uint8_t& x : buf) x = static_cast<std::uint8_t>(r.next_below(256));
  const std::span<const std::uint8_t> all(buf);
  const auto crc = [&](std::span<const std::uint8_t> s) {
    return crc32_final(kernel(crc32_init, s));
  };
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const auto s = all.subspan(off, len);
      ASSERT_EQ(crc(s), reference_crc32(s)) << "offset " << off << " length " << len;
    }
  }
  for (const std::size_t len : {std::size_t{64} << 10, (std::size_t{64} << 10) + 15,
                                (std::size_t{128} << 10) + 33, std::size_t{256} << 10}) {
    for (const std::size_t off : {0, 1, 7}) {
      const auto s = all.subspan(off, len);
      ASSERT_EQ(crc(s), reference_crc32(s)) << "offset " << off << " length " << len;
    }
  }
  const auto whole = all.subspan(3, 300);
  const std::uint32_t want = reference_crc32(whole);
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    const std::uint32_t st = kernel(crc32_init, whole.first(cut));
    ASSERT_EQ(crc32_final(kernel(st, whole.subspan(cut))), want) << "split " << cut;
  }
}

TEST(WalFormat, SlicedCrcMatchesABytewiseReference) {
  expect_kernel_matches_reference(crc32_kernels::sliced);
  // crc32_update runs whichever kernel this CPU has.
  expect_kernel_matches_reference(crc32_update);
}

TEST(WalFormat, FoldingCrcMatchesABytewiseReference) {
  if (!crc32_kernels::folding_supported()) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ: only the sliced CRC32 kernel runs here";
  }
  expect_kernel_matches_reference(crc32_kernels::folding);
}

TEST(WalFormat, FrameRoundTripsThroughTheScanner) {
  bytes log;
  append_wal_frame(log, wal_frame_kind::record, written7, b({9, 8, 7}));
  append_wal_frame(log, wal_frame_kind::tombstone, writing0, {});
  ASSERT_EQ(log.size(), wal_frame_size(3) + wal_frame_size(0));

  std::vector<wal_frame> seen;
  const wal_scan_result r = scan_wal(log, [&](const wal_frame& f) {
    seen.push_back(f);
  });
  EXPECT_EQ(r.stop, wal_scan_stop::clean_end);
  EXPECT_EQ(r.consumed, log.size());
  ASSERT_EQ(r.frames, 2u);
  EXPECT_EQ(seen[0].kind, wal_frame_kind::record);
  EXPECT_EQ(seen[0].key, written7);
  EXPECT_EQ(bytes(seen[0].payload.begin(), seen[0].payload.end()), b({9, 8, 7}));
  EXPECT_EQ(seen[0].offset, 0u);
  EXPECT_EQ(seen[0].size, wal_frame_size(3));
  EXPECT_EQ(seen[1].kind, wal_frame_kind::tombstone);
  EXPECT_EQ(seen[1].key, writing0);
  EXPECT_TRUE(seen[1].payload.empty());
}

TEST(WalFormat, ScannerClassifiesEveryStopReason) {
  bytes log;
  append_wal_frame(log, wal_frame_kind::record, written0, b({1, 2}));
  const std::size_t one = log.size();
  append_wal_frame(log, wal_frame_kind::record, written7, b({3}));

  // Torn: a partial length field at the tail.
  {
    bytes torn = log;
    torn.resize(one + 2);
    const wal_scan_result r = scan_wal(torn, {});
    EXPECT_EQ(r.stop, wal_scan_stop::torn_frame);
    EXPECT_EQ(r.consumed, one);
    EXPECT_EQ(r.frames, 1u);
  }
  // Torn: a length that extends past the end of the image.
  {
    bytes torn = log;
    torn.pop_back();
    const wal_scan_result r = scan_wal(torn, {});
    EXPECT_EQ(r.stop, wal_scan_stop::torn_frame);
    EXPECT_EQ(r.consumed, one);
  }
  // Bad frame: an undersized length field (cannot hold the fixed header).
  {
    bytes bad = log;
    bad.resize(one);
    for (int i = 0; i < 4; ++i) bad.push_back(0);  // len = 0 < overhead - 4
    const wal_scan_result r = scan_wal(bad, {});
    EXPECT_EQ(r.stop, wal_scan_stop::bad_frame);
    EXPECT_EQ(r.consumed, one);
  }
  // Bad CRC: flip one payload bit of the second frame.
  {
    bytes bad = log;
    bad[one + 10] ^= 1;
    const wal_scan_result r = scan_wal(bad, {});
    EXPECT_EQ(r.stop, wal_scan_stop::bad_crc);
    EXPECT_EQ(r.consumed, one);
  }
  // Bad frame: a tombstone carrying payload (valid CRC, impossible shape).
  {
    bytes bad = log;
    bad.resize(one);
    append_wal_frame(bad, wal_frame_kind::tombstone, writing0, b({1}));
    const wal_scan_result r = scan_wal(bad, {});
    EXPECT_EQ(r.stop, wal_scan_stop::bad_frame);
    EXPECT_EQ(r.consumed, one);
  }
  EXPECT_EQ(scan_wal(log, {}).stop, wal_scan_stop::clean_end);
}

// ---------- Store basics ----------

TEST(WalStore, BasicRoundTripAndOverwrite) {
  auto st = make_memory_store();
  EXPECT_FALSE(st->retrieve(written0).has_value());
  st->store(written0, b({1, 2, 3}));
  EXPECT_EQ(*st->retrieve(written0), b({1, 2, 3}));
  st->store(written0, b({9}));
  EXPECT_EQ(*st->retrieve(written0), b({9}));
  st->store(writing0, b({4, 5}));
  st->store(written7, b({7, 7}));
  EXPECT_EQ(*st->retrieve(writing0), b({4, 5}));
  EXPECT_EQ(*st->retrieve(written7), b({7, 7}));
  EXPECT_EQ(st->store_count(), 4u);

  std::vector<std::pair<register_id, bytes>> seen;
  st->for_each(record_area::written,
               [&](register_id reg, const bytes& rec) { seen.emplace_back(reg, rec); });
  ASSERT_EQ(seen.size(), 2u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen[0], (std::pair<register_id, bytes>{0, b({9})}));
  EXPECT_EQ(seen[1], (std::pair<register_id, bytes>{7, b({7, 7})}));
}

TEST(WalStore, EraseTombstonesAndWipeClears) {
  auto st = make_memory_store();
  st->store(written0, b({1}));
  st->store(written7, b({2}));
  st->erase(written0);
  EXPECT_FALSE(st->retrieve(written0).has_value());
  EXPECT_EQ(*st->retrieve(written7), b({2}));
  // Erasing an absent key appends nothing.
  const std::size_t before = st->log_bytes();
  st->erase(written0);
  EXPECT_EQ(st->log_bytes(), before);
  st->wipe();
  EXPECT_FALSE(st->retrieve(written7).has_value());
  EXPECT_EQ(st->log_bytes(), 0u);
}

TEST(WalStore, StateSurvivesReopen) {
  auto st = make_memory_store();
  st->store(written0, b({1, 2}));
  st->store(writing0, b({3}));
  st->erase(written0);
  st->reopen();
  EXPECT_FALSE(st->retrieve(written0).has_value());
  EXPECT_EQ(*st->retrieve(writing0), b({3}));
  EXPECT_EQ(st->last_recovery().log_stop, wal_scan_stop::clean_end);
  EXPECT_EQ(st->last_recovery().discarded, 0u);
}

TEST(WalStore, StoreAndObsoleteIsOneAppend) {
  auto st = make_memory_store();
  st->store(writing0, b({1}));
  st->store(written7, b({2}));
  const std::size_t before = media_of(*st).log.size();
  const record_key obsolete[] = {writing0, written7, written0 /* absent */};
  st->store_and_obsolete(written0, b({5}), obsolete);
  // One record frame + one tombstone per *present* obsolete key, in one
  // durable append; the absent key adds nothing.
  EXPECT_EQ(media_of(*st).log.size(),
            before + wal_frame_size(1) + 2 * wal_frame_size(0));
  EXPECT_EQ(*st->retrieve(written0), b({5}));
  EXPECT_FALSE(st->retrieve(writing0).has_value());
  EXPECT_FALSE(st->retrieve(written7).has_value());
  // Entries equal to the stored key are inert.
  const record_key self[] = {written0};
  st->store_and_obsolete(written0, b({6}), self);
  EXPECT_EQ(*st->retrieve(written0), b({6}));
  st->reopen();
  EXPECT_EQ(*st->retrieve(written0), b({6}));
  EXPECT_FALSE(st->retrieve(writing0).has_value());
}

// ---------- Compaction ----------

TEST(WalStore, CompactionBoundsTheLog) {
  wal_store_config cfg;
  cfg.compact_min_bytes = 256;
  cfg.compact_slack = 2.0;
  auto st = make_memory_store(cfg);
  for (int i = 0; i < 200; ++i) {
    st->store(written0, b({static_cast<std::uint8_t>(i), 1, 2, 3}));
  }
  EXPECT_GT(st->compactions(), 0u);
  // One live record: the log stays bounded by the compaction threshold
  // (its live state plus slack), not by the 200 overwrites.
  EXPECT_LE(st->log_bytes(),
            std::max<std::size_t>(cfg.compact_min_bytes,
                                  static_cast<std::size_t>(
                                      cfg.compact_slack *
                                      static_cast<double>(st->live_bytes()))) +
                wal_frame_size(4));
  EXPECT_EQ(*st->retrieve(written0), b({199, 1, 2, 3}));
  st->reopen();
  EXPECT_EQ(*st->retrieve(written0), b({199, 1, 2, 3}));
}

TEST(WalStore, CrashBetweenSnapshotAndTruncateIsIdempotent) {
  wal_store_config cfg;
  cfg.compact_min_bytes = 1 << 20;  // never auto-compact in this test
  auto st = make_memory_store(cfg);
  st->store(written0, b({1}));
  st->store(written7, b({2}));
  st->store(written0, b({3}));
  // Simulate the crash window: snapshot installed, log NOT yet truncated.
  bytes snapshot;
  st->for_each(record_area::written, [&](register_id reg, const bytes& v) {
    append_wal_frame(snapshot, wal_frame_kind::record,
                     record_key{record_area::written, reg}, v);
  });
  auto media = std::make_unique<memory_media>();
  media->snapshot = snapshot;
  media->log = media_of(*st).log;  // full pre-compaction log
  wal_store st2(std::move(media), cfg);
  EXPECT_EQ(*st2.retrieve(written0), b({3}));
  EXPECT_EQ(*st2.retrieve(written7), b({2}));
}

TEST(WalStore, RecoveryReplayTracksLiveStateNotStoreCount) {
  // The bounded-replay acceptance check: after heavy overwriting of a tiny
  // working set, recovery I/O is bounded by the compaction threshold — it
  // does not grow with store_count().
  wal_store_config cfg;
  cfg.compact_min_bytes = 512;
  cfg.compact_slack = 2.0;
  auto st = make_memory_store(cfg);
  for (int i = 0; i < 2000; ++i) {
    st->store(record_key{record_area::written, static_cast<register_id>(i % 3)},
              b({static_cast<std::uint8_t>(i), 2, 3, 4, 5, 6, 7, 8}));
  }
  EXPECT_EQ(st->store_count(), 2000u);
  st->reopen();
  const wal_recovery_stats& rec = st->last_recovery();
  // Snapshot holds at most the live set; the log at most threshold + one
  // frame. Far below the ~44KB the 2000 appends totalled.
  EXPECT_LE(rec.bytes_read, 2 * cfg.compact_min_bytes);
  EXPECT_LE(rec.frames_replayed, 200u);
  EXPECT_GE(rec.frames_replayed, 3u);
}

/// The store's contract as a model: live records in first-store order (a
/// key stored again after its erasure lists last).
struct first_store_model {
  std::vector<std::pair<record_key, bytes>> live;

  void store(record_key k, const bytes& v) {
    const auto it = std::find_if(live.begin(), live.end(),
                                 [&](const auto& e) { return e.first == k; });
    if (it != live.end()) {
      it->second = v;
    } else {
      live.emplace_back(k, v);
    }
  }
  void erase(record_key k) {
    std::erase_if(live, [&](const auto& e) { return e.first == k; });
  }
};

::testing::AssertionResult matches_model(const wal_store& st, const first_store_model& m,
                                         const std::vector<record_key>& universe) {
  for (record_area area : {record_area::writing, record_area::written,
                           record_area::recovered, record_area::lease}) {
    std::vector<std::pair<register_id, bytes>> got;
    std::vector<std::pair<register_id, bytes>> want;
    st.for_each(area, [&](register_id reg, const bytes& v) { got.emplace_back(reg, v); });
    for (const auto& [k, v] : m.live) {
      if (k.area == area) want.emplace_back(k.reg, v);
    }
    if (got != want) {
      return ::testing::AssertionFailure()
             << "for_each(" << to_string(area) << ") lists " << got.size()
             << " records, the model " << want.size() << " (or the order differs)";
    }
  }
  std::size_t live_bytes = 0;
  for (const auto& [k, v] : m.live) live_bytes += wal_frame_size(v.size());
  if (st.live_bytes() != live_bytes) {
    return ::testing::AssertionFailure()
           << "live_bytes " << st.live_bytes() << ", model " << live_bytes;
  }
  for (const record_key& k : universe) {
    const auto it = std::find_if(m.live.begin(), m.live.end(),
                                 [&](const auto& e) { return e.first == k; });
    const std::optional<bytes> want =
        it == m.live.end() ? std::nullopt : std::optional<bytes>(it->second);
    if (st.retrieve(k) != want) {
      return ::testing::AssertionFailure() << "retrieve(" << to_string(k) << ") differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(WalStore, TombstonesKeepFirstStoreOrder) {
  // Alternating store-heavy and erase-heavy phases over 160 keys: erases
  // land anywhere in the insertion order, not only near its tail, and
  // erased keys are stored again later. The compaction floor is low enough
  // that snapshots are taken along the way too.
  wal_store_config cfg;
  cfg.compact_min_bytes = 8 * 1024;
  auto st = make_memory_store(cfg);
  std::vector<record_key> universe;
  for (register_id reg = 0; reg < 80; ++reg) {
    universe.push_back({record_area::writing, reg});
    universe.push_back({record_area::written, reg});
  }
  first_store_model model;
  rng r(0x544f4d42);
  const auto pick = [&] { return universe[r.next_below(universe.size())]; };
  const auto payload = [&] {
    bytes v(r.next_below(41));
    for (std::uint8_t& x : v) x = static_cast<std::uint8_t>(r.next_below(256));
    return v;
  };
  for (int step = 0; step < 4800; ++step) {
    const bool store_heavy = (step / 600) % 2 == 0;
    const std::uint64_t roll = r.next_below(100);
    if (roll < (store_heavy ? 65u : 15u)) {
      const record_key k = pick();
      const bytes v = payload();
      st->store(k, v);
      model.store(k, v);
    } else if (roll < 80) {
      const record_key k = pick();
      st->erase(k);
      model.erase(k);
    } else {
      // A record plus tombstones for a few keys — possibly its own, or keys
      // that hold nothing.
      const record_key k = pick();
      const bytes v = payload();
      std::vector<record_key> obsolete(1 + r.next_below(4));
      for (record_key& o : obsolete) o = pick();
      if (r.chance(0.2)) obsolete.push_back(k);
      st->store_and_obsolete(k, v, obsolete);
      model.store(k, v);
      for (const record_key& o : obsolete) {
        if (o != k) model.erase(o);
      }
    }
    ASSERT_TRUE(matches_model(*st, model, universe)) << "after step " << step;
  }
  EXPECT_GT(st->compactions(), 0u);

  // Replay lists survivors in the same order.
  st->reopen();
  ASSERT_TRUE(matches_model(*st, model, universe)) << "after reopen";

  // A forced compaction (every append compacts) writes them to the snapshot
  // in that order too; overwriting a live key with its own value changes
  // nothing else.
  ASSERT_FALSE(model.live.empty());
  auto media = std::make_unique<memory_media>();
  media->snapshot = media_of(*st).snapshot;
  media->log = media_of(*st).log;
  wal_store_config always;
  always.compact_min_bytes = 0;
  always.compact_slack = 0.0;
  wal_store forced(std::move(media), always);
  ASSERT_TRUE(matches_model(forced, model, universe)) << "after replay";
  const std::uint64_t before = forced.compactions();
  forced.store(model.live.front().first, model.live.front().second);
  EXPECT_EQ(forced.compactions(), before + 1);
  EXPECT_EQ(forced.log_bytes(), 0u);
  forced.reopen();
  ASSERT_TRUE(matches_model(forced, model, universe)) << "after compaction + reopen";
}

// ---------- Corruption matrix ----------

/// Recovered state must equal the harness's own replay of the valid prefix.
void expect_matches_prefix_replay(wal_store& st, const bytes& snapshot,
                                  const bytes& log) {
  std::map<std::pair<std::uint8_t, register_id>, bytes> model;
  const auto replay = [&](const wal_frame& f) {
    const auto k = std::pair(static_cast<std::uint8_t>(f.key.area), f.key.reg);
    if (f.kind == wal_frame_kind::record) {
      model[k] = bytes(f.payload.begin(), f.payload.end());
    } else {
      model.erase(k);
    }
  };
  scan_wal(snapshot, replay);
  scan_wal(log, replay);
  std::size_t recovered = 0;
  for (record_area area : {record_area::writing, record_area::written,
                           record_area::recovered}) {
    st.for_each(area, [&](register_id reg, const bytes& v) {
      ++recovered;
      const auto it = model.find({static_cast<std::uint8_t>(area), reg});
      ASSERT_NE(it, model.end());
      EXPECT_EQ(it->second, v);
    });
  }
  EXPECT_EQ(recovered, model.size());
}

TEST(WalStore, EverySingleBitFlipOfTheFinalFrameIsContained) {
  auto st = make_memory_store();
  st->store(written0, b({1, 2, 3}));
  st->store(writing0, b({4}));
  st->store(written7, b({5, 6}));
  const bytes log = media_of(*st).log;
  const std::vector<std::size_t> offs = frame_offsets(log);
  ASSERT_EQ(offs.size(), 4u);  // 3 frames + end
  const std::size_t final_at = offs[2];

  for (std::size_t byte = final_at; byte < log.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      bytes mutated = log;
      flip_bit(mutated, byte, bit);
      auto media = std::make_unique<memory_media>();
      media->log = mutated;
      wal_store rec(std::move(media));  // must not throw
      // The damaged final frame is never surfaced; the first two survive.
      EXPECT_EQ(*rec.retrieve(written0), b({1, 2, 3})) << byte << ":" << bit;
      EXPECT_EQ(*rec.retrieve(writing0), b({4})) << byte << ":" << bit;
      expect_matches_prefix_replay(rec, {}, mutated);
      EXPECT_GT(rec.last_recovery().discarded, 0u) << byte << ":" << bit;
    }
  }
}

TEST(WalStore, EveryTruncationOffsetRecoversTheIntactPrefix) {
  auto st = make_memory_store();
  st->store(written0, b({1, 2, 3}));
  st->store(writing0, b({4}));
  st->store(written7, b({5, 6}));
  const bytes log = media_of(*st).log;
  const std::vector<std::size_t> offs = frame_offsets(log);

  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    bytes mutated = log;
    truncate_log(mutated, cut);
    auto media = std::make_unique<memory_media>();
    media->log = mutated;
    wal_store rec(std::move(media));  // must not throw
    // Exactly the frames wholly inside the prefix survive.
    std::size_t expect_frames = 0;
    while (expect_frames + 1 < offs.size() && offs[expect_frames + 1] <= cut) {
      ++expect_frames;
    }
    EXPECT_EQ(rec.last_recovery().frames_replayed, expect_frames) << "cut " << cut;
    expect_matches_prefix_replay(rec, {}, mutated);
    const bool aligned = cut == offs[expect_frames];
    EXPECT_EQ(rec.last_recovery().log_stop,
              aligned ? wal_scan_stop::clean_end : wal_scan_stop::torn_frame)
        << "cut " << cut;
  }
}

TEST(WalStore, StrayGarbageTailIsDiscardedAndTruncated) {
  auto st = make_memory_store();
  st->store(written0, b({1, 2}));
  rng r(42);
  bytes garbage(17);
  for (auto& x : garbage) x = static_cast<std::uint8_t>(r.next_below(256));
  st->inject_tail_bytes(garbage);
  st->reopen();
  EXPECT_EQ(*st->retrieve(written0), b({1, 2}));
  EXPECT_EQ(st->last_recovery().discarded, garbage.size());
  // The torn tail was truncated on the media: appends now extend the valid
  // prefix, and the next recovery is clean.
  EXPECT_EQ(media_of(*st).log.size(), wal_frame_size(2));
  st->store(written7, b({9}));
  st->reopen();
  EXPECT_EQ(st->last_recovery().log_stop, wal_scan_stop::clean_end);
  EXPECT_EQ(*st->retrieve(written0), b({1, 2}));
  EXPECT_EQ(*st->retrieve(written7), b({9}));
}

TEST(WalStore, CorruptSnapshotStopsCleanlyAndLogStillApplies) {
  wal_store_config cfg;
  cfg.compact_min_bytes = 1;  // compact on every append
  cfg.compact_slack = 0.0;
  auto st = make_memory_store(cfg);
  st->store(written0, b({1}));
  st->store(written7, b({2}));
  ASSERT_GT(st->compactions(), 0u);
  bytes snapshot = media_of(*st).snapshot;
  ASSERT_FALSE(snapshot.empty());
  // Damage the snapshot's final frame; recovery keeps its intact prefix.
  flip_bit(snapshot, snapshot.size() - 1, 3);
  auto media = std::make_unique<memory_media>();
  media->snapshot = snapshot;
  media->log = media_of(*st).log;
  wal_store rec(std::move(media), cfg);
  EXPECT_NE(rec.last_recovery().snapshot_stop, wal_scan_stop::clean_end);
  expect_matches_prefix_replay(rec, snapshot, media_of(rec).log);
}

// ---------- File media ----------

class WalFileMediaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("remus_wal_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
  static inline int counter_ = 0;
};

TEST_F(WalFileMediaTest, StateSurvivesProcessRestart) {
  {
    wal_store st(std::make_unique<file_media>(dir_, /*fsync_enabled=*/false));
    st.store(written0, b({7, 7}));
    st.store(writing0, b({8}));
    st.erase(writing0);
  }
  wal_store st2(std::make_unique<file_media>(dir_, false));
  EXPECT_EQ(*st2.retrieve(written0), b({7, 7}));
  EXPECT_FALSE(st2.retrieve(writing0).has_value());
  EXPECT_EQ(st2.last_recovery().log_stop, wal_scan_stop::clean_end);
}

TEST_F(WalFileMediaTest, FsyncPathWorks) {
  // The fsync'd path the replicas of a real deployment take: appends, a
  // snapshot install and a reopen, each synced to disk.
  wal_store_config cfg;
  cfg.compact_min_bytes = 128;
  {
    wal_store st(std::make_unique<file_media>(dir_, /*fsync_enabled=*/true), cfg);
    for (int i = 0; i < 50; ++i) {
      st.store(written0, b({static_cast<std::uint8_t>(i), 1}));
    }
    st.store(written7, b({7}));
    ASSERT_GT(st.compactions(), 0u);
  }
  wal_store st2(std::make_unique<file_media>(dir_, true), cfg);
  EXPECT_EQ(*st2.retrieve(written0), b({49, 1}));
  EXPECT_EQ(*st2.retrieve(written7), b({7}));
  EXPECT_EQ(st2.last_recovery().log_stop, wal_scan_stop::clean_end);
}

TEST_F(WalFileMediaTest, CompactionPersistsAcrossRestart) {
  wal_store_config cfg;
  cfg.compact_min_bytes = 128;
  {
    wal_store st(std::make_unique<file_media>(dir_, false), cfg);
    for (int i = 0; i < 100; ++i) {
      st.store(written0, b({static_cast<std::uint8_t>(i), 2, 3}));
    }
    ASSERT_GT(st.compactions(), 0u);
  }
  wal_store st2(std::make_unique<file_media>(dir_, false), cfg);
  EXPECT_EQ(*st2.retrieve(written0), b({99, 2, 3}));
  EXPECT_LE(st2.last_recovery().bytes_read, 2 * cfg.compact_min_bytes);
}

TEST_F(WalFileMediaTest, StrayTmpFilesAreSweptAtConstruction) {
  std::filesystem::create_directories(dir_);
  {
    std::ofstream f(dir_ / "snapshot.tmp");
    f << "half-written snapshot from a crashed install";
  }
  wal_store st(std::make_unique<file_media>(dir_, false));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "snapshot.tmp"));
  EXPECT_FALSE(st.retrieve(written0).has_value());
}

TEST_F(WalFileMediaTest, ReopenAtTheFdLimitThrows) {
  // An image that exists but cannot be opened (here: no free descriptor)
  // must fail the recovery, not read as empty: an empty recovery would lose
  // every record, and the next compaction would make the loss durable.
  wal_store st(std::make_unique<file_media>(dir_, false));
  for (std::uint8_t i = 0; i < 50; ++i) st.store(record_key{record_area::written, i}, b({i}));
  const auto count = [&st] {
    std::size_t n = 0;
    st.for_each(record_area::written, [&n](register_id, const bytes&) { ++n; });
    return n;
  };
  {
    // Fill this process's descriptor table under a lowered soft limit; the
    // guard closes the fillers and restores the limit however the block ends.
    struct fd_limit {
      rlimit saved{};
      std::vector<int> fillers;
      ~fd_limit() {
        for (const int fd : fillers) ::close(fd);
        ::setrlimit(RLIMIT_NOFILE, &saved);
      }
    } lim;
    // A sanitizer runtime may need descriptors of its own: UBSan's vptr
    // check opens a pipe when a (vtable, type) pair misses its cache, so
    // the error type meets the check once while descriptors are free.
    EXPECT_THROW(throw remus::error("warm-up"), remus::error);
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim.saved), 0);
    rlimit low = lim.saved;
    low.rlim_cur = std::min<rlim_t>(lim.saved.rlim_cur, 256);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) lim.fillers.push_back(fd);
    ASSERT_EQ(errno, EMFILE);
    EXPECT_THROW(st.reopen(), remus::error);
    EXPECT_EQ(count(), 50u);  // the throw left the index as it was
  }
  st.reopen();
  EXPECT_EQ(count(), 50u);
  EXPECT_EQ(st.last_recovery().log_stop, wal_scan_stop::clean_end);
}

TEST_F(WalFileMediaTest, TornTailOnDiskIsTruncatedAtRecovery) {
  {
    wal_store st(std::make_unique<file_media>(dir_, false));
    st.store(written0, b({1, 2, 3}));
    bytes half;
    append_wal_frame(half, wal_frame_kind::record, written7, b({9, 9}));
    half.resize(half.size() / 2);  // crash mid-append
    st.inject_tail_bytes(half);
  }
  wal_store st2(std::make_unique<file_media>(dir_, false));
  EXPECT_EQ(*st2.retrieve(written0), b({1, 2, 3}));
  EXPECT_FALSE(st2.retrieve(written7).has_value());
  EXPECT_EQ(st2.last_recovery().log_stop, wal_scan_stop::torn_frame);
  wal_store st3(std::make_unique<file_media>(dir_, false));
  EXPECT_EQ(st3.last_recovery().log_stop, wal_scan_stop::clean_end);
}

/// The file at `p` as std::ifstream reads it; an absent file reads as empty.
bytes file_bytes(const std::filesystem::path& p) {
  std::ifstream f(p, std::ios::binary);
  return bytes(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

TEST_F(WalFileMediaTest, LoadReturnsExactlyTheOnDiskImages) {
  bytes log;
  for (std::uint8_t i = 0; i < 40; ++i) {
    append_wal_frame(log, wal_frame_kind::record, record_key{record_area::written, i},
                     bytes(i, i));
  }
  file_media media(dir_, /*fsync_enabled=*/false);
  // One pair of buffers across every load, as reopen() keeps them: each
  // load must replace what the last one left, longer or shorter.
  bytes snap_buf(100000, 0xAB);
  bytes log_buf(3, 0xCD);
  const auto expect_on_disk = [&](const char* step) {
    media.load(snap_buf, log_buf);
    EXPECT_EQ(snap_buf, file_bytes(dir_ / "snapshot")) << step;
    EXPECT_EQ(log_buf, file_bytes(dir_ / "wal.log")) << step;
  };
  expect_on_disk("fresh");
  EXPECT_TRUE(snap_buf.empty());
  EXPECT_TRUE(log_buf.empty());

  media.append_log(std::span(log).first(log.size() / 2));
  media.append_log(std::span(log).subspan(log.size() / 2));
  expect_on_disk("after appends");
  EXPECT_EQ(log_buf, log);

  media.truncate_log(log.size() - 5);  // a torn tail cut at recovery
  expect_on_disk("after a torn-tail truncate");
  EXPECT_EQ(log_buf.size(), log.size() - 5);

  media.install_snapshot(log);
  media.truncate_log(0);
  media.append_log(std::span(log).first(wal_frame_size(0)));
  expect_on_disk("after a snapshot install");
  EXPECT_EQ(snap_buf, log);
  EXPECT_EQ(log_buf.size(), wal_frame_size(0));

  {
    // A second media on the same directory sees the same images.
    file_media other(dir_, false);
    bytes s2, l2;
    other.load(s2, l2);
    EXPECT_EQ(s2, snap_buf);
    EXPECT_EQ(l2, log_buf);
  }

  media.wipe();
  expect_on_disk("after wipe");
  EXPECT_TRUE(snap_buf.empty());
  EXPECT_TRUE(log_buf.empty());
}

TEST_F(WalFileMediaTest, EveryMediaDescriptorIsCloseOnExec) {
  // A process that execs children (examples/sharded_kv spawns replicas) must
  // not hand them its WAL descriptors.
  wal_store_config cfg;
  cfg.compact_min_bytes = 128;
  wal_store st(std::make_unique<file_media>(dir_, /*fsync_enabled=*/true), cfg);
  for (std::uint8_t i = 0; i < 30; ++i) st.store(written0, b({i, i, i}));
  ASSERT_GT(st.compactions(), 0u);
  st.reopen();
  const auto media_dir = std::filesystem::canonical(dir_);
  std::size_t into_media = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const auto target = std::filesystem::read_symlink(entry.path(), ec);
    if (ec || (target != media_dir && target.parent_path() != media_dir)) continue;
    ++into_media;
    const int fd = std::stoi(entry.path().filename().string());
    EXPECT_NE(::fcntl(fd, F_GETFD) & FD_CLOEXEC, 0) << target;
  }
  EXPECT_GE(into_media, 1u);  // the held wal.log descriptor
}

}  // namespace
}  // namespace remus::storage
