// fuzz_wal: deterministic fuzz harness for the WAL parser and recovery.
//
// Three case shapes, chosen per run from the campaign rng:
//
//   garbage     — scan_wal over random bytes, and a wal_store recovery over
//                 the same image: classification never throws, the consumed
//                 prefix is frame-aligned and within bounds;
//   round_trip  — random frames encoded with append_wal_frame must scan
//                 back byte-exact with stop == clean_end;
//   mutate      — a random op sequence against a live wal_store (stores,
//                 erases, store_and_obsolete batches, compactions), then
//                 0..4 image mutations (bit flips, truncation, torn final
//                 frame, stray garbage, snapshot damage), then recovery into
//                 a fresh wal_store. The recovered state must equal the
//                 harness's own replay of the valid prefix, every recovered
//                 payload must be a payload that was actually stored under
//                 that key (no checksum-failing record is ever surfaced),
//                 and the recovery stats must account for every byte. The
//                 same images are then written to a scratch directory and
//                 recovered again through file_media: state and stats must
//                 match the in-memory recovery, and a torn or corrupt tail
//                 must leave wal.log cut to the valid prefix. The file leg
//                 adds nothing to the digest.
//
// Options:
//   --runs N        cases to run (default 2000)
//   --seed S        campaign seed (default 1); all randomness derives from it
//   --progress N    progress line every N runs (default 500; 0 = quiet)
//   --repro-out P   also write the repro line to file P on failure
//   --inject 1      plant a single-bit corruption in the recovered state
//                   before checking — self-test that the oracle catches a
//                   surfaced corrupt record and that minimization shrinks
//                   the failing case
//
// On failure the case is minimized (fewer ops, then fewer mutations) and a
// repro line is printed:
//
//   REPRO wal seed=<S> mode=<M> ops=<N> muts=<K>
//
// Exit status: 0 = all cases clean (digest printed; same seed => same
// digest), 1 = violation found, 2 = bad usage.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "storage/corruption_injector.h"
#include "storage/wal_format.h"
#include "storage/wal_store.h"

namespace {

using remus::bytes;
using remus::rng;
using namespace remus::storage;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

struct key_less {
  bool operator()(record_key a, record_key b) const {
    if (a.area != b.area) return a.area < b.area;
    return a.reg < b.reg;
  }
};
using model_map = std::map<record_key, bytes, key_less>;

/// The harness's own replay of one image: the oracle wal_store::reopen is
/// checked against.
void replay_into(std::span<const std::uint8_t> image, model_map& model) {
  scan_wal(image, [&](const wal_frame& f) {
    if (f.kind == wal_frame_kind::record) {
      model[f.key].assign(f.payload.begin(), f.payload.end());
    } else {
      model.erase(f.key);
    }
  });
}

record_key random_key(rng& r) {
  static constexpr record_area areas[] = {record_area::writing,
                                          record_area::written,
                                          record_area::recovered};
  return {areas[r.next_below(3)],
          static_cast<remus::register_id>(r.next_below(6))};
}

bytes random_payload(rng& r) {
  bytes b(r.next_below(48));
  for (auto& x : b) x = static_cast<std::uint8_t>(r.next_below(256));
  return b;
}

struct case_params {
  std::uint64_t seed = 0;
  int mode = 0;  // 0 = garbage, 1 = round_trip, 2 = mutate
  std::uint32_t ops = 0;
  std::uint32_t muts = 0;
};

/// Dumps the recovered state of `s` into a model map for comparison.
model_map state_of(wal_store& s) {
  model_map out;
  for (record_area area : {record_area::writing, record_area::written,
                           record_area::recovered}) {
    s.for_each(area, [&](remus::register_id reg, const bytes& v) {
      out[{area, reg}] = v;
    });
  }
  return out;
}

/// Scratch directory of the file leg, one per fuzzer process.
const std::filesystem::path& file_leg_dir() {
  static const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("remus_fuzz_wal_" + std::to_string(::getpid()));
  return dir;
}

void write_image(const std::filesystem::path& p, const bytes& image) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(image.data()),
          static_cast<std::streamsize>(image.size()));
  if (!f) throw std::runtime_error("cannot write " + p.string());
}

std::string run_case(const case_params& c, bool inject, std::uint64_t& digest) {
  rng r(c.seed);
  try {
    if (c.mode == 0) {
      // Arbitrary bytes: the scanner classifies, never throws, and recovery
      // over the same image agrees with a manual replay.
      bytes garbage(r.next_below(300));
      for (auto& x : garbage) x = static_cast<std::uint8_t>(r.next_below(256));
      const wal_scan_result scan = scan_wal(garbage, {});
      if (scan.consumed > garbage.size()) return "consumed past end";
      if (scan.stop == wal_scan_stop::clean_end && scan.consumed != garbage.size()) {
        return "clean_end without consuming the whole image";
      }
      auto media = std::make_unique<memory_media>();
      media->log = garbage;
      wal_store store(std::move(media));
      const wal_recovery_stats& st = store.last_recovery();
      if (st.bytes_read != garbage.size()) return "bytes_read mismatch";
      if (st.discarded != garbage.size() - scan.consumed) return "discarded mismatch";
      model_map model;
      replay_into(garbage, model);
      if (state_of(store) != model) return "garbage recovery state mismatch";
      digest = fold_u64(digest, static_cast<std::uint64_t>(scan.stop));
      digest = fold_u64(digest, scan.consumed);
      return {};
    }

    if (c.mode == 1) {
      // Round-trip: encoded frames scan back byte-exact.
      bytes log;
      std::vector<std::pair<record_key, bytes>> frames;
      const std::uint32_t n = 1 + static_cast<std::uint32_t>(r.next_below(12));
      for (std::uint32_t i = 0; i < n; ++i) {
        frames.emplace_back(random_key(r), random_payload(r));
        append_wal_frame(log, wal_frame_kind::record, frames.back().first,
                         frames.back().second);
      }
      std::size_t at = 0;
      std::string fail;
      const wal_scan_result scan = scan_wal(log, [&](const wal_frame& f) {
        if (at >= frames.size()) return;
        if (!(f.key == frames[at].first) ||
            !std::equal(f.payload.begin(), f.payload.end(),
                        frames[at].second.begin(), frames[at].second.end())) {
          fail = "round-trip frame mismatch";
        }
        ++at;
      });
      if (!fail.empty()) return fail;
      if (scan.stop != wal_scan_stop::clean_end) return "round-trip not clean";
      if (scan.frames != n || scan.consumed != log.size()) {
        return "round-trip count mismatch";
      }
      digest = fold_u64(digest, crc32_of(log));
      return {};
    }

    // mutate: live store -> image mutations -> recovery vs oracle replay.
    wal_store_config cfg;
    cfg.compact_min_bytes = r.chance(0.3) ? 128 : 64 * 1024;  // some compact
    auto owned = std::make_unique<memory_media>();
    memory_media* media = owned.get();
    wal_store store(std::move(owned), cfg);
    std::map<record_key, std::set<bytes>, key_less> ever_stored;
    for (std::uint32_t i = 0; i < c.ops; ++i) {
      const record_key key = random_key(r);
      const double dice = r.next_unit();
      if (dice < 0.1) {
        store.erase(key);
      } else if (dice < 0.25) {
        std::vector<record_key> obsolete;
        const std::uint32_t k = 1 + static_cast<std::uint32_t>(r.next_below(3));
        for (std::uint32_t j = 0; j < k; ++j) obsolete.push_back(random_key(r));
        const bytes v = random_payload(r);
        ever_stored[key].insert(v);
        store.store_and_obsolete(key, v, obsolete);
      } else {
        const bytes v = random_payload(r);
        ever_stored[key].insert(v);
        store.store(key, v);
      }
    }

    bytes snapshot = media->snapshot;
    bytes log = media->log;
    for (std::uint32_t m = 0; m < c.muts; ++m) {
      switch (r.next_below(5)) {
        case 0:
          if (!log.empty()) {
            flip_bit(log, r.next_below(log.size()),
                     static_cast<unsigned>(r.next_below(8)));
          }
          break;
        case 1:
          truncate_log(log, r.next_below(log.size() + 1));
          break;
        case 2: {
          const std::vector<std::size_t> offs = frame_offsets(log);
          if (offs.size() >= 2) {
            const std::size_t fsize = offs[offs.size() - 1] - offs[offs.size() - 2];
            tear_final_frame(log, fsize, r.next_below(fsize));
          }
          break;
        }
        case 3:
          append_garbage(log, r, 1 + r.next_below(32));
          break;
        case 4:
          if (!snapshot.empty()) {
            flip_bit(snapshot, r.next_below(snapshot.size()),
                     static_cast<unsigned>(r.next_below(8)));
          }
          break;
      }
    }

    model_map model;
    replay_into(snapshot, model);
    replay_into(log, model);

    auto mutated = std::make_unique<memory_media>();
    mutated->snapshot = snapshot;
    mutated->log = log;
    wal_store recovered(std::move(mutated), cfg);

    model_map got = state_of(recovered);
    if (inject && !got.empty()) {
      // Planted corruption: surface a single flipped bit in a recovered
      // record, as a buggy recovery that skipped CRC verification would.
      bytes& victim = got.begin()->second;
      if (victim.empty()) victim.push_back(0);
      victim[0] ^= 1;
    }
    if (got != model) return "recovered state differs from valid-prefix replay";
    for (const auto& [key, v] : got) {
      const auto it = ever_stored.find(key);
      if (it == ever_stored.end() || it->second.count(v) == 0) {
        return "recovered a payload that was never stored";
      }
    }
    const wal_recovery_stats& st = recovered.last_recovery();
    if (st.bytes_read != snapshot.size() + log.size()) return "bytes_read mismatch";
    const wal_scan_result snap_scan = scan_wal(snapshot, {});
    const wal_scan_result log_scan = scan_wal(log, {});
    if (st.discarded != (snapshot.size() - snap_scan.consumed) +
                            (log.size() - log_scan.consumed)) {
      return "discarded mismatch";
    }

    // File leg: the same images on disk (an empty snapshot is an absent
    // file), recovered through file_media without fsync.
    const std::filesystem::path& dir = file_leg_dir();
    std::filesystem::create_directories(dir);
    std::filesystem::remove(dir / "snapshot");
    if (!snapshot.empty()) write_image(dir / "snapshot", snapshot);
    write_image(dir / "wal.log", log);
    {
      wal_store from_files(std::make_unique<file_media>(dir, /*fsync_enabled=*/false), cfg);
      if (state_of(from_files) != got) return "file recovery state differs from memory";
      if (from_files.last_recovery() != st) return "file recovery stats differ from memory";
    }
    if (std::filesystem::file_size(dir / "wal.log") != log_scan.consumed) {
      return "wal.log not cut to the valid prefix";
    }

    digest = fold_u64(digest, static_cast<std::uint64_t>(st.log_stop));
    digest = fold_u64(digest, st.frames_replayed);
    for (const auto& [key, v] : got) {
      digest = fold_u64(digest, static_cast<std::uint64_t>(key.area));
      digest = fold_u64(digest, key.reg);
      digest = fnv1a(digest, v.data(), v.size());
    }
    return {};
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

/// Shrinks a failing case: fewer ops, then fewer mutations, greedily while
/// the failure reproduces (same seed — the op stream is a prefix).
case_params minimize_case(case_params c, bool inject) {
  std::uint64_t scratch = 0;
  const auto fails = [&](const case_params& p) {
    return !run_case(p, inject, scratch).empty();
  };
  bool changed = true;
  while (changed) {
    changed = false;
    while (c.ops > 0) {
      case_params cand = c;
      cand.ops = c.ops / 2;
      if (!fails(cand)) break;
      c = cand;
      changed = true;
    }
    while (c.muts > 0) {
      case_params cand = c;
      cand.muts = c.muts - 1;
      if (!fails(cand)) break;
      c = cand;
      changed = true;
    }
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t runs = 2000;
  std::uint64_t seed = 1;
  std::uint64_t progress = 500;
  std::string repro_out;
  bool inject = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--runs" && val != nullptr) {
      runs = std::stoull(val);
      ++i;
    } else if (arg == "--seed" && val != nullptr) {
      seed = std::stoull(val);
      ++i;
    } else if (arg == "--progress" && val != nullptr) {
      progress = std::stoull(val);
      ++i;
    } else if (arg == "--repro-out" && val != nullptr) {
      repro_out = val;
      ++i;
    } else if (arg == "--inject" && val != nullptr) {
      inject = std::stoul(val) != 0;
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--runs N] [--seed S] [--progress N] "
                   "[--repro-out PATH] [--inject 1]\n",
                   argv[0]);
      return 2;
    }
  }

  const struct file_leg_cleanup {
    ~file_leg_cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(file_leg_dir(), ec);
    }
  } cleanup;
  rng campaign(seed);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::uint64_t i = 0; i < runs; ++i) {
    case_params c;
    c.seed = campaign.next_u64();
    const std::uint64_t shape = campaign.next_below(4);
    c.mode = shape == 0 ? 0 : (shape == 1 ? 1 : 2);
    c.ops = 1 + static_cast<std::uint32_t>(campaign.next_below(60));
    c.muts = static_cast<std::uint32_t>(campaign.next_below(5));
    const std::string fail = run_case(c, inject, digest);
    if (!fail.empty()) {
      std::fprintf(stderr, "violation at run %llu: %s\n",
                   static_cast<unsigned long long>(i), fail.c_str());
      const case_params min = minimize_case(c, inject);
      char line[128];
      std::snprintf(line, sizeof(line), "wal seed=%llu mode=%d ops=%u muts=%u",
                    static_cast<unsigned long long>(min.seed), min.mode, min.ops,
                    min.muts);
      std::printf("REPRO %s\n", line);
      if (!repro_out.empty()) {
        std::ofstream f(repro_out);
        f << line << '\n';
      }
      return 1;
    }
    if (progress > 0 && (i + 1) % progress == 0) {
      std::printf("[%llu/%llu] clean\n", static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(runs));
    }
  }
  std::printf("%llu cases, zero violations\n",
              static_cast<unsigned long long>(runs));
  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));
  return 0;
}
