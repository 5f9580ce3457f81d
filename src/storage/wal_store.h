// Log-structured stable store: append-only WAL + snapshot compaction.
//
// The production-shaped engine behind `stable_store`. Every mutation is
// one CRC32-framed append (storage/wal_format.h); the live state is an
// in-memory index rebuilt at recovery by replaying snapshot-then-log.
// Replay stops cleanly at the first torn or corrupt frame — the valid
// prefix is the recovered state, the tail is discarded, and a checksum-
// failing record is never surfaced.
//
// Compaction bounds replay: when the log outgrows the live state (by
// `compact_slack`, past a floor of `compact_min_bytes`), the live records
// are serialized into a snapshot, installed atomically, and the log is
// truncated. Crash between install and truncate is safe — replaying the
// old log over the new snapshot is idempotent (latest write wins and the
// snapshot already reflects the whole log).
//
// `store_and_obsolete` is the paper's "writing record obsolete" hook made
// cheap: the record frame and the obsolescence tombstones of finished
// predecessors go out as ONE append (one fsync on file media), so a
// writer's recovery replay stops growing with the number of registers it
// ever pre-logged.
//
// Media: `memory_media` (simulator — byte images that survive simulated
// crashes) and `file_media` (threaded runtime — a directory holding
// `snapshot` + `wal.log`, synchronous appends). Corruption tests reach
// the raw images through `media()` / `inject_tail_bytes`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "storage/stable_store.h"
#include "storage/wal_format.h"

namespace remus::storage {

/// Durable byte images under the WAL engine: one append-only log and one
/// atomically-replaced snapshot. Durability semantics live here; framing
/// and replay live in wal_store.
class wal_media {
 public:
  virtual ~wal_media() = default;

  /// Durably appends `data` to the log (one fsync on file media).
  virtual void append_log(std::span<const std::uint8_t> data) = 0;

  /// Atomically replaces the snapshot image (tmp + fsync + rename on file
  /// media). The old snapshot stays intact if this crashes partway.
  virtual void install_snapshot(const bytes& snapshot) = 0;

  /// Durably truncates the log to `size` bytes (0 after a snapshot; the
  /// valid prefix length when recovery discards a torn tail).
  virtual void truncate_log(std::size_t size) = 0;

  /// Reads both images back (recovery), replacing the buffers' contents
  /// but keeping their capacity. An absent image reads as empty; one that
  /// exists but cannot be read throws (corrupt content is not an error
  /// here: replay classifies it).
  virtual void load(bytes& snapshot, bytes& log) const = 0;

  /// Removes both images (fresh install, not crash recovery).
  virtual void wipe() = 0;
};

/// Simulator media: the byte images outlive the simulated process's
/// crashes, which is what "stable" means there. Public images so
/// corruption tests can mutate them directly between crash and reopen.
class memory_media final : public wal_media {
 public:
  void append_log(std::span<const std::uint8_t> data) override {
    log.insert(log.end(), data.begin(), data.end());
  }
  void install_snapshot(const bytes& s) override { snapshot = s; }
  void truncate_log(std::size_t size) override {
    if (size < log.size()) log.resize(size);
  }
  void load(bytes& s, bytes& l) const override {
    s = snapshot;
    l = log;
  }
  void wipe() override {
    snapshot.clear();
    log.clear();
  }

  bytes snapshot;
  bytes log;
};

/// File media for the threaded runtime: `dir/snapshot` + `dir/wal.log`,
/// appends fsynced before return (the paper's synchronous-file discipline,
/// section V-A). The constructor sweeps stray `*.tmp` left by a crash
/// mid-install and opens `wal.log` once: appends, truncates and load() all
/// go through that descriptor, while load() opens the snapshot (replaced
/// by rename at every compaction) each time. Every descriptor is
/// close-on-exec, so a child the process execs inherits none.
class file_media final : public wal_media {
 public:
  explicit file_media(std::filesystem::path dir, bool fsync_enabled = true);
  ~file_media() override;
  file_media(const file_media&) = delete;
  file_media& operator=(const file_media&) = delete;

  void append_log(std::span<const std::uint8_t> data) override;
  void install_snapshot(const bytes& snapshot) override;
  void truncate_log(std::size_t size) override;
  void load(bytes& snapshot, bytes& log) const override;
  void wipe() override;

  [[nodiscard]] const std::filesystem::path& directory() const { return dir_; }

 private:
  void sync_dir() const;

  std::filesystem::path dir_;
  bool fsync_enabled_;
  int log_fd_ = -1;
};

struct wal_store_config {
  /// Compact when log_bytes exceeds max(compact_min_bytes,
  /// compact_slack * live_bytes). The floor keeps tiny stores from
  /// snapshotting on every append.
  std::size_t compact_min_bytes = 64 * 1024;
  double compact_slack = 2.0;
};

/// What the last reopen() saw. `bytes_read` is the full recovery I/O
/// (snapshot + log images) — the bounded-replay tests assert it tracks
/// live state, not store_count().
struct wal_recovery_stats {
  std::size_t bytes_read = 0;
  std::size_t discarded = 0;        // invalid suffix bytes (snapshot + log)
  std::uint64_t frames_replayed = 0;
  wal_scan_stop snapshot_stop = wal_scan_stop::clean_end;
  wal_scan_stop log_stop = wal_scan_stop::clean_end;

  friend bool operator==(const wal_recovery_stats&, const wal_recovery_stats&) = default;
};

class wal_store final : public stable_store {
 public:
  explicit wal_store(std::unique_ptr<wal_media> media, wal_store_config cfg = {});

  void store(record_key key, const bytes& record) override;
  void store_and_obsolete(record_key key, const bytes& record,
                          std::span<const record_key> obsolete) override;
  [[nodiscard]] std::optional<bytes> retrieve(record_key key) const override;
  void for_each(record_area area,
                const std::function<void(register_id, const bytes&)>& fn) const override;
  void erase(record_key key) override;
  void wipe() override;
  [[nodiscard]] std::uint64_t store_count() const override { return stores_; }

  /// Rebuilds the live index from the media (crash recovery): replays the
  /// snapshot, then the log, stopping at the first invalid frame; a torn
  /// log tail is truncated on the media so later appends extend the valid
  /// prefix. Never throws on corrupt *content*; an image the media cannot
  /// read (an I/O error, not an absent file) throws before the index is
  /// touched. The images load into buffers the calling thread keeps for
  /// its next reopen (one pair per thread, not per store), and replay
  /// reuses the payload buffers of the records it replaces.
  void reopen();

  /// Crash injection: raw bytes appended to the log image without
  /// touching the live index — the torn suffix of an append the process
  /// died inside. Callers build (and optionally mangle) the frame with
  /// wal_format/corruption_injector, then reopen() replays around it.
  void inject_tail_bytes(std::span<const std::uint8_t> data);

  [[nodiscard]] std::size_t log_bytes() const { return log_bytes_; }
  [[nodiscard]] std::size_t snapshot_bytes() const { return snapshot_bytes_; }
  /// Bytes the live records would occupy as frames (what a snapshot
  /// would write).
  [[nodiscard]] std::size_t live_bytes() const { return live_bytes_; }
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }
  [[nodiscard]] const wal_recovery_stats& last_recovery() const {
    return recovery_;
  }

  [[nodiscard]] wal_media& media() { return *media_; }

 private:
  struct key_hash {
    std::size_t operator()(record_key k) const noexcept {
      return static_cast<std::size_t>(
          mix_u64((static_cast<std::uint64_t>(k.area) << 32) | k.reg));
    }
  };

  /// Applies one replayed or freshly-appended frame to the live index. A
  /// new key's payload buffer comes from `spare_` while it has one.
  void apply_record(record_key key, std::span<const std::uint8_t> payload);
  /// Returns the dropped record's payload buffer (empty if `key` is absent).
  bytes apply_tombstone(record_key key);
  void maybe_compact();

  std::unique_ptr<wal_media> media_;
  wal_store_config cfg_;
  // Same shape as memory_store: insertion-ordered records (deterministic
  // for_each) + flat-hash index, O(1) store with buffer reuse.
  std::vector<std::pair<record_key, bytes>> records_;
  flat_hash_map<record_key, std::uint32_t, key_hash> index_;
  bytes frame_buf_;  // reused append scratch
  // Dropped payload buffers a new record may refill: filled by reopen()'s
  // replay and by store_and_obsolete's tombstones, empty between calls.
  std::vector<bytes> spare_;
  std::size_t log_bytes_ = 0;
  std::size_t snapshot_bytes_ = 0;
  std::size_t live_bytes_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t compactions_ = 0;
  wal_recovery_stats recovery_;
};

}  // namespace remus::storage
