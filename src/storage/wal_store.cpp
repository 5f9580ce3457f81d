#include "storage/wal_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.h"

namespace remus::storage {

// ---------------------------------------------------------------------------
// file_media

namespace {

[[noreturn]] void fail_media(const std::string& what) {
  throw error("file_media: " + what + ": " + std::strerror(errno));
}

/// Closes a descriptor when the scope that owns it ends, thrown or not.
class fd_closer {
 public:
  explicit fd_closer(int fd) : fd_(fd) {}
  ~fd_closer() { ::close(fd_); }
  fd_closer(const fd_closer&) = delete;
  fd_closer& operator=(const fd_closer&) = delete;

 private:
  int fd_;
};

/// Reads the whole file behind `fd` (named `p` in errors) into `out`, sized
/// by fstat, with pread() calls from offset 0 until that size or EOF (one
/// call in practice). `out` keeps its capacity, and the bytes it already
/// holds are overwritten, not zeroed first.
void read_image(int fd, const std::filesystem::path& p, bytes& out) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) fail_media("fstat " + p.string());
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::pread(fd, out.data() + off, out.size() - off, static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail_media("read " + p.string());
    if (n == 0) break;  // shrank since fstat
    off += static_cast<std::size_t>(n);
  }
  out.resize(off);
}

/// Opens the image at `p` and reads it whole. Only an absent file reads as
/// an empty image: any other failure throws, because an unreadable image
/// recovered as empty would let the next compaction overwrite the real one.
void read_file(const std::filesystem::path& p, bytes& out) {
  const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      out.clear();
      return;
    }
    fail_media("open " + p.string());
  }
  const fd_closer closer(fd);  // after fail_media has read errno
  read_image(fd, p, out);
}

}  // namespace

file_media::file_media(std::filesystem::path dir, bool fsync_enabled)
    : dir_(std::move(dir)), fsync_enabled_(fsync_enabled) {
  std::filesystem::create_directories(dir_);
  // Sweep stray temp files: a crash between tmp-write and rename leaves a
  // ".tmp" that must never shadow or outlive the real image.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  // Held for the media's lifetime: appends and truncates write through it
  // and load() reads through it, so the log is never closed between
  // compactions (a close of a file truncated to 0 and refilled without
  // fsync starts writeback of its dirty pages on ext4).
  log_fd_ = ::open((dir_ / "wal.log").c_str(),
                   O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd_ < 0) fail_media("open " + (dir_ / "wal.log").string());
}

file_media::~file_media() { ::close(log_fd_); }

void file_media::sync_dir() const {
  const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;  // best effort; some filesystems refuse dir fsync
  ::fsync(fd);
  ::close(fd);
}

void file_media::append_log(std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(log_fd_, data.data() + off, data.size() - off);
    if (n < 0) fail_media("append wal.log");
    off += static_cast<std::size_t>(n);
  }
  if (fsync_enabled_ && ::fsync(log_fd_) != 0) fail_media("fsync wal.log");
}

void file_media::install_snapshot(const bytes& snapshot) {
  const auto target = dir_ / "snapshot";
  auto tmp = target;
  tmp += ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail_media("open " + tmp.string());
  std::size_t off = 0;
  while (off < snapshot.size()) {
    const ssize_t n = ::write(fd, snapshot.data() + off, snapshot.size() - off);
    if (n < 0) {
      ::close(fd);
      fail_media("write " + tmp.string());
    }
    off += static_cast<std::size_t>(n);
  }
  if (fsync_enabled_ && ::fsync(fd) != 0) {
    ::close(fd);
    fail_media("fsync " + tmp.string());
  }
  ::close(fd);
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  if (ec) throw error("file_media: rename " + target.string() + ": " + ec.message());
  if (fsync_enabled_) sync_dir();
}

void file_media::truncate_log(std::size_t size) {
  if (::ftruncate(log_fd_, static_cast<off_t>(size)) != 0) {
    fail_media("ftruncate wal.log");
  }
  if (fsync_enabled_ && ::fsync(log_fd_) != 0) fail_media("fsync wal.log");
  // O_APPEND writes always land at the (new) end; no seek needed.
}

void file_media::load(bytes& snapshot, bytes& log) const {
  // Compaction replaces the snapshot by rename, so it is opened afresh.
  read_file(dir_ / "snapshot", snapshot);
  read_image(log_fd_, dir_ / "wal.log", log);
}

void file_media::wipe() {
  truncate_log(0);
  std::error_code ec;
  std::filesystem::remove(dir_ / "snapshot", ec);
  if (fsync_enabled_) sync_dir();
}

// ---------------------------------------------------------------------------
// wal_store

wal_store::wal_store(std::unique_ptr<wal_media> media, wal_store_config cfg)
    : media_(std::move(media)), cfg_(cfg) {
  reopen();
}

void wal_store::apply_record(record_key key, std::span<const std::uint8_t> payload) {
  live_bytes_ += wal_frame_size(payload.size());
  std::uint32_t& slot = index_[key];
  if (slot < records_.size() && records_[slot].first == key) {
    live_bytes_ -= wal_frame_size(records_[slot].second.size());
    records_[slot].second.assign(payload.begin(), payload.end());
    return;
  }
  slot = static_cast<std::uint32_t>(records_.size());
  bytes& buf = records_.emplace_back(key, bytes{}).second;
  if (!spare_.empty()) {
    buf = std::move(spare_.back());
    spare_.pop_back();
  }
  buf.assign(payload.begin(), payload.end());
}

bytes wal_store::apply_tombstone(record_key key) {
  const std::uint32_t* slot = index_.find(key);
  if (slot == nullptr) return {};
  const std::uint32_t at = *slot;
  live_bytes_ -= wal_frame_size(records_[at].second.size());
  bytes dropped = std::move(records_[at].second);
  records_.erase(records_.begin() + at);
  index_.erase(key);
  for (std::uint32_t i = at; i < records_.size(); ++i) {
    index_[records_[i].first] = i;
  }
  return dropped;
}

void wal_store::store(record_key key, const bytes& record) {
  store_and_obsolete(key, record, {});
}

void wal_store::store_and_obsolete(record_key key, const bytes& record,
                                   std::span<const record_key> obsolete) {
  ++stores_;
  frame_buf_.clear();
  append_wal_frame(frame_buf_, wal_frame_kind::record, key, record);
  for (const record_key& k : obsolete) {
    // The fresh record wins over its own obsolescence; absent keys need no
    // tombstone (nothing to shadow in the log prefix... except a prior
    // record already compacted away — the tombstone is still correct but
    // pure log growth, so skip it).
    if (k == key || index_.find(k) == nullptr) continue;
    append_wal_frame(frame_buf_, wal_frame_kind::tombstone, k, {});
  }
  // ONE durable append for the record plus its piggybacked obsolescence.
  media_->append_log(frame_buf_);
  log_bytes_ += frame_buf_.size();
  // The index applies the tombstones first, so a new record refills a
  // dropped record's buffer (a writer's pre-log takes over the one of the
  // (writing) record it obsoletes). The final state is the same as
  // record-then-tombstones: the new record is appended or updated in place
  // either way, and a tombstone never names `key`.
  for (const record_key& k : obsolete) {
    if (k == key) continue;
    if (bytes dropped = apply_tombstone(k); dropped.capacity() != 0) {
      spare_.push_back(std::move(dropped));
    }
  }
  apply_record(key, record);
  spare_.clear();
  maybe_compact();
}

std::optional<bytes> wal_store::retrieve(record_key key) const {
  const std::uint32_t* slot = index_.find(key);
  if (slot == nullptr) return std::nullopt;
  return records_[*slot].second;
}

void wal_store::for_each(record_area area,
                         const std::function<void(register_id, const bytes&)>& fn) const {
  for (const auto& [k, v] : records_) {
    if (k.area == area) fn(k.reg, v);
  }
}

void wal_store::erase(record_key key) {
  if (index_.find(key) == nullptr) return;  // no-op, and no log growth
  frame_buf_.clear();
  append_wal_frame(frame_buf_, wal_frame_kind::tombstone, key, {});
  media_->append_log(frame_buf_);
  log_bytes_ += frame_buf_.size();
  apply_tombstone(key);
  maybe_compact();
}

void wal_store::wipe() {
  media_->wipe();
  records_.clear();
  index_.clear();
  log_bytes_ = 0;
  snapshot_bytes_ = 0;
  live_bytes_ = 0;
}

void wal_store::maybe_compact() {
  const double floor = static_cast<double>(cfg_.compact_min_bytes);
  const double threshold =
      std::max(floor, cfg_.compact_slack * static_cast<double>(live_bytes_));
  if (static_cast<double>(log_bytes_) <= threshold) return;
  // Serialize the live records as frames — the snapshot is just a log with
  // no dead weight, so recovery replays it with the same scanner.
  bytes snapshot;
  snapshot.reserve(live_bytes_);
  for (const auto& [k, v] : records_) {
    append_wal_frame(snapshot, wal_frame_kind::record, k, v);
  }
  // Media ordering: snapshot durable first, then the log truncate. A crash
  // between the two replays the old log over the new snapshot — idempotent,
  // because the snapshot already reflects the state after the whole log.
  media_->install_snapshot(snapshot);
  media_->truncate_log(0);
  snapshot_bytes_ = snapshot.size();
  log_bytes_ = 0;
  ++compactions_;
}

void wal_store::reopen() {
  // The images land in this thread's pair of buffers, which keep their
  // capacity (and mapped pages) for the next reopen on the thread. One pair
  // per thread, not per store: a simulator hosting many replicas keeps one.
  thread_local bytes snapshot;
  thread_local bytes log;
  media_->load(snapshot, log);

  // Replay refills the payload buffers of the records it replaces (and of
  // the ones its tombstones drop) instead of allocating one per record.
  spare_.reserve(records_.size());
  for (auto& [k, v] : records_) spare_.push_back(std::move(v));
  records_.clear();
  index_.clear();
  live_bytes_ = 0;
  recovery_ = {};
  recovery_.bytes_read = snapshot.size() + log.size();

  const auto replay = [this](const wal_frame& f) {
    if (f.kind == wal_frame_kind::record) {
      apply_record(f.key, f.payload);
    } else if (bytes dropped = apply_tombstone(f.key); dropped.capacity() != 0) {
      spare_.push_back(std::move(dropped));
    }
  };
  // Snapshot first (base state), then the log (later mutations win). The
  // scanner stops at the first invalid frame in either image; the suffix
  // past the stop point is never surfaced.
  const wal_scan_result snap = scan_wal(snapshot, replay);
  const wal_scan_result tail = scan_wal(log, replay);
  spare_ = {};  // free what replay did not reuse
  recovery_.snapshot_stop = snap.stop;
  recovery_.log_stop = tail.stop;
  recovery_.frames_replayed = snap.frames + tail.frames;
  recovery_.discarded =
      (snapshot.size() - snap.consumed) + (log.size() - tail.consumed);
  snapshot_bytes_ = snapshot.size();
  log_bytes_ = tail.consumed;
  // Drop the torn/corrupt log tail on the media so the next append extends
  // the valid prefix instead of hiding behind garbage.
  if (tail.consumed < log.size()) {
    media_->truncate_log(tail.consumed);
  }
}

void wal_store::inject_tail_bytes(std::span<const std::uint8_t> data) {
  media_->append_log(data);
  log_bytes_ += data.size();
}

}  // namespace remus::storage
