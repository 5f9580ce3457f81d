#include "rt_workload.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/error.h"
#include "common/rng.h"
#include "decorators.h"
#include "history/keyed.h"
#include "runtime/node.h"
#include "runtime/tcp_transport.h"
#include "storage/wal_store.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace remus;

constexpr std::uint32_t kReplicas = 3;
constexpr std::uint32_t kKeys = 1024;
constexpr double kReadFraction = 0.5;
constexpr std::uint32_t kValueBytes = 64;
// Client ops between two restarts of node 0 (one measurement segment).
constexpr std::uint32_t kOpsPerSegment = 2000;
// No frame sent by any transport and no store in progress for this long
// counts as quiescent.
constexpr int kQuietMs = 20;
// Bring-ups (with preload) per run; setup_s is their median. The first is
// the measured deployment's; the others are spread evenly over the
// measurement, since the host switches between speed states every few
// seconds and one burst of bring-ups would land in a single state.
constexpr std::size_t kSetups = 31;
// Full persistent atomicity is checked on the keys k with k % 8 == 0. Every
// read is checked against its key's last completed write as it returns; the
// checker's cost grows faster than linearly in a key's operations, and on
// all 1024 keys it took longer than a 30 s measurement.
constexpr register_id kAtomicitySampleEvery = 8;
// Consecutive failed ops after which the measurement stops (a majority is
// unreachable; waiting out more timeouts would only burn the time budget).
constexpr int kMaxConsecutiveFailures = 3;
// peak_rss_mb is read after this many segments.
constexpr std::size_t kRssAfterSegments = 2;
// The p50s are the mean over windows of this many consecutive ops of each
// window's p50. On a shared host the speed of a stretch of a run follows the
// neighbours: window p50s range 60-110 us within one run. A pooled median
// jumps between levels as the share of slow stretches crosses its rank; a
// mean over windows moves smoothly with that share.
constexpr std::size_t kWindowOps = 1000;

bool port_block_free(std::uint16_t base, std::uint32_t count) {
  std::vector<int> fds;
  bool ok = true;
  for (std::uint32_t i = 0; i < count && ok; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      ok = false;
      break;
    }
    fds.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ok = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  for (const int fd : fds) ::close(fd);
  return ok;
}

std::uint16_t probe_base_port(std::uint32_t salt) {
  std::uint32_t base = 20000 + (static_cast<std::uint32_t>(::getpid()) * 37 + salt * 101) % 30000;
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (port_block_free(static_cast<std::uint16_t>(base), kReplicas)) {
      return static_cast<std::uint16_t>(base);
    }
    base = 20000 + (base - 20000 + 131) % 30000;
  }
  throw driver_error("rt_tcp_kv: no free loopback port block");
}

value make_value(std::uint64_t counter) {
  value v = value_of_u64(counter);
  v.data.resize(kValueBytes, static_cast<std::uint8_t>(0xa5 ^ (counter & 0xff)));
  return v;
}

struct usage {
  double cpu_us = 0;
  double ctx_switches = 0;
};

usage usage_now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

/// One bring-up: three replicas with their WAL stores and transports.
class deployment {
 public:
  deployment(const run_options& opt, bool traced, std::uint32_t salt)
      : dir_(std::filesystem::path(opt.scratch_dir) /
             ("wal-" + std::to_string(::getpid()) + "-" + std::to_string(salt))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    for (std::uint32_t i = 0; i < kReplicas; ++i) {
      // Appends reach the file but skip fsync: on a shared virtual disk an
      // fsync costs 70-140 us with millisecond tails that follow the
      // neighbours' I/O, which every runtime metric would then measure.
      std::unique_ptr<storage::wal_media> m = std::make_unique<storage::file_media>(
          dir_ / ("node" + std::to_string(i)), /*fsync_enabled=*/false);
      if (traced) {
        auto probe = std::make_unique<media_probe>(std::move(m));
        media.push_back(probe.get());
        m = std::move(probe);
      }
      wals.push_back(std::make_unique<storage::wal_store>(std::move(m)));
      stores.push_back(std::make_unique<store_probe>(*wals.back()));
    }
    // Every listener binds before the first send: a refused lazy connect
    // would cost tcp_transport a 50 ms reconnect backoff.
    const std::uint16_t base = probe_base_port(salt);
    for (std::uint32_t i = 0; i < kReplicas; ++i) {
      runtime::tcp_transport_options to;
      to.n = kReplicas;
      to.base_port = base;
      to.self = i;
      nets.push_back(std::make_unique<runtime::tcp_transport>(to));
    }
    runtime::node_options no;
    no.op_timeout = 3ll * 1000 * 1000 * 1000;
    for (std::uint32_t i = 0; i < kReplicas; ++i) {
      runtime::transport* t = nets[i].get();
      if (traced) {
        probes.push_back(std::make_unique<transport_probe>(*nets[i]));
        t = probes.back().get();
      }
      nodes.push_back(std::make_unique<runtime::node>(proto::persistent_policy(),
                                                      process_id{i}, kReplicas, *stores[i],
                                                      *t, rec, no, 0x7274 + salt * 7 + i));
    }
    for (auto& nd : nodes) nd->start();
  }

  ~deployment() {
    // Callers wait for quiescence first: a handler still running on a
    // transport thread must not outlive its node.
    nodes.clear();
    probes.clear();
    nets.clear();
    stores.clear();
    wals.clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  deployment(const deployment&) = delete;
  deployment& operator=(const deployment&) = delete;

  [[nodiscard]] std::uint64_t frames_sent() const {
    std::uint64_t n = 0;
    for (const auto& t : nets) n += t->datagrams_sent();
    return n;
  }
  [[nodiscard]] std::uint64_t drops() const {
    std::uint64_t n = 0;
    for (const auto& t : nets) n += t->datagrams_dropped();
    return n;
  }
  [[nodiscard]] std::uint64_t store_calls() const {
    std::uint64_t n = 0;
    for (const auto& s : stores) n += s->store_count();
    return n;
  }
  [[nodiscard]] int stores_in_flight() const {
    int n = 0;
    for (const auto& s : stores) n += s->in_flight();
    return n;
  }

  /// Blocks until no transport has sent a frame and no store has started or
  /// been in progress for `quiet_ms`.
  void wait_quiet(int quiet_ms) const {
    std::uint64_t frames = frames_sent(), calls = store_calls();
    auto since = clock_type::now();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      const std::uint64_t f = frames_sent(), c = store_calls();
      if (f != frames || c != calls || stores_in_flight() > 0) {
        frames = f;
        calls = c;
        since = clock_type::now();
      } else if (seconds_since(since) * 1e3 >= quiet_ms) {
        return;
      }
    }
  }

  history::recorder rec;
  std::vector<media_probe*> media;  // traced only; owned by `wals`
  std::vector<std::unique_ptr<storage::wal_store>> wals;
  std::vector<std::unique_ptr<store_probe>> stores;
  std::vector<std::unique_ptr<runtime::tcp_transport>> nets;
  std::vector<std::unique_ptr<transport_probe>> probes;  // traced only
  std::vector<std::unique_ptr<runtime::node>> nodes;

 private:
  std::filesystem::path dir_;
};

/// Monotonic counters of one deployment; a phase's work is the difference
/// of two reads. The decorator tallies exist only in a traced deployment.
struct counters {
  std::uint64_t drops = 0, store_calls = 0, compactions = 0;
  std::uint64_t appended = 0, appends = 0, append_ns = 0, snapshots = 0, snapshot_ns = 0;
  std::uint64_t frames = 0, wire_bytes = 0;
};

counters read_counters(const deployment& d) {
  counters c;
  c.drops = d.drops();
  c.store_calls = d.store_calls();
  for (const auto& wal : d.wals) c.compactions += wal->compactions();
  for (const media_probe* m : d.media) {
    c.appended += m->appended_bytes();
    c.appends += m->appends().calls;
    c.append_ns += m->appends().ns;
    c.snapshots += m->snapshots().calls;
    c.snapshot_ns += m->snapshots().ns;
  }
  for (const auto& p : d.probes) {
    c.frames += p->frames();
    c.wire_bytes += p->wire_bytes();
  }
  return c;
}

struct span_totals {
  double send_us = 0;
  double handler_self_us = 0;
  double store_us_sum = 0;
  std::uint64_t stores = 0;
  summary wait_us;  // per client op
};

/// Aggregates the recorded spans. A client op's wait is its latency minus
/// the self time of every other span with its request id that started
/// while it ran (sends, handlers and stores on any thread).
span_totals summarize_spans() {
  const std::vector<trace::span> spans = trace::collect();
  span_totals t;
  std::unordered_map<std::uint64_t, std::vector<const trace::span*>> by_req;
  std::vector<const trace::span*> clients;
  for (const trace::span& s : spans) {
    const std::string_view name = s.name;
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (name == "client.read" || name == "client.write") {
      clients.push_back(&s);
      continue;
    }
    if (s.req != 0) by_req[s.req].push_back(&s);
    if (name == "runtime.send") {
      t.send_us += dur_us;
    } else if (name == "runtime.handler") {
      t.handler_self_us += static_cast<double>(s.self_ns) / 1e3;
    } else if (name == "storage.store") {
      t.store_us_sum += dur_us;
      ++t.stores;
    }
  }
  for (const trace::span* c : clients) {
    double self_ns = 0;
    if (const auto it = by_req.find(c->req); c->req != 0 && it != by_req.end()) {
      for (const trace::span* s : it->second) {
        if (s->start_ns >= c->start_ns && s->start_ns <= c->end_ns) {
          self_ns += static_cast<double>(s->self_ns);
        }
      }
    }
    t.wait_us.add((static_cast<double>(c->end_ns - c->start_ns) - self_ns) / 1e3);
  }
  return t;
}

/// Brings up a deployment and preloads every key with a fresh value, noted
/// in `expected`; adds the time both took to `setups`.
std::unique_ptr<deployment> bring_up(const run_options& opt, bool traced, std::uint32_t salt,
                                     std::uint64_t& next_value,
                                     std::vector<std::optional<value>>& expected,
                                     summary& setups) {
  const auto t0 = clock_type::now();
  auto d = std::make_unique<deployment>(opt, traced, salt);
  for (std::uint32_t key = 0; key < kKeys; ++key) {
    value v = make_value(next_value++);
    d->nodes[0]->write(key, v);
    expected[key] = std::move(v);
  }
  setups.add(seconds_since(t0));
  return d;
}

}  // namespace

pass_result run_rt_pass(const run_options& opt, bool traced) {
  pass_result out;
  for (const char* cause : {"aborted", "timeout", "wrong_value"}) out.failed_by_cause[cause] = 0;
  std::filesystem::create_directories(opt.scratch_dir);
  move_to_cpu(opt.cpus, 0);  // threads started from here on inherit it

  // ---- Set-up: the measured deployment's bring-up and preload. The other
  // timed bring-ups are spread over the measurement (see kSetups). ----
  summary setups;
  std::vector<std::optional<value>> expected(kKeys);
  std::uint64_t next_value = 1;
  const std::unique_ptr<deployment> d = bring_up(opt, traced, 0, next_value, expected, setups);

  // ---- Measurement: segments of closed-loop ops, a restart after each. ----
  d->wait_quiet(kQuietMs);
  rng r(opt.seed ^ 0x72745f6b76ULL);
  summary read_us, write_us;
  summary window_reads, window_writes, window_read_p50, window_write_p50;
  summary recover_ms, reopen_us, round_ms, writing, replay_frames, replay_bytes;
  usage used;
  double rss_mb = 0;
  std::uint64_t ops_done = 0, segments = 0;
  int consecutive_failures = 0;
  double measured = 0;
  const counters c0 = read_counters(*d);
  if (traced) trace::reset();
  // Completed ops and seconds of the segments; a traced pass alternates
  // segments with spans on and off, so the tracing overhead compares
  // segments run side by side.
  double plain_done = 0, plain_s = 0, spanned_done = 0, spanned_s = 0;
  std::uint64_t traced_ops = 0;
  runtime::node& client = *d->nodes[0];
  while (measured < opt.seconds && consecutive_failures < kMaxConsecutiveFailures) {
    const bool spans_on = traced && segments % 2 == 0;
    move_to_cpu(opt.cpus, segments);
    trace::enable(spans_on);
    std::uint64_t seg_done = 0;
    const usage u0 = usage_now();
    const auto seg_t0 = clock_type::now();
    std::uint32_t seg_ops = 0;
    for (; seg_ops < kOpsPerSegment && consecutive_failures < kMaxConsecutiveFailures;
         ++seg_ops) {
      const auto key = static_cast<register_id>(r.next_below(kKeys));
      const bool is_read = r.chance(kReadFraction);
      value v;
      if (!is_read) v = make_value(next_value++);
      const auto t0 = clock_type::now();
      try {
        if (is_read) {
          value got;
          {
            trace::span_scope sp("client.read");
            got = client.read(key);
          }
          const double us = seconds_since(t0) * 1e6;
          read_us.add(us);
          window_reads.add(us);
          if (expected[key] && got != *expected[key]) {
            ++out.failed_by_cause["wrong_value"];
            ++out.failed;
          }
        } else {
          {
            trace::span_scope sp("client.write");
            client.write(key, v);
          }
          const double us = seconds_since(t0) * 1e6;
          write_us.add(us);
          window_writes.add(us);
          expected[key] = std::move(v);
        }
        ++seg_done;
        consecutive_failures = 0;
        if (window_reads.count() + window_writes.count() == kWindowOps) {
          window_read_p50.add(window_reads.median());
          window_write_p50.add(window_writes.median());
          window_reads = summary{};
          window_writes = summary{};
        }
      } catch (const operation_aborted&) {
        ++out.failed_by_cause["aborted"];
        ++out.failed;
        ++consecutive_failures;
        if (!is_read) expected[key].reset();  // outcome unknown
      } catch (const driver_error&) {
        ++out.failed_by_cause["timeout"];
        ++out.failed;
        ++consecutive_failures;
        if (!is_read) expected[key].reset();
      }
    }
    const double seg_s = seconds_since(seg_t0);
    const usage u1 = usage_now();
    used.cpu_us += u1.cpu_us - u0.cpu_us;
    used.ctx_switches += u1.ctx_switches - u0.ctx_switches;
    measured += seg_s;
    ops_done += seg_ops;
    ++segments;
    (spans_on ? spanned_done : plain_done) += static_cast<double>(seg_done);
    (spans_on ? spanned_s : plain_s) += seg_s;
    if (spans_on) traced_ops += seg_ops;
    // Memory after a fixed amount of work, so a slow run does not read as a
    // leaner one (the history the recorder keeps grows with every op).
    if (segments == kRssAfterSegments) rss_mb = peak_rss_mb();
    if (consecutive_failures >= kMaxConsecutiveFailures) break;

    // node::pump runs stores outside the node mutex, so nothing may be in
    // flight when node 0 restarts from its WAL files below, nor during a
    // timed bring-up.
    d->wait_quiet(kQuietMs);
    if (!traced && rss_mb > 0 && setups.count() < kSetups &&
        measured >= opt.seconds * static_cast<double>(setups.count()) / kSetups) {
      // The next timed bring-up, of a throwaway deployment, once memory has
      // been read (its peak must not count).
      std::vector<std::optional<value>> values(kKeys);
      std::uint64_t counter = 1;
      const std::unique_ptr<deployment> extra =
          bring_up(opt, false, static_cast<std::uint32_t>(setups.count()), counter, values, setups);
      extra->wait_quiet(kQuietMs);
    }
    client.crash();
    d->wait_quiet(1);
    double recs = 0;
    d->wals[0]->for_each(storage::record_area::writing,
                         [&recs](register_id, const bytes&) { ++recs; });
    writing.add(recs);
    const auto t0 = clock_type::now();
    {
      trace::span_scope sp("storage.reopen");
      d->wals[0]->reopen();
    }
    const auto t1 = clock_type::now();
    try {
      trace::span_scope sp("proto.recover");
      client.recover();
    } catch (const error& e) {
      out.fail(std::string("rt_tcp_kv: node 0 failed to recover: ") + e.what());
      break;
    }
    const auto t2 = clock_type::now();
    reopen_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    round_ms.add(std::chrono::duration<double, std::milli>(t2 - t1).count());
    recover_ms.add(std::chrono::duration<double, std::milli>(t2 - t0).count());
    replay_frames.add(static_cast<double>(d->wals[0]->last_recovery().frames_replayed));
    replay_bytes.add(static_cast<double>(d->wals[0]->last_recovery().bytes_read));
  }
  trace::enable(false);
  d->wait_quiet(kQuietMs);
  if (rss_mb == 0) rss_mb = peak_rss_mb();
  const auto ops = static_cast<double>(ops_done);

  const counters c1 = read_counters(*d);
  auto delta = [&c0, &c1](std::uint64_t counters::*field) {
    return static_cast<double>(c1.*field - c0.*field);
  };

  // ---- Correctness: single client, so every read returned its key's last
  // completed write (checked inline); the history of every eighth key is
  // persistent-atomic.
  const history::history_log h = d->rec.events();
  history::history_log sample;
  for (const history::event& e : h) {
    if (e.kind == history::event_kind::crash || e.kind == history::event_kind::recover ||
        e.reg % kAtomicitySampleEvery == 0) {
      sample.push_back(e);
    }
  }
  const auto verdict = history::check_persistent_atomicity_per_key(sample);
  out.notes.push_back("checked: every read against its key's last completed write; persistent "
                      "atomicity on " + std::to_string(verdict.keys_checked) + " sampled keys");
  if (!verdict.ok) {
    out.fail("persistent atomicity: " + verdict.explanation);
    ++out.failed_by_cause["wrong_value"];
    ++out.failed;
  }
  if (out.failed_by_cause["wrong_value"] > 0) {
    out.fail("a read returned a value other than its key's last completed write");
  }
  if (consecutive_failures >= kMaxConsecutiveFailures) {
    out.fail("rt_tcp_kv: measurement stopped after repeated failed ops");
  }
  out.attempted = ops_done;

  out.e2e["ops_per_s"] = per(plain_done + spanned_done, plain_s + spanned_s);
  out.e2e["read_p50_us"] = window_read_p50.mean();
  out.e2e["write_p50_us"] = window_write_p50.mean();
  out.e2e["recover_ms"] = recover_ms.median();
  out.e2e["setup_s"] = setups.median();
  out.e2e["peak_rss_mb"] = rss_mb;

  out.layer["runtime.read_p99_us"] = read_us.percentile(0.99);
  out.layer["runtime.write_p99_us"] = write_us.percentile(0.99);
  out.layer["runtime.ctx_switches_per_op"] = per(used.ctx_switches, ops);
  out.layer["runtime.cpu_us_per_op"] = per(used.cpu_us, ops);
  out.layer["runtime.drops"] = delta(&counters::drops);
  out.layer["storage.stores_per_op"] = per(delta(&counters::store_calls), ops);
  out.layer["storage.compactions_per_kop"] = per(1e3 * delta(&counters::compactions), ops);
  out.layer["storage.replay_frames_per_recovery"] = replay_frames.mean();
  out.layer["storage.replay_bytes_per_recovery"] = replay_bytes.mean();
  out.layer["storage.reopen_us"] = reopen_us.median();
  out.layer["proto.writing_records_at_restart"] = writing.mean();
  out.layer["proto.recover_round_ms"] = round_ms.median();
  out.layer["history.events_per_op"] = per(static_cast<double>(h.size()), ops + kKeys);
  if (traced) {
    const span_totals t = summarize_spans();
    out.layer["runtime.frames_per_op"] = per(delta(&counters::frames), ops);
    out.layer["runtime.wire_bytes_per_op"] = per(delta(&counters::wire_bytes), ops);
    const auto spanned = static_cast<double>(traced_ops);
    out.layer["runtime.send_us_per_op"] = per(t.send_us, spanned);
    out.layer["runtime.handler_self_us"] = per(t.handler_self_us, spanned);
    out.layer["runtime.wait_us_per_op"] = t.wait_us.mean();
    out.layer["storage.store_us"] = per(t.store_us_sum, static_cast<double>(t.stores));
    out.layer["storage.append_us"] =
        per(delta(&counters::append_ns) / 1e3, delta(&counters::appends));
    out.layer["storage.snapshot_us"] =
        per(delta(&counters::snapshot_ns) / 1e3, delta(&counters::snapshots));
    out.layer["storage.append_bytes_per_op"] = per(delta(&counters::appended), ops);
    out.layer["trace.traced_ops_per_s"] = per(spanned_done, spanned_s);
    out.layer["trace.untraced_ops_per_s"] = per(plain_done, plain_s);
  }

  char detail[160];
  std::snprintf(detail, sizeof detail,
                "; pooled wall p99 read %.1f us, write %.1f us; %zu bring-ups took %.1f-%.1f ms",
                read_us.percentile(0.99), write_us.percentile(0.99), setups.count(),
                1e3 * setups.min(), 1e3 * setups.max());
  out.notes.push_back(
      std::to_string(segments) + " segments of " + std::to_string(kOpsPerSegment) +
      " ops, a node-0 restart after each, on the next CPU after each; " +
      std::to_string(read_us.count()) + " reads, " + std::to_string(write_us.count()) +
      " writes; ops_per_s is ops over segment time, p50s the mean of the p50s of " +
      std::to_string(window_read_p50.count()) + " windows of " + std::to_string(kWindowOps) +
      " ops" + detail);
  d->wait_quiet(kQuietMs);
  return out;
}

}  // namespace perfbench
