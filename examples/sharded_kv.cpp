// A sharded replicated key-value store on core::shard_router: each named
// key is one register of the sharded namespace, consistent-hashed onto one
// of four *independent* 3-replica quorum groups running the paper's
// persistent emulation. Capacity scales with shard count (each group has
// its own majority, stable storage, and fault domain), and linearizability
// survives composition because every key lives on exactly one shard —
// verified at the end on the merged multi-shard history.
//
// Compare shard_router_test's
// ShardRouter.CapacityRisesWithShardCountAndMergedHistoriesStayAtomic for
// the throughput story; this demo shows the fault-isolation story —
// replicas of two different shards crash at once and every shard keeps
// serving from its remaining majority — and then the elasticity story: the
// ring grows 4 -> 5 *while those replicas are still down*, the moved keys
// migrate online through the dual-ring window, and the store never stops
// answering.
//
// Two modes:
//
//   $ ./build/sharded_kv                # simulated demo (default, see above)
//   $ ./build/sharded_kv --loopback     # REAL processes over TCP loopback
//
// `--loopback` runs the same sharded layout as actual OS processes: the
// parent hosts replica 0 of every shard (runtime::node over a
// runtime::tcp_transport, WAL stable storage on fsync'd files), and
// fork+execs one child process per remaining replica. It then drives keyed
// operations through its replica-0 nodes — one driver thread per shard —
// and reports wall-clock ops/sec, SIGKILLs one replica mid-run, keeps
// serving on the 2/3 majority, respawns it with `--recover` (the paper's
// Recover() procedure over the surviving WAL), kills a *different* replica
// so the recovered one must carry the majority, and finally reads back
// every key against the expected map (exit nonzero on any mismatch).
// `--smoke` shrinks the op counts for CI. `--replica` is the internal child
// entry point.
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/shard_router.h"
#include "history/keyed.h"
#include "history/tag_order.h"
#include "runtime/node.h"
#include "runtime/tcp_transport.h"
#include "storage/wal_store.h"

namespace {

using namespace remus;

/// String-keyed facade: names map to dense register ids (a real deployment
/// would hash names directly; the registry keeps the demo's ids readable).
class kv_store {
 public:
  kv_store() {
    core::shard_router_config cfg;
    cfg.shards = 4;
    cfg.base.n = 3;
    cfg.base.policy = proto::persistent_policy();
    cfg.base.seed = 2026;
    router_ = std::make_unique<core::shard_router>(cfg);
  }

  void put(const std::string& key, const std::string& val) {
    router_->write(client_, reg_of(key), value_of_string(val));
  }

  [[nodiscard]] std::string get(const std::string& key) {
    const value v = router_->read(client_, reg_of(key));
    return v.is_initial() ? "<missing>" : value_as_string(v);
  }

  [[nodiscard]] std::uint32_t shard_of(const std::string& key) {
    return router_->shard_of(reg_of(key));
  }

  void crash_replica(std::uint32_t shard, std::uint32_t node) {
    router_->submit_crash(shard, process_id{node}, router_->now());
    router_->run_for(1_ms);
  }
  void recover_replica(std::uint32_t shard, std::uint32_t node) {
    router_->submit_recover(shard, process_id{node}, router_->now());
    router_->run_for(5_ms);  // let recovery's replay finish
  }

  /// Grow the ring by one shard, online: open the migration window, let the
  /// background drain move the ~1/(S+1) relocated keys, retire the old
  /// ring. Safe to call while replicas elsewhere are crashed — migration
  /// only needs each source group's stable storage, which survives.
  std::uint32_t grow() {
    const std::uint32_t added = router_->begin_add_shard();
    router_->run_until_idle();  // the drain pump rides the scheduling loop
    router_->finish_add_shard();
    return added;
  }
  [[nodiscard]] std::size_t keys_migrated() const {
    return router_->migrated_key_count();  // handoffs only, not write-backs
  }
  [[nodiscard]] std::uint32_t shard_count() const { return router_->shard_count(); }

  /// Per-key atomicity + Lemma-1 tag order of the merged history.
  [[nodiscard]] bool verify() const {
    const auto atom = history::check_persistent_atomicity_per_key(router_->events());
    if (!atom.ok) {
      std::fprintf(stderr, "atomicity: %s\n", atom.explanation.c_str());
      return false;
    }
    const auto tags = history::check_tag_order_per_key(router_->tagged_operations());
    if (!tags.ok) {
      std::fprintf(stderr, "tag order: %s\n", tags.explanation.c_str());
      return false;
    }
    return true;
  }

 private:
  register_id reg_of(const std::string& key) {
    const auto [it, inserted] =
        regs_.try_emplace(key, static_cast<register_id>(regs_.size()));
    (void)inserted;
    return it->second;
  }

  std::unique_ptr<core::shard_router> router_;
  std::map<std::string, register_id> regs_;
  process_id client_{0};  // ops enter through local replica 0 of each shard
};

// ---- Loopback mode: real processes over TCP --------------------------------

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::uint64_t require_u64(int argc, char** argv, const char* flag) {
  const char* v = flag_value(argc, argv, flag);
  if (v == nullptr) {
    std::fprintf(stderr, "missing %s\n", flag);
    std::exit(2);
  }
  return std::strtoull(v, nullptr, 10);
}

/// Child entry point: one replica process. Serves protocol traffic until
/// killed; the parent's death kills it too (PDEATHSIG), so no orphans.
int run_replica(int argc, char** argv) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  const auto shard = static_cast<std::uint32_t>(require_u64(argc, argv, "--shard"));
  const auto index = static_cast<std::uint32_t>(require_u64(argc, argv, "--index"));
  const auto base_port =
      static_cast<std::uint16_t>(require_u64(argc, argv, "--base-port"));
  const auto n = static_cast<std::uint32_t>(require_u64(argc, argv, "--n"));
  const std::filesystem::path dir = flag_value(argc, argv, "--dir");
  const bool recover = has_flag(argc, argv, "--recover");

  storage::wal_store store(std::make_unique<storage::file_media>(
      dir / ("shard-" + std::to_string(shard)) / std::to_string(index)));
  runtime::tcp_transport_options topt;
  topt.n = n;
  topt.base_port = base_port;
  topt.self = index;
  runtime::tcp_transport net(topt);
  history::recorder rec;
  runtime::node nd(proto::persistent_policy(), process_id{index}, n, store, net,
                   rec, {}, 0x10c0 + shard * 131 + index);
  if (recover) {
    // A respawned process: its volatile state died with the old process, so
    // enter through the paper's Recover() procedure over the surviving WAL
    // (crash() puts the fresh core into the recovering-from state).
    nd.crash();
    nd.recover();
  } else {
    nd.start();
  }
  for (;;) ::pause();
}

bool port_block_free(std::uint16_t base, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
    if (rc != 0) return false;
  }
  return true;
}

std::uint16_t probe_base_port(std::uint32_t count) {
  // Start somewhere pid-dependent so concurrent runs rarely collide; the
  // bind probe catches the rest (a probe-to-use race survives because every
  // replica's bind failure is a loud startup error, not a silent hang).
  std::uint16_t base =
      static_cast<std::uint16_t>(23000 + (::getpid() % 512) * 37 % 20000);
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (port_block_free(base, count)) return base;
    base = static_cast<std::uint16_t>(23000 + (base - 23000 + count + 7) % 20000);
  }
  std::fprintf(stderr, "no free loopback port block found\n");
  std::exit(1);
}

pid_t spawn_replica(const std::string& exe, std::uint32_t shard, std::uint32_t index,
                    std::uint16_t base_port, std::uint32_t n,
                    const std::string& dir, bool recover) {
  std::vector<std::string> args = {exe,
                                   "--replica",
                                   "--shard",
                                   std::to_string(shard),
                                   "--index",
                                   std::to_string(index),
                                   "--base-port",
                                   std::to_string(base_port),
                                   "--n",
                                   std::to_string(n),
                                   "--dir",
                                   dir};
  if (recover) args.push_back("--recover");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Threads do not survive fork; exec immediately (async-signal-safe).
    ::execv(exe.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

/// Parent-side state of one shard: replica 0 lives here, replicas 1..n-1
/// are child processes. Declaration order doubles as teardown order — the
/// node detaches before its transport and store die.
struct shard_host {
  std::unique_ptr<runtime::tcp_transport> net;
  std::unique_ptr<storage::wal_store> store;
  std::unique_ptr<history::recorder> rec;
  std::unique_ptr<runtime::node> nd;
  std::vector<pid_t> children;          // replica i at children[i - 1]
  std::vector<std::uint32_t> expected;  // per key: last written value (0 = none)
};

int run_loopback(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::uint32_t shards = smoke ? 2 : 4;
  const std::uint32_t n = 3;
  const std::uint32_t keys = smoke ? 16 : 64;
  const std::uint32_t phase_ops = smoke ? 80 : 500;  // per shard per phase

  char exe_buf[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe_buf, sizeof(exe_buf) - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 1;
  }
  const std::string exe(exe_buf, static_cast<std::size_t>(exe_len));

  const std::uint16_t base_port = probe_base_port(shards * n);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("remus-loopback-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  std::printf("loopback: %u shards x %u replicas, ports %u..%u, dir %s\n", shards,
              n, base_port, base_port + shards * n - 1, dir.c_str());
  std::printf("parent hosts replica 0 of each shard; %u child processes\n",
              shards * (n - 1));

  std::vector<shard_host> hosts(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shard_host& h = hosts[s];
    const auto shard_base = static_cast<std::uint16_t>(base_port + s * n);
    for (std::uint32_t i = 1; i < n; ++i) {
      h.children.push_back(spawn_replica(exe, s, i, shard_base, n, dir, false));
    }
    runtime::tcp_transport_options topt;
    topt.n = n;
    topt.base_port = shard_base;
    topt.self = 0;
    h.net = std::make_unique<runtime::tcp_transport>(topt);
    h.store = std::make_unique<storage::wal_store>(
        std::make_unique<storage::file_media>(dir / ("shard-" + std::to_string(s)) /
                                              "0"));
    h.rec = std::make_unique<history::recorder>();
    h.nd = std::make_unique<runtime::node>(proto::persistent_policy(), process_id{0},
                                           n, *h.store, *h.net, *h.rec,
                                           runtime::node_options{}, 0x909 + s);
    h.nd->start();
    h.expected.assign(keys, 0);
  }

  const auto kill_children = [&] {
    for (shard_host& h : hosts) {
      for (const pid_t pid : h.children) {
        if (pid > 0) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, nullptr, 0);
        }
      }
    }
  };

  std::atomic<bool> failed{false};
  // One driver thread per shard: `ops` alternating write/read operations on
  // the shard's key space. Reads are checked against the expected map on the
  // spot — with a single client per shard, a read must return exactly the
  // last completed write.
  const auto run_phase = [&](const std::vector<std::uint32_t>& shard_ids,
                             std::uint32_t ops, std::uint32_t phase) -> double {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> drivers;
    drivers.reserve(shard_ids.size());
    for (const std::uint32_t s : shard_ids) {
      drivers.emplace_back([&, s] {
        shard_host& h = hosts[s];
        try {
          for (std::uint32_t op = 0; op < ops; ++op) {
            const std::uint32_t key = (op * 7 + phase) % keys;
            const auto reg = static_cast<register_id>(key);
            if (op % 2 == 0) {
              const std::uint32_t val = (phase << 24) | (s << 16) | (op + 1);
              h.nd->write(reg, value_of_u32(val));
              h.expected[key] = val;
            } else {
              const value v = h.nd->read(reg);
              const std::uint32_t want = h.expected[key];
              const bool ok = want == 0 ? v.is_initial()
                                        : (!v.is_initial() && value_as_u32(v) == want);
              if (!ok) {
                std::fprintf(stderr,
                             "shard %u key %u: read mismatch (want %u)\n", s, key,
                             want);
                failed = true;
                return;
              }
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "shard %u driver failed: %s\n", s, e.what());
          failed = true;
        }
      });
    }
    for (std::thread& t : drivers) t.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };

  std::vector<std::uint32_t> all_shards(shards);
  for (std::uint32_t s = 0; s < shards; ++s) all_shards[s] = s;

  // Phase 1: all shards healthy.
  const double t1 = run_phase(all_shards, phase_ops, 1);
  const double rate1 = static_cast<double>(phase_ops) * shards / t1;
  std::printf("phase 1 (healthy):   %u ops over %u shards in %.2fs — %.0f ops/sec wall clock\n",
              phase_ops * shards, shards, t1, rate1);

  // Kill replica 2 of shard 0: the shard keeps serving on its 2/3 majority.
  std::printf("SIGKILL shard 0 replica 2 — serving on the remaining majority\n");
  ::kill(hosts[0].children[1], SIGKILL);
  ::waitpid(hosts[0].children[1], nullptr, 0);
  hosts[0].children[1] = -1;
  const double t2 = run_phase({0}, phase_ops, 2);
  std::printf("phase 2 (degraded):  %u ops on shard 0 in %.2fs — %.0f ops/sec\n",
              phase_ops, t2, static_cast<double>(phase_ops) / t2);

  // Respawn it with --recover: Recover() replays the WAL and rejoins. Then
  // kill a DIFFERENT replica, so the recovered one must carry the majority —
  // if recovery were broken, phase 3 would stall or serve stale state.
  std::printf("respawn shard 0 replica 2 with --recover\n");
  hosts[0].children[1] = spawn_replica(
      exe, 0, 2, static_cast<std::uint16_t>(base_port + 0 * n), n, dir, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  std::printf("SIGKILL shard 0 replica 1 — recovered replica must carry the quorum\n");
  ::kill(hosts[0].children[0], SIGKILL);
  ::waitpid(hosts[0].children[0], nullptr, 0);
  hosts[0].children[0] = -1;
  const double t3 = run_phase({0}, phase_ops, 3);
  std::printf("phase 3 (recovered): %u ops on shard 0 in %.2fs — %.0f ops/sec\n",
              phase_ops, t3, static_cast<double>(phase_ops) / t3);

  // Final audit: read back every key of every shard against the expected map.
  std::uint32_t checked = 0;
  for (std::uint32_t s = 0; s < shards && !failed; ++s) {
    shard_host& h = hosts[s];
    for (std::uint32_t key = 0; key < keys; ++key) {
      try {
        const value v = h.nd->read(static_cast<register_id>(key));
        const std::uint32_t want = h.expected[key];
        const bool ok =
            want == 0 ? v.is_initial() : (!v.is_initial() && value_as_u32(v) == want);
        if (!ok) {
          std::fprintf(stderr, "audit: shard %u key %u mismatch (want %u)\n", s, key,
                       want);
          failed = true;
          break;
        }
        ++checked;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "audit: shard %u key %u failed: %s\n", s, key, e.what());
        failed = true;
        break;
      }
    }
  }

  kill_children();
  hosts.clear();  // nodes detach, transports stop, stores close
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const double total_ops = 3.0 * phase_ops + phase_ops * (shards - 1) + checked;
  std::printf("audit: %u/%u keys match after kill+recover: %s\n", checked,
              shards * keys, failed ? "NO" : "yes");
  std::printf("loopback run %s: %.0f total ops, aggregate healthy-phase rate %.0f ops/sec\n",
              failed ? "FAILED" : "ok", total_ops, rate1);
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--replica")) return run_replica(argc, argv);
  if (has_flag(argc, argv, "--loopback")) return run_loopback(argc, argv);
  kv_store store;

  std::printf("populating...\n");
  store.put("region", "eu-west");
  store.put("quota/alice", "120GB");
  store.put("quota/bob", "80GB");
  store.put("feature/dark-mode", "on");

  std::printf("region           = %s\n", store.get("region").c_str());
  std::printf("quota/alice      = %s\n", store.get("quota/alice").c_str());

  // Crash one replica in quota/bob's shard AND one in feature/dark-mode's:
  // independent fault domains, both keep a 2/3 majority and keep serving.
  const std::uint32_t shard_bob = store.shard_of("quota/bob");
  const std::uint32_t shard_dark = store.shard_of("feature/dark-mode");
  if (shard_bob == shard_dark) {
    // The demo's fault-isolation story needs two distinct shards; crashing
    // two replicas of the SAME 3-replica shard would lose its majority and
    // hang the next synchronous put. Fail loudly if an edit to the demo
    // keys (or the ring defaults) ever breaks the premise.
    std::fprintf(stderr,
                 "demo premise broken: both keys hash to shard %u — pick "
                 "different demo keys\n",
                 shard_bob);
    return 1;
  }
  std::printf("crashing replica 2 of shard %u and replica 1 of shard %u...\n",
              shard_bob, shard_dark);
  store.crash_replica(shard_bob, 2);
  store.crash_replica(shard_dark, 1);
  store.put("quota/bob", "200GB");
  store.put("feature/dark-mode", "off");
  std::printf("quota/bob        = %s (served by the remaining majority)\n",
              store.get("quota/bob").c_str());
  std::printf("feature/dark-mode= %s (served by the remaining majority)\n",
              store.get("feature/dark-mode").c_str());

  // A burst of per-user state, so the upcoming rebalance has a real
  // namespace to move (~1/5 of these keys will change owner).
  for (int u = 0; u < 20; ++u) {
    store.put("user/" + std::to_string(u), "profile-v" + std::to_string(u));
  }

  // Grow the fleet WHILE the two replicas are still down: capacity problems
  // rarely wait for a fully healthy cluster. The moved keys migrate online
  // (reads answer from the old shards through the window; state transfers
  // through stable storage, which the crashed replicas kept).
  std::printf("growing the ring %u -> %u with both replicas still down...\n",
              store.shard_count(), store.shard_count() + 1);
  const std::uint32_t added = store.grow();
  std::printf("shard %u joined; %zu key migrations recorded, store kept serving:\n",
              added, store.keys_migrated());
  std::printf("region           = %s\n", store.get("region").c_str());
  std::printf("quota/alice      = %s\n", store.get("quota/alice").c_str());
  std::printf("quota/bob        = %s\n", store.get("quota/bob").c_str());

  store.recover_replica(shard_bob, 2);
  store.recover_replica(shard_dark, 1);
  std::printf("replicas recovered\n");
  store.put("quota/bob", "250GB");
  std::printf("quota/bob        = %s\n", store.get("quota/bob").c_str());

  const bool ok = store.verify();
  std::printf("merged multi-shard history atomic per key: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
