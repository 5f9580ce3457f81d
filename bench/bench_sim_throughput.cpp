// Simulator-engine throughput: events/sec and heap allocations/event.
//
// Unlike the other bench binaries (which reproduce paper figures in simulated
// time), this one measures the simulator itself: every experiment we run is
// bounded by how fast the discrete-event core can push events, so events/sec
// is the single multiplier on the whole bench suite. Three workloads:
//
//   * queue microbench — the event queue alone, steady state; the
//     zero-allocation invariant is checked here (allocs/event must be 0),
//   * fault-free      — 3 processes running a full read/write protocol
//     workload end to end (the ISSUE's headline number),
//   * crash-heavy     — 5 processes under rolling minority crash/recovery
//     churn (fault-injection replay throughput).
//
//   * parallel router — 8 independent shards advanced by the worker-pool
//     driver (`--threads N`, default min(8, hardware)): aggregate wall-clock
//     events/sec at 1 worker vs the pool, the multi-threaded simulator's
//     headline.
//
// Run with --smoke for a CI-sized run, --json[=PATH] for machine-readable
// output (BENCH_sim_throughput.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "bench_util.h"
#include "core/shard_router.h"

// ---- Global allocation counting ---------------------------------------------
// Replacing the global throwing operators is enough: the nothrow and array
// forms forward here by default. Counting is process-wide, which is exactly
// what "allocations per simulated event" should charge. Atomic (relaxed)
// because the parallel-router workload allocates from pool threads; relaxed
// is fine — the benches only read the counters at quiescent points.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace remus;
using namespace remus::bench;

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

struct engine_result {
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
  double allocs_per_event = 0;
  std::uint64_t completed_ops = 0;
};

void finalize(engine_result& r) {
  r.events_per_sec = r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.events) / r.wall_ms : 0;
  r.allocs_per_event =
      r.events > 0 ? static_cast<double>(r.allocs) / static_cast<double>(r.events) : 0;
}

// ---- Workload 1: the event queue alone --------------------------------------
// A ring of self-rescheduling events sized like the cluster's message traffic.
// The typed-event mode must run allocation-free in steady state — that is the
// invariant this refactor establishes and CI enforces. The thunk mode keeps
// the generic std::function fallback honest (one closure allocation/event).

engine_result run_queue_microbench(std::uint64_t total_events, bool typed) {
  sim::event_queue q;
  constexpr int kOutstanding = 64;  // typical in-flight event count for n=5

  struct ring_executor final : sim::sim_executor {
    sim::event_queue* q = nullptr;
    std::uint64_t remaining = 0;
    void execute(sim::sim_event& ev) override {
      if (remaining == 0) return;
      --remaining;
      // Fixed period, staggered lanes: the pending count never exceeds the
      // slots the first lap took, so the steady state is allocation-free.
      q->schedule_plain(q->now() + 4096, sim::event_kind::timer, ev.target, ev.a,
                        ev.incarnation);
    }
  } exec;
  exec.q = &q;
  exec.remaining = total_events;
  q.set_executor(&exec);

  // Thunk mode's closure must outlive the drain loop below (queued events
  // capture a reference to it).
  std::function<void(std::uint64_t)> fire;
  if (typed) {
    for (int i = 0; i < kOutstanding; ++i) {
      q.schedule_plain(4096 + i, sim::event_kind::timer, process_id{0},
                       static_cast<std::uint64_t>(i), 1);
    }
  } else {
    // Payload sized like a message-delivery closure (destination,
    // incarnation, shared payload pointer): too big for std::function's
    // inline buffer, so every schedule allocates one closure.
    struct delivery_payload {
      std::uint64_t target;
      std::uint64_t incarnation;
      const void* msg;
    };
    fire = [&](std::uint64_t slot) {
      if (exec.remaining == 0) return;
      --exec.remaining;
      const delivery_payload pl{slot, exec.remaining, &q};
      q.schedule_after(4096, [&fire, pl] { fire(pl.target); });
    };
    for (int i = 0; i < kOutstanding; ++i) fire(static_cast<std::uint64_t>(i));
  }

  // Warm up half the events, then measure the steady state.
  const std::uint64_t warm = total_events / 2;
  while (q.executed() < warm && q.step()) {
  }
  engine_result r;
  const std::uint64_t a0 = allocs_now();
  const std::uint64_t e0 = q.executed();
  const auto t0 = clock_type::now();
  while (q.step()) {
  }
  r.wall_ms = ms_since(t0);
  r.events = q.executed() - e0;
  r.allocs = allocs_now() - a0;
  finalize(r);
  return r;
}

// ---- Workload 2: fault-free protocol traffic --------------------------------
// Every process queues its whole op script up front (ops dispatch back to back
// per process), so the run is a sustained 3-node read/write storm.

engine_result run_fault_free(std::uint32_t n, int ops_per_process, std::uint64_t seed) {
  auto cfg = paper_testbed(proto::persistent_policy(), n, seed);
  core::cluster c(cfg);
  std::uint32_t v = 1;
  std::vector<core::cluster::op_handle> handles;
  auto enqueue = [&](int count) {
    for (int i = 0; i < count; ++i) {
      handles.push_back(c.submit_write(process_id{0}, value_of_u32(v++), c.now()));
      for (std::uint32_t p = 1; p < n; ++p) {
        handles.push_back(c.submit_read(process_id{p}, c.now()));
      }
    }
  };

  // Warmup: reach steady state (pools filled, tables at capacity).
  enqueue(ops_per_process / 8 + 1);
  c.run_until_idle();
  handles.clear();

  enqueue(ops_per_process);
  engine_result r;
  const std::uint64_t a0 = allocs_now();
  const std::uint64_t e0 = c.events_executed();
  const auto t0 = clock_type::now();
  c.run_until_idle();
  r.wall_ms = ms_since(t0);
  r.events = c.events_executed() - e0;
  r.allocs = allocs_now() - a0;
  for (const auto h : handles) {
    if (c.result(h).completed) ++r.completed_ops;
  }
  finalize(r);
  return r;
}

// ---- Workload 3: crash-heavy churn ------------------------------------------
// Rolling minority crash/recovery while ops flow from every process: the
// blackbox fault-injection replay pattern.

engine_result run_crash_heavy(int rounds, std::uint64_t seed) {
  constexpr std::uint32_t kN = 5;
  auto cfg = paper_testbed(proto::persistent_policy(), kN, seed);
  cfg.policy.retransmit_delay = 5_ms;
  core::cluster c(cfg);
  rng r(seed);

  std::vector<core::cluster::op_handle> handles;
  std::uint32_t v = 1;
  std::uint32_t who = 0;
  for (int round = 0; round < rounds; ++round) {
    const time_ns t0 = static_cast<time_ns>(round) * 100_ms;
    for (time_ns t = t0; t < t0 + 100_ms; t += 5_ms) {
      for (std::uint32_t p = 0; p < kN; ++p) {
        const time_ns at = t + r.next_in(0, 4_ms);
        if (r.chance(0.5)) {
          handles.push_back(c.submit_write(process_id{p}, value_of_u32(v++), at));
        } else {
          handles.push_back(c.submit_read(process_id{p}, at));
        }
      }
    }
    // Two processes bounce for 40 ms every round (always a minority).
    const process_id a{who % kN};
    const process_id b{(who + 1) % kN};
    who += 2;
    c.submit_crash(a, t0 + 20_ms);
    c.submit_crash(b, t0 + 21_ms);
    c.submit_recover(a, t0 + 60_ms);
    c.submit_recover(b, t0 + 61_ms);
  }

  engine_result r2;
  const std::uint64_t a0 = allocs_now();
  const std::uint64_t e0 = c.events_executed();
  const auto t0 = clock_type::now();
  c.run_until_idle(200'000'000);
  r2.wall_ms = ms_since(t0);
  r2.events = c.events_executed() - e0;
  r2.allocs = allocs_now() - a0;
  for (const auto h : handles) {
    if (c.result(h).completed) ++r2.completed_ops;
  }
  finalize(r2);
  return r2;
}

// ---- Workload 4: parallel shard fan-out -------------------------------------
// Eight independent quorum groups behind a shard_router, advanced by the
// worker-pool driver. The same workload runs at workers=1 and workers=pool;
// virtual-time results are bit-identical (the determinism pin's territory),
// so the two rows differ only in wall clock — aggregate events/sec across
// all shards is the multi-threaded simulator's headline number.

engine_result run_parallel_router(std::uint32_t workers, int ops, std::uint64_t seed) {
  core::shard_router_config cfg;
  cfg.shards = 8;
  cfg.base = paper_testbed(proto::persistent_policy(), 3, seed);
  cfg.workers = workers;
  core::shard_router router(cfg);

  rng wr(seed ^ 0x5eed);
  std::uint32_t v = 1;
  time_ns t = 0;
  std::vector<core::shard_router::op_handle> handles;
  for (int i = 0; i < ops; ++i) {
    for (std::uint32_t p = 0; p < router.procs_per_shard(); ++p) {
      const register_id reg = wr.next_below(256);
      if (wr.chance(0.5)) {
        handles.push_back(router.submit_write(process_id{p}, reg, value_of_u32(v++), t));
      } else {
        handles.push_back(router.submit_read(process_id{p}, reg, t));
      }
      t += 100_us;
    }
  }

  engine_result r;
  const std::uint64_t a0 = allocs_now();
  const auto t0 = clock_type::now();
  router.run_until_idle(2'000'000'000);
  r.wall_ms = ms_since(t0);
  r.events = router.events_executed();
  r.allocs = allocs_now() - a0;
  for (const auto h : handles) {
    if (router.result(h).completed) ++r.completed_ops;
  }
  finalize(r);
  return r;
}

void add_row(metrics::table& t, const char* name, const engine_result& r) {
  t.add_row({name, metrics::table::num(r.events_per_sec / 1e6, 2),
             metrics::table::num(r.allocs_per_event, 3),
             metrics::table::num(static_cast<double>(r.events), 0),
             metrics::table::num(r.wall_ms, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = flag_present(argc, argv, "--smoke");
  const std::uint64_t queue_events = smoke ? 200'000 : 4'000'000;
  const int ff_ops = smoke ? 300 : 5000;
  const int churn_rounds = smoke ? 2 : 20;
  // Wall-clock noise (frequency scaling, noisy neighbours) dominates single
  // runs, so cluster workloads report the best of a few repetitions.
  const int reps = smoke ? 2 : 3;

  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t threads_flag = flag_u32(argc, argv, "--threads", 0);
  const std::uint32_t pool = threads_flag != 0 ? threads_flag : std::min(8u, hw);
  const int router_ops = smoke ? 250 : 1500;

  const auto qt = run_queue_microbench(queue_events, /*typed=*/true);
  const auto qf = run_queue_microbench(queue_events, /*typed=*/false);
  engine_result ff, ch, rt1, rtn;
  for (int i = 0; i < reps; ++i) {
    const auto f = run_fault_free(3, ff_ops, 1);
    if (f.events_per_sec > ff.events_per_sec) ff = f;
    const auto c = run_crash_heavy(churn_rounds, 7);
    if (c.events_per_sec > ch.events_per_sec) ch = c;
    const auto r1 = run_parallel_router(1, router_ops, 3);
    if (r1.events_per_sec > rt1.events_per_sec) rt1 = r1;
    const auto rn = run_parallel_router(pool, router_ops, 3);
    if (rn.events_per_sec > rtn.events_per_sec) rtn = rn;
  }
  const double router_speedup =
      rt1.events_per_sec > 0 ? rtn.events_per_sec / rt1.events_per_sec : 0;

  std::printf("== Simulator engine throughput (%s, best of %d) ==\n",
              smoke ? "smoke" : "full", reps);
  metrics::table t({"workload", "Mevents/s", "allocs/event", "events", "wall ms"});
  add_row(t, "queue typed events", qt);
  add_row(t, "queue thunk fallback", qf);
  add_row(t, "fault-free n=3", ff);
  add_row(t, "crash-heavy n=5", ch);
  add_row(t, "router s8 w1", rt1);
  const std::string rtn_name = "router s8 w" + std::to_string(pool);
  add_row(t, rtn_name.c_str(), rtn);
  std::printf("%s", t.render().c_str());
  std::printf("(fault-free completed %llu ops, crash-heavy %llu; typed queue "
              "steady state must stay at 0 allocs/event; router pair is the\n"
              " same 8-shard workload at 1 vs %u workers — %.2fx aggregate "
              "wall-clock on %u hw threads, virtual results identical)\n\n",
              static_cast<unsigned long long>(ff.completed_ops),
              static_cast<unsigned long long>(ch.completed_ops), pool,
              router_speedup, hw);

  json_report rep("sim_throughput");
  rep.set("mode", smoke ? "smoke" : "full");
  rep.set("queue_typed_events_per_sec", qt.events_per_sec);
  rep.set("queue_typed_allocs_per_event", qt.allocs_per_event);
  rep.set("queue_thunk_events_per_sec", qf.events_per_sec);
  rep.set("queue_thunk_allocs_per_event", qf.allocs_per_event);
  rep.set("fault_free_events_per_sec", ff.events_per_sec);
  rep.set("fault_free_allocs_per_event", ff.allocs_per_event);
  rep.set("fault_free_events", static_cast<double>(ff.events));
  rep.set("fault_free_completed_ops", static_cast<double>(ff.completed_ops));
  rep.set("crash_heavy_events_per_sec", ch.events_per_sec);
  rep.set("crash_heavy_allocs_per_event", ch.allocs_per_event);
  rep.set("crash_heavy_events", static_cast<double>(ch.events));
  rep.set("crash_heavy_completed_ops", static_cast<double>(ch.completed_ops));
  rep.set("hardware_concurrency", static_cast<double>(hw));
  rep.set("router8_workers", static_cast<double>(pool));
  rep.set("router8_events_per_sec_w1", rt1.events_per_sec);
  rep.set("router8_events_per_sec_wN", rtn.events_per_sec);
  rep.set("router8_wall_speedup", router_speedup);
  rep.set("router8_completed_ops", static_cast<double>(rtn.completed_ops));
  rep.write_if_requested(argc, argv);

  // Worker count must never change the emulation: same events, same
  // completions at 1 worker and at the pool.
  if (rt1.events != rtn.events || rt1.completed_ops != rtn.completed_ops) {
    std::fprintf(stderr,
                 "FAIL: worker pool changed simulated results "
                 "(events %llu vs %llu, ops %llu vs %llu)\n",
                 static_cast<unsigned long long>(rt1.events),
                 static_cast<unsigned long long>(rtn.events),
                 static_cast<unsigned long long>(rt1.completed_ops),
                 static_cast<unsigned long long>(rtn.completed_ops));
    return 1;
  }

  // CI gate: the typed steady-state queue must be allocation-free per event.
  // A handful of one-time container high-water growths are amortized O(0);
  // anything approaching one allocation per event — the regression this
  // bench exists to catch — is orders of magnitude above this threshold.
  if (flag_present(argc, argv, "--require-zero-alloc") &&
      qt.allocs_per_event > 1.0 / 10'000.0) {
    std::fprintf(stderr, "FAIL: typed queue steady state allocates (%f allocs/event)\n",
                 qt.allocs_per_event);
    return 1;
  }
  return 0;
}
