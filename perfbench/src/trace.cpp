#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {
namespace {

struct open_span {
  std::size_t index = 0;
  std::int64_t child_ns = 0;
};

struct thread_buf {
  std::uint32_t slot = 0;
  std::vector<span> spans;
  std::vector<open_span> open;
};

std::atomic<bool> g_on{false};
std::mutex g_mu;
// Owned here, not by the threads: transport threads exit before collect().
std::vector<std::unique_ptr<thread_buf>> g_bufs;
thread_local thread_buf* t_buf = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_buf& buf() {
  if (t_buf == nullptr) {
    std::lock_guard lk(g_mu);
    g_bufs.push_back(std::make_unique<thread_buf>());
    g_bufs.back()->slot = static_cast<std::uint32_t>(g_bufs.size() - 1);
    t_buf = g_bufs.back().get();
  }
  return *t_buf;
}

}  // namespace

std::uint64_t request_id(std::uint64_t op_seq, std::uint64_t epoch) {
  return (epoch * 0x9e3779b97f4a7c15ULL) ^ (op_seq + 1);
}

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool enabled() { return g_on.load(std::memory_order_relaxed); }

void reset() {
  std::lock_guard lk(g_mu);
  for (auto& b : g_bufs) {
    b->spans.clear();
    b->open.clear();
  }
}

std::vector<span> collect() {
  std::lock_guard lk(g_mu);
  std::vector<span> out;
  for (const auto& b : g_bufs) {
    const auto offset = static_cast<std::int64_t>(out.size());
    for (span s : b->spans) {
      if (s.parent >= 0) s.parent += offset;
      s.thread = b->slot;
      out.push_back(s);
    }
  }
  return out;
}

std::size_t write_tsv(const std::string& path) {
  const std::vector<span> spans = collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "thread\tname\tstart_ns\tend_ns\tself_ns\tparent\treq\n");
  for (const span& s : spans) {
    std::fprintf(f, "%u\t%s\t%lld\t%lld\t%lld\t%lld\t%llx\n", s.thread, s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.self_ns), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.req));
  }
  std::fclose(f);
  return spans.size();
}

void adopt_request(std::uint64_t req) {
  if (t_buf == nullptr || t_buf->open.empty()) return;
  span& s = t_buf->spans[t_buf->open.back().index];
  if (s.req == 0) s.req = req;
}

span_scope::span_scope(const char* name, std::uint64_t req) {
  if (!enabled()) return;
  active_ = true;
  thread_buf& b = buf();
  span s;
  s.name = name;
  if (!b.open.empty()) {
    const span& parent = b.spans[b.open.back().index];
    s.parent = static_cast<std::int64_t>(b.open.back().index);
    if (req == 0) req = parent.req;
  }
  s.req = req;
  s.start_ns = now_ns();
  b.spans.push_back(s);
  b.open.push_back(open_span{b.spans.size() - 1, 0});
}

span_scope::~span_scope() {
  if (!active_) return;
  thread_buf& b = *t_buf;
  if (b.open.empty()) return;  // reset() raced a scope; drop it
  const open_span o = b.open.back();
  b.open.pop_back();
  span& s = b.spans[o.index];
  s.end_ns = now_ns();
  const std::int64_t dur = s.end_ns - s.start_ns;
  s.self_ns = dur - o.child_ns;
  if (!b.open.empty()) b.open.back().child_ns += dur;
}

}  // namespace perfbench::trace
