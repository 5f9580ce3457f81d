#include "sim/driver.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace remus::sim {

struct worker_pool::threads {
  explicit threads(std::uint32_t count) {
    pool.reserve(count);
    try {
      for (std::uint32_t i = 0; i < count; ++i) pool.emplace_back([this] { worker_loop(); });
    } catch (...) {
      stop_and_join();  // the threads already started hold `this`
      throw;
    }
  }
  ~threads() { stop_and_join(); }
  threads(const threads&) = delete;
  threads& operator=(const threads&) = delete;

  void stop_and_join() {
    {
      std::lock_guard lk(mu);
      stop = true;
    }
    start_cv.notify_all();
    for (auto& t : pool) t.join();
  }

  /// Claim indices until exhausted; record the first exception. One index at
  /// a time under the lock, fn outside it: shards are coarse units (a whole
  /// event-queue chunk each), so the lock is cold.
  void work() {
    std::unique_lock lk(mu);
    while (next < count) {
      const std::uint32_t i = next++;
      const auto* f = fn;
      ++inflight;
      lk.unlock();
      try {
        (*f)(i);
      } catch (...) {
        lk.lock();
        if (!error) error = std::current_exception();
        --inflight;
        continue;
      }
      lk.lock();
      --inflight;
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock lk(mu);
        start_cv.wait(lk, [&] { return stop || round != seen; });
        if (stop) return;
        seen = round;
      }
      work();
      {
        std::lock_guard lk(mu);
        if (next >= count && inflight == 0) done_cv.notify_all();
      }
    }
  }

  void run(std::uint32_t n, const std::function<void(std::uint32_t)>& f) {
    {
      std::lock_guard lk(mu);
      count = n;
      fn = &f;
      next = 0;
      inflight = 0;
      error = nullptr;
      ++round;
    }
    start_cv.notify_all();
    work();  // the caller is a worker too
    std::unique_lock lk(mu);
    done_cv.wait(lk, [&] { return next >= count && inflight == 0; });
    fn = nullptr;
    if (error) {
      auto e = error;
      error = nullptr;
      lk.unlock();
      std::rethrow_exception(e);
    }
  }

  std::mutex mu;
  std::condition_variable start_cv;  // workers wait for a new round
  std::condition_variable done_cv;   // caller waits for the barrier
  std::uint64_t round = 0;           // bumped per run call
  std::uint32_t count = 0;
  const std::function<void(std::uint32_t)>* fn = nullptr;
  std::uint32_t next = 0;      // next unclaimed index (guarded by mu)
  std::uint32_t inflight = 0;  // fn calls started but not finished
  std::exception_ptr error;
  bool stop = false;
  std::vector<std::thread> pool;  // workers - 1 threads; the caller is the last
};

worker_pool::worker_pool(std::uint32_t workers) {
  if (workers > 1) threads_ = std::make_unique<threads>(workers - 1);
}

worker_pool::~worker_pool() = default;
worker_pool::worker_pool(worker_pool&&) noexcept = default;
worker_pool& worker_pool::operator=(worker_pool&&) noexcept = default;

void worker_pool::run_indexed(std::uint32_t count,
                              const std::function<void(std::uint32_t)>& fn) {
  if (!threads_ || count <= 1) {
    // No thread, or nothing to parallelize: skip the wakeup round-trip.
    for (std::uint32_t i = 0; i < count; ++i) fn(i);
    return;
  }
  threads_->run(count, fn);
}

std::uint32_t worker_pool::workers() const noexcept {
  return threads_ ? static_cast<std::uint32_t>(threads_->pool.size()) + 1 : 1;
}

}  // namespace remus::sim
