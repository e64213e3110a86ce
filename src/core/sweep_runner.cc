#include "src/core/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>

#include "src/simcore/sync.h"

namespace fsio {

namespace {

// Captures the first exception thrown by any worker thread. The mutex guards
// `first_`; the thread-safety analysis proves no worker touches it unlocked.
class ErrorCollector {
 public:
  void Capture() FSIO_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (!first_) {
      first_ = std::current_exception();
    }
  }

  // Called after every worker has joined; rethrows the first captured error.
  void Rethrow() FSIO_EXCLUDES(mu_) {
    std::exception_ptr first;
    {
      MutexLock lock(&mu_);
      first = first_;
    }
    if (first) {
      std::rethrow_exception(first);
    }
  }

 private:
  Mutex mu_;
  std::exception_ptr first_ FSIO_GUARDED_BY(mu_);
};

}  // namespace

SweepRunner::SweepRunner(unsigned threads)
    : threads_(threads > 0 ? threads : DefaultThreads()) {}

unsigned SweepRunner::DefaultThreads() {
  if (const char* env = std::getenv("FSIO_SWEEP_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) {
      return static_cast<unsigned>(parsed);
    }
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::uint64_t SweepRunner::DefaultDeadlineMs() {
  if (const char* env = std::getenv("FSIO_SWEEP_DEADLINE_MS")) {
    const long long parsed = std::strtoll(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::uint64_t>(parsed);
    }
  }
  return 0;
}

void SweepRunner::Run(std::size_t n, const std::function<void(std::size_t)>& fn) const {
  RunCancellable(n, [&fn](std::size_t i, const std::atomic<bool>&) { fn(i); }, 0);
}

SweepRunReport SweepRunner::RunCancellable(
    std::size_t n, const std::function<void(std::size_t, const std::atomic<bool>&)>& fn,
    std::uint64_t deadline_ms) const {
  SweepRunReport report;
  if (n == 0) {
    return report;
  }

  // The watchdog measures HOST wall-clock time, not simulated time: it is
  // harness infrastructure guarding against non-terminating sweep points,
  // and by design only changes behaviour when a point hangs. Simulation
  // results remain wall-clock-free; a timed-out point yields no result.
  struct PointState {
    std::atomic<bool> cancel{false};
    std::atomic<long long> started_ms{-1};  // -1 = not yet claimed
    std::atomic<bool> finished{false};
  };
  std::vector<PointState> states(n);
  const auto now_ms = [] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now()  // fsio-lint: allow(wall-clock)
                   .time_since_epoch())
        .count();
  };

  // Without a deadline there is no watchdog thread and no flag is ever set.
  std::atomic<bool> all_done{false};
  std::thread watchdog;
  if (deadline_ms > 0) {
    watchdog = std::thread([&] {
      const auto tick = std::chrono::milliseconds(
          std::min<std::uint64_t>(deadline_ms / 4 + 1, 50));
      while (!all_done.load(std::memory_order_acquire)) {
        const long long now = now_ms();
        for (PointState& s : states) {
          const long long started = s.started_ms.load(std::memory_order_acquire);
          if (started >= 0 && !s.finished.load(std::memory_order_acquire) &&
              now - started >= static_cast<long long>(deadline_ms)) {
            s.cancel.store(true, std::memory_order_release);
          }
        }
        std::this_thread::sleep_for(tick);  // fsio-lint: allow(wall-clock)
      }
    });
  }

  std::atomic<std::size_t> next{0};
  ErrorCollector errors;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      if (deadline_ms > 0) {
        states[i].started_ms.store(now_ms(), std::memory_order_release);
      }
      try {
        fn(i, states[i].cancel);
      } catch (...) {
        errors.Capture();
      }
      states[i].finished.store(true, std::memory_order_release);
    }
  };

  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(threads_, n));
  if (workers <= 1) {
    worker();  // points run on the calling thread
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
      pool.emplace_back(worker);
    }
    for (auto& thread : pool) {
      thread.join();
    }
  }
  all_done.store(true, std::memory_order_release);
  if (watchdog.joinable()) {
    watchdog.join();
  }
  errors.Rethrow();

  for (std::size_t i = 0; i < n; ++i) {
    if (states[i].cancel.load(std::memory_order_acquire)) {
      report.timed_out.push_back(i);
    }
  }
  report.completed = n - report.timed_out.size();
  return report;
}

}  // namespace fsio
