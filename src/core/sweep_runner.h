// SweepRunner: runs independent sweep points on a thread pool.
//
// Every figure bench and the fsio_sim CLI sweep the same shape: a list of
// (mode, x) points, each of which builds its own Testbed/Cluster and runs a
// fully independent, single-threaded, deterministic simulation. Those points
// share no mutable state (the simulator has no cross-instance globals; see
// src/simcore/log.h for the one config-only static), so they parallelize
// trivially: results land in a slot-per-point vector and are emitted in
// point order afterwards, making a parallel sweep byte-identical to a serial
// one.
//
//   SweepRunner runner;                         // hardware threads by default
//   auto results = runner.Map<WindowResult>(points.size(), [&](std::size_t i) {
//     return RunPoint(points[i]);               // independent sim per point
//   });
//
// The FSIO_SWEEP_THREADS environment variable overrides the default thread
// count (set it to 1 to force serial execution).
//
// Thread safety: RunCancellable() (which Run() calls) is the simulator's
// only thread-spawn point. Workers share exactly three things: the atomic
// point index, the mutex-guarded ErrorCollector (sweep_runner.cc, annotated
// for Clang's thread-safety analysis), and the caller's `fn`, which must
// confine each point's mutable state to its own index i (the Map()
// slot-per-point pattern guarantees that for results). The deadline
// watchdog reads only each point's atomic start/finish/cancel flags.
// Everything a point touches beyond its slot must be instance-owned
// (Cluster/Testbed) or a Logger call; the TSan CI preset
// (FSIO_SANITIZE=thread) enforces this on every PR.
#ifndef FASTSAFE_SRC_CORE_SWEEP_RUNNER_H_
#define FASTSAFE_SRC_CORE_SWEEP_RUNNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace fsio {

// Outcome of a cancellable sweep (RunCancellable). Points that hit the
// deadline are cancelled cooperatively and listed in `timed_out` (ascending);
// all other points still run to completion, so callers get partial results
// plus a precise list of what is missing.
struct SweepRunReport {
  std::size_t completed = 0;
  std::vector<std::size_t> timed_out;
  bool ok() const { return timed_out.empty(); }
};

class SweepRunner {
 public:
  // threads == 0 selects DefaultThreads().
  explicit SweepRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  // Runs fn(i) for every i in [0, n), at most threads() concurrently: the
  // no-deadline case of RunCancellable(). Returns when all points completed;
  // the first exception thrown by any point is rethrown here.
  void Run(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  // Convenience: results[i] = fn(i). Result must be default-constructible.
  template <typename Result, typename Fn>
  std::vector<Result> Map(std::size_t n, Fn&& fn) const {
    std::vector<Result> results(n);
    Run(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

  // Like Run(), but with a per-point wall-clock deadline watchdog. Each
  // point receives a cancel flag that flips to true once the point has been
  // running for `deadline_ms`; `fn` must poll it at convenient boundaries
  // (e.g. between RunUntil slices) and return early when set — cancellation
  // is cooperative, a point that never polls is never interrupted.
  // deadline_ms == 0 disables the watchdog entirely (no extra thread; flag
  // stays false). Which points time out depends on host speed, so callers
  // must treat `timed_out` as an error report, never as data.
  SweepRunReport RunCancellable(
      std::size_t n,
      const std::function<void(std::size_t, const std::atomic<bool>&)>& fn,
      std::uint64_t deadline_ms) const;

  // FSIO_SWEEP_THREADS if set (clamped to >= 1), else hardware concurrency.
  static unsigned DefaultThreads();

  // FSIO_SWEEP_DEADLINE_MS if set to a positive integer, else 0 (disabled).
  static std::uint64_t DefaultDeadlineMs();

 private:
  unsigned threads_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_CORE_SWEEP_RUNNER_H_
