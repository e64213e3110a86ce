// Generic counterexample shrinker (shortest-failing-prefix binary search +
// chunked ddmin to a fixpoint) and the one counterexample path built on it:
// ShrinkCounterexample shrinks, bounds, writes and replays a failure, and
// ReplayReproFile is --replay. Each checker hands both a ReproChecker
// (DifferentialHarness::Checker, check::TraceChecker, fsio_chaos's
// ChaosChecker).
//
// Requirements on the caller: any subsequence of a failing sequence must
// still be executable (ops reference targets modulo live pools, or disabled
// steps replay as no-ops), and failure must be monotone in the prefix — a
// prefix failing at index i keeps failing there for every longer prefix.
#ifndef FASTSAFE_SRC_REFMODEL_SHRINK_H_
#define FASTSAFE_SRC_REFMODEL_SHRINK_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cli/repro.h"

namespace fsio {

template <typename Op, typename Result>
struct ShrunkSequence {
  std::vector<Op> ops;      // minimal failing subsequence
  Result result;            // result of running the minimal sequence
  std::uint32_t runs = 0;   // run() invocations spent shrinking
};

// Shrinks `ops`, known to fail at `fail_index` with result `first`, to a
// local minimum. `run(candidate)` executes a candidate subsequence and
// returns a Result; `failed(result)` says whether the failure reproduced.
template <typename Op, typename Result, typename RunFn, typename FailPred>
ShrunkSequence<Op, Result> ShrinkSequence(std::vector<Op> ops, std::size_t fail_index,
                                          const Result& first, RunFn&& run, FailPred&& failed) {
  ShrunkSequence<Op, Result> out;
  // Everything after the failing op is irrelevant by construction.
  if (fail_index + 1 < ops.size()) {
    ops.resize(fail_index + 1);
  }
  out.result = first;

  // Binary-search the shortest failing prefix: execution up to the failing
  // index is identical for every longer prefix (monotonicity requirement).
  std::size_t lo = 1;
  std::size_t hi = ops.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::vector<Op> prefix(ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(mid));
    Result r = run(prefix);
    ++out.runs;
    if (failed(r)) {
      hi = mid;
      out.result = std::move(r);
    } else {
      lo = mid + 1;
    }
  }
  ops.resize(lo);

  // Chunked + single-op removal to a fixpoint (ddmin-style). Removal shifts
  // later modular selections, so the large-chunk passes are what actually
  // escape the local minima a pure one-op pass gets stuck in.
  auto attempt = [&](std::size_t start, std::size_t len) {
    std::vector<Op> candidate;
    candidate.reserve(ops.size() - len);
    for (std::size_t j = 0; j < ops.size(); ++j) {
      if (j < start || j >= start + len) {
        candidate.push_back(ops[j]);
      }
    }
    Result r = run(candidate);
    ++out.runs;
    if (failed(r)) {
      ops = std::move(candidate);
      out.result = std::move(r);
      return true;
    }
    return false;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
      for (std::size_t start = ops.size(); start-- > 0;) {
        if (start + chunk > ops.size()) {
          continue;
        }
        if (attempt(start, chunk)) {
          changed = true;
          // Stay at the same start: the window now covers fresh ops.
          ++start;
        }
      }
    }
  }
  out.ops = std::move(ops);
  return out;
}

// How a repro's bytes replay; the value is the exit code of --replay.
enum class ReplayVerdict : int { kReproduced = 0, kNotReproduced = 1, kBadFile = 2 };

// A checker's side of the counterexample path.
template <typename Op, typename Result>
struct ReproChecker {
  std::string program;                                       // for "bad repro file"
  std::function<Result(const std::vector<Op>&)> run;         // runs a candidate
  std::function<bool(const Result&)> failed;                 // still shows the failure
  std::function<std::string(const std::vector<Op>&)> write;  // the repro text
  // Parses repro text and runs it; nullopt, with *error set, for a bad text.
  std::function<std::optional<Result>(const std::string&, std::string* error)> read_run;

  // Reads repro text through read_run (the file at `path`, or `text` when
  // `path` is empty; a bad one prints why) and judges the run.
  ReplayVerdict Replay(const std::string& path, const std::string& text,
                       std::optional<Result>* result) const {
    const auto parse = [&](const std::string& read, std::string* error) {
      return (*result = read_run(read, error)).has_value();
    };
    if (!(path.empty() ? cli::ReadReproText(text, program, parse)
                       : cli::ReadReproFile(path, program, parse))) {
      return ReplayVerdict::kBadFile;
    }
    return failed(**result) ? ReplayVerdict::kReproduced : ReplayVerdict::kNotReproduced;
  }
};

template <typename Op, typename Result>
struct Counterexample {
  ShrunkSequence<Op, Result> shrunk;
  bool over_budget = false;  // more records than the caller's budget
  ReplayVerdict replay = ReplayVerdict::kBadFile;  // how the bytes written replay
};

// Shrinks `ops`, known to fail at `fail_index` with result `first`; flags a
// minimum longer than `budget`; writes its repro text to `path` unless that
// is empty; and replays the bytes written (the file, or the text without a
// file) through the same read_run --replay uses.
template <typename Op, typename Result>
Counterexample<Op, Result> ShrinkCounterexample(const ReproChecker<Op, Result>& checker,
                                                std::vector<Op> ops, std::size_t fail_index,
                                                const Result& first,
                                                std::optional<std::size_t> budget,
                                                const std::string& path) {
  Counterexample<Op, Result> out;
  out.shrunk = ShrinkSequence(std::move(ops), fail_index, first, checker.run, checker.failed);
  out.over_budget = budget && out.shrunk.ops.size() > *budget;
  const std::string text = checker.write(out.shrunk.ops);
  if (!path.empty()) {
    std::ofstream(path) << text;
  }
  std::optional<Result> replayed;
  out.replay = checker.Replay(path, text, &replayed);
  return out;
}

// --replay FILE: replays the repro at `path`, hands the result and whether
// it reproduced to `report`, and returns the exit code.
template <typename Op, typename Result, typename Report>
int ReplayReproFile(const ReproChecker<Op, Result>& checker, const std::string& path,
                    Report&& report) {
  std::optional<Result> result;
  const ReplayVerdict verdict = checker.Replay(path, "", &result);
  if (result) {
    report(*result, verdict == ReplayVerdict::kReproduced);
  }
  return static_cast<int>(verdict);
}

}  // namespace fsio

#endif  // FASTSAFE_SRC_REFMODEL_SHRINK_H_
