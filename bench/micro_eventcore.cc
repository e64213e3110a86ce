// Microbenchmarks (google-benchmark) for the rearchitected event core
// (DESIGN.md §11): schedule/dispatch throughput of the calendar queue and
// arena against the reference binary-heap scheduler, plus the specific
// shapes the datapath generates — same-timestamp bursts (NIC commit chains),
// short-horizon timer wheels (per-packet stack work), dense buckets (F&S
// Redis), NIC egress backlogs (IOMMU-off iperf) and far-future overflow
// churn (measurement-window boundaries). Run by the CI perf-smoke job;
// compare against ReferenceEventQueue locally with --benchmark_filter.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/simcore/event_queue.h"
#include "src/simcore/reference_event_queue.h"
#include "src/simcore/rng.h"

namespace fsio {
namespace {

// Hot-path shape: every executed event schedules a successor a short,
// varying distance ahead (packet service chains). Measures the full
// insert + pop + dispatch cycle with a steady pending population.
template <typename Queue>
void ScheduleDispatchChain(benchmark::State& state) {
  Queue q;
  q.Reserve(8192);
  const std::int64_t population = state.range(0);
  std::uint64_t executed = 0;
  Rng rng(1);
  struct Chain {
    Queue* q;
    std::uint64_t* executed;
    Rng* rng;
    void Fire() {
      ++*executed;
      q->ScheduleAfter(1 + rng->NextBelow(900), [this] { Fire(); });
    }
  } chain{&q, &executed, &rng};
  for (std::int64_t i = 0; i < population; ++i) {
    q.ScheduleAfter(1 + rng.NextBelow(900), [&chain] { chain.Fire(); });
  }
  for (auto _ : state) {
    const std::uint64_t target = executed + 1024;
    while (executed < target) {
      q.RunUntil(q.now() + 512);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}
void BM_EventCore_Chain(benchmark::State& s) { ScheduleDispatchChain<EventQueue>(s); }
void BM_RefHeap_Chain(benchmark::State& s) {
  ScheduleDispatchChain<ReferenceEventQueue>(s);
}
BENCHMARK(BM_EventCore_Chain)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_RefHeap_Chain)->Arg(64)->Arg(1024)->Arg(16384);

// Same-timestamp FIFO bursts: N events at one instant, each of which the
// dispatcher must retire in insertion order (NIC commit + per-core NAPI
// scheduling produce exactly this shape).
template <typename Queue>
void SameTimestampBurst(benchmark::State& state) {
  Queue q;
  q.Reserve(8192);
  const std::int64_t burst = state.range(0);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const TimeNs when = q.now() + 64;
    for (std::int64_t i = 0; i < burst; ++i) {
      q.ScheduleAt(when, [&sink] { ++sink; });
    }
    q.RunUntil(when);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * burst);
}
void BM_EventCore_Burst(benchmark::State& s) { SameTimestampBurst<EventQueue>(s); }
void BM_RefHeap_Burst(benchmark::State& s) {
  SameTimestampBurst<ReferenceEventQueue>(s);
}
BENCHMARK(BM_EventCore_Burst)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_RefHeap_Burst)->Arg(16)->Arg(256)->Arg(4096);

// Dense buckets, the F&S Redis shape (~47 events per simulated us, a few
// per 64 ns bucket): every executed event schedules a successor at the
// same nanosecond (1 in 4), later inside the bucket's span (2 in 4) or a
// few buckets ahead (1 in 4), and the caller advances in 1 us slices.
// Reports the density it reached as events_per_sim_us.
template <typename Queue>
void DenseBuckets(benchmark::State& state) {
  Queue q;
  q.Reserve(8192);
  const std::int64_t population = state.range(0);
  std::uint64_t executed = 0;
  Rng rng(3);
  struct Chain {
    Queue* q;
    std::uint64_t* executed;
    Rng* rng;
    void Fire() {
      ++*executed;
      const std::uint64_t kind = rng->NextBelow(4);
      const TimeNs delay = kind == 0  ? 0
                           : kind < 3 ? 1 + rng->NextBelow(63)
                                      : 64 + rng->NextBelow(4032);
      q->ScheduleAfter(delay, [this] { Fire(); });
    }
  } chain{&q, &executed, &rng};
  for (std::int64_t i = 0; i < population; ++i) {
    q.ScheduleAfter(rng.NextBelow(1000), [&chain] { chain.Fire(); });
  }
  for (auto _ : state) {
    const std::uint64_t target = executed + 1024;
    while (executed < target) {
      q.RunUntil(q.now() + 1000);
    }
  }
  state.counters["events_per_sim_us"] =
      static_cast<double>(executed) * 1000.0 / static_cast<double>(q.now());
  state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}
void BM_EventCore_Dense(benchmark::State& s) { DenseBuckets<EventQueue>(s); }
void BM_RefHeap_Dense(benchmark::State& s) { DenseBuckets<ReferenceEventQueue>(s); }
BENCHMARK(BM_EventCore_Dense)->Arg(24)->Arg(96);
BENCHMARK(BM_RefHeap_Dense)->Arg(24)->Arg(96);

// NIC egress backlog, the lead mix of perfbench's iperf_off: every executed
// event schedules a successor up to 10 us ahead (77 in 100: per-packet
// stack, DMA and memory steps), 262-524 us ahead (16: wire departures and Tx
// completions queued behind the backlog), 1-2 ms ahead (4: RTO re-arms) or
// 10-262 us ahead (3), and the caller advances in 10 us slices. Reports the
// share of inserts that took the overflow heap as overflow_frac (0 for the
// reference queue, which has none).
template <typename Queue>
void Backlog(benchmark::State& state) {
  Queue q;
  q.Reserve(8192);
  const std::int64_t population = state.range(0);
  std::uint64_t executed = 0;
  Rng rng(11);
  struct Chain {
    Queue* q;
    std::uint64_t* executed;
    Rng* rng;
    void Fire() {
      ++*executed;
      const std::uint64_t kind = rng->NextBelow(100);
      const TimeNs delay = kind < 77   ? rng->NextBelow(10'001)
                           : kind < 93 ? 262'000 + rng->NextBelow(262'001)
                           : kind < 97 ? 1'000'000 + rng->NextBelow(1'000'001)
                                       : 10'000 + rng->NextBelow(252'001);
      q->ScheduleAfter(delay, [this] { Fire(); });
    }
  } chain{&q, &executed, &rng};
  for (std::int64_t i = 0; i < population; ++i) {
    q.ScheduleAfter(rng.NextBelow(10'000), [&chain] { chain.Fire(); });
  }
  for (auto _ : state) {
    const std::uint64_t target = executed + 1024;
    while (executed < target) {
      q.RunUntil(q.now() + 10'000);
    }
  }
  state.counters["overflow_frac"] = static_cast<double>(q.overflow_inserts()) /
                                    static_cast<double>(executed + q.pending());
  state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}
void BM_EventCore_Backlog(benchmark::State& s) { Backlog<EventQueue>(s); }
void BM_RefHeap_Backlog(benchmark::State& s) { Backlog<ReferenceEventQueue>(s); }
BENCHMARK(BM_EventCore_Backlog)->Arg(256)->Arg(4096);
BENCHMARK(BM_RefHeap_Backlog)->Arg(256)->Arg(4096);

// Overflow-tier churn: a mix of near-future work and events far beyond the
// calendar window (measurement-window edges, retransmit timers), forcing
// window slides and overflow promotion.
template <typename Queue>
void OverflowChurn(benchmark::State& state) {
  Queue q;
  q.Reserve(8192);
  Rng rng(7);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      if (rng.NextBool(0.125)) {
        q.ScheduleAfter(1'000'000 + rng.NextBelow(50'000'000),
                        [&sink] { ++sink; });
      } else {
        q.ScheduleAfter(rng.NextBelow(4096), [&sink] { ++sink; });
      }
    }
    q.RunUntil(q.now() + 8192);
  }
  q.RunAll();
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(sink));
}
void BM_EventCore_Overflow(benchmark::State& s) { OverflowChurn<EventQueue>(s); }
void BM_RefHeap_Overflow(benchmark::State& s) {
  OverflowChurn<ReferenceEventQueue>(s);
}
BENCHMARK(BM_EventCore_Overflow);
BENCHMARK(BM_RefHeap_Overflow);

// Allocation behaviour: the arena path must stay allocation-free in steady
// state; this variant reports observed scheduler allocations per iteration
// as a counter (expected: 0 after warm-up for EventQueue).
void BM_EventCore_SteadyStateAllocs(benchmark::State& state) {
  EventQueue q;
  q.Reserve(4096);
  std::uint64_t sink = 0;
  // Warm-up: populate the arena high-water mark.
  for (int i = 0; i < 2048; ++i) {
    q.ScheduleAfter(1 + (i % 512), [&sink] { ++sink; });
  }
  q.RunAll();
  const std::uint64_t before = q.allocations();
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      q.ScheduleAfter(1 + (i % 512), [&sink] { ++sink; });
    }
    q.RunAll();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["allocs"] = static_cast<double>(q.allocations() - before);
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_EventCore_SteadyStateAllocs);

}  // namespace
}  // namespace fsio

BENCHMARK_MAIN();
