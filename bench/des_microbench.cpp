// Microbenchmark of the discrete-event core: raw events/sec through the
// Simulator, plus the host cost of one fixed fig6-style experiment cell.
//
// Measurements, all written to BENCH_des.json (override with --json) so the
// DES hot-loop's throughput is tracked across PRs:
//  1. "uniform_ticks": lanes of self-rescheduling tick events with co-prime
//     periods — the pure schedule/pop/dispatch loop with realistic queue
//     occupancy and small captures that must stay inside the callback's
//     inline buffer (the bench asserts zero heap fallbacks).
//  2. "clustered": lanes sharing a handful of fixed latency-like periods
//     (a few hundred ns .. tens of us), the shape the SSD model actually
//     produces — many events land on identical timestamps.
//  3. "cell": one Pipette / workload-E / uniform cell at a fixed request
//     count — the end-to-end host_seconds and events_executed the paper
//     benches actually pay per matrix cell.
//
// Before any timing, an order selfcheck replays one pseudo-random
// self-propagating event script (zero deltas, clustered deltas, far-future
// deltas, pushes from inside callbacks) through the Simulator and through a
// reference scheduler that keeps pending events in a std::map sorted by
// (when, seq), and requires the executed (id, when) sequences to be
// identical. A mismatch — or any InlineFunction heap fallback — makes the
// bench exit nonzero, which the perf_smoke ctest turns into a failure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/inline_function.h"
#include "pipette/detector.h"

namespace {

using namespace pipette;

// One lane of the raw microbench: an event that re-arms itself until its
// budget runs out. Capturing [this] keeps the closure at pointer size.
struct Ticker {
  Simulator* sim;
  std::uint64_t remaining = 0;
  SimDuration period = 0;

  void arm() {
    if (remaining == 0) return;
    --remaining;
    sim->schedule(period, [this] { arm(); });
  }
};

struct RawResult {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t heap_fallbacks = 0;
  std::size_t peak_queue_size = 0;
};

// The two raw workload shapes. `clustered` uses a handful of shared
// latency-like periods, so each timestamp hosts a run of ~16 events.
constexpr SimDuration kClusteredPeriods[] = {480, 3'200, 20'000, 65'000};

RawResult measure_raw(bool clustered, std::uint64_t total_events) {
  constexpr std::uint32_t kLanes = 64;
  Simulator sim;
  std::vector<Ticker> lanes(kLanes);
  for (std::uint32_t i = 0; i < kLanes; ++i) {
    lanes[i].sim = &sim;
    lanes[i].remaining = total_events / kLanes;
    // Uniform: co-prime-ish periods give the queue a realistic mix of
    // orderings (with duplicate timestamps sprinkled in).
    lanes[i].period = clustered ? kClusteredPeriods[i % 4] : 1 + (i % 7);
  }
  const std::uint64_t heap0 = inline_function_heap_allocations();
  const auto t0 = std::chrono::steady_clock::now();
  for (Ticker& lane : lanes) lane.arm();
  sim.run_all();
  RawResult r;
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.events = sim.events_executed();
  r.events_per_sec =
      r.seconds > 0.0 ? static_cast<double>(r.events) / r.seconds : 0.0;
  r.heap_fallbacks = inline_function_heap_allocations() - heap0;
  r.peak_queue_size = sim.queue_peak_size();
  return r;
}

// Order selfcheck script: each executed event appends (id, now) to the
// trace and pushes 0..2 children with deltas spanning zero (same-timestamp
// runs), small clustered values and far-future jumps. `push(delta, id)` is
// the scheduler under test, so one script drives both the Simulator and
// the reference.
using Trace = std::vector<std::pair<std::uint64_t, SimTime>>;

struct Script {
  std::uint64_t budget;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::uint64_t next_id = 0;
  Trace trace;

  std::uint64_t rand() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  }

  template <typename Push>
  void spawn(const Push& push) {
    static constexpr SimDuration kDeltas[] = {0,      0,         1,
                                              480,    3'200,     65'000,
                                              99'999, 20'000'000, 40'000'000};
    --budget;
    const std::uint64_t id = next_id++;
    push(kDeltas[rand() % (sizeof kDeltas / sizeof kDeltas[0])], id);
  }

  template <typename Push>
  void fire(std::uint64_t id, SimTime now, const Push& push) {
    trace.emplace_back(id, now);
    const std::uint64_t kids = rand() % 3;
    for (std::uint64_t k = 0; k < kids && budget > 0; ++k) spawn(push);
  }

  template <typename Push>
  void seed(const Push& push) {
    for (int i = 0; i < 64 && budget > 0; ++i) spawn(push);
  }
};

Trace run_script_on_simulator(std::uint64_t events) {
  struct Push {
    Simulator* sim;
    Script* script;
    void operator()(SimDuration delta, std::uint64_t id) const {
      sim->schedule(delta,
                    [p = *this, id] { p.script->fire(id, p.sim->now(), p); });
    }
  };
  Simulator sim;
  Script script{events};
  script.seed(Push{&sim, &script});
  sim.run_all();
  return std::move(script.trace);
}

Trace run_script_on_reference(std::uint64_t events) {
  std::map<std::pair<SimTime, std::uint64_t>, std::uint64_t> pending;
  SimTime now = 0;
  std::uint64_t seq = 0;
  auto push = [&](SimDuration delta, std::uint64_t id) {
    pending.emplace(std::pair{now + delta, seq++}, id);
  };
  Script script{events};
  script.seed(push);
  while (!pending.empty()) {
    const auto first = pending.begin();
    now = first->first.first;
    const std::uint64_t id = first->second;
    pending.erase(first);
    script.fire(id, now, push);
  }
  return std::move(script.trace);
}

bool selfcheck_order(std::uint64_t events) {
  const Trace got = run_script_on_simulator(events);
  const Trace want = run_script_on_reference(events);
  if (got == want) return true;
  std::fprintf(stderr,
               "pipette: drain order DIVERGED from the (when, seq) reference "
               "(%zu vs %zu events",
               got.size(), want.size());
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i] == want[i]) continue;
    std::fprintf(stderr,
                 "; first mismatch at %zu: simulator id=%llu t=%llu, "
                 "reference id=%llu t=%llu",
                 i, static_cast<unsigned long long>(got[i].first),
                 static_cast<unsigned long long>(got[i].second),
                 static_cast<unsigned long long>(want[i].first),
                 static_cast<unsigned long long>(want[i].second));
    break;
  }
  std::fprintf(stderr, ")\n");
  return false;
}

// Detector hot path: record() folds each demanded range into the per-page
// list with an in-place insertion-merge, so replaying a pattern the
// detector has already absorbed must not grow any vector or insert any
// page. The same deterministic script runs twice over one detector; the
// second (steady-state) pass is timed and must add zero allocation events
// — that's the tripwire for anyone reintroducing a per-access re-sort or
// scratch vector.
struct DetectorResult {
  std::uint64_t records = 0;           // record() calls per pass
  double warm_seconds = 0.0;           // steady-state pass host time
  double records_per_sec = 0.0;
  std::uint64_t steady_allocation_events = 0;  // must be 0
};

DetectorResult measure_detector(std::uint64_t records) {
  FineGrainedAccessDetector det;
  constexpr std::uint64_t kPages = 512;
  DetectorResult r;
  r.records = records;
  for (int pass = 0; pass < 2; ++pass) {
    std::uint64_t rng = 0x243f6a8885a308d3ull;  // same script both passes
    auto next = [&rng] {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      return rng >> 33;
    };
    const std::uint64_t before = det.allocation_events();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < records; ++i) {
      const std::uint64_t page = next() % kPages;
      const std::uint32_t offset =
          static_cast<std::uint32_t>(next() % 31) * 128;
      const std::uint32_t len = 64 + static_cast<std::uint32_t>(next() % 3) * 64;
      det.record(/*file=*/1, page, offset, len);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (pass == 1) {
      r.warm_seconds = seconds;
      r.records_per_sec =
          seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
      r.steady_allocation_events = det.allocation_events() - before;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);

  std::uint64_t raw_events = 2'000'000;
  if (args.quick) raw_events = 200'000;
  if (args.requests != 0) raw_events = args.requests;

  std::printf("=== DES microbench — event core throughput ===\n");

  const bool order_ok = selfcheck_order(std::min<std::uint64_t>(
      raw_events, 200'000));
  std::printf("order selfcheck: %s (simulator vs sorted reference)\n",
              order_ok ? "ok" : "FAILED");

  struct Variant {
    const char* workload;
    RawResult result;
  };
  std::vector<Variant> variants;
  std::uint64_t total_fallbacks = 0;
  for (bool clustered : {false, true}) {
    const char* workload = clustered ? "clustered" : "uniform_ticks";
    RawResult r = measure_raw(clustered, raw_events);
    total_fallbacks += r.heap_fallbacks;
    std::printf(
        "%-14s : %llu events in %.3fs -> %.0f events/sec "
        "(peak queue %zu, %llu heap-fallback cbs)\n",
        workload, static_cast<unsigned long long>(r.events), r.seconds,
        r.events_per_sec, r.peak_queue_size,
        static_cast<unsigned long long>(r.heap_fallbacks));
    variants.push_back({workload, r});
  }
  if (total_fallbacks != 0) {
    std::fprintf(stderr,
                 "pipette: WARNING — raw loop callbacks fell back to the "
                 "heap; the SBO regressed\n");
  }

  const DetectorResult det = measure_detector(
      std::min<std::uint64_t>(raw_events, 1'000'000));
  const bool detector_ok = det.steady_allocation_events == 0;
  std::printf(
      "detector       : %llu warm record()s in %.3fs -> %.0f records/sec "
      "(%llu steady-state allocation events%s)\n",
      static_cast<unsigned long long>(det.records), det.warm_seconds,
      det.records_per_sec,
      static_cast<unsigned long long>(det.steady_allocation_events),
      detector_ok ? "" : " — REGRESSION");

  // Fixed cell (never rescaled by --quick/--requests: the point is a number
  // comparable across PRs).
  SyntheticConfig sc = table1_workload('E', Distribution::kUniform, 42);
  sc.file_size = 8 * kMiB;
  SyntheticWorkload workload(sc);
  const RunConfig run{20'000, 10'000};
  const RunResult cell = run_experiment(
      default_machine_for(args, PathKind::kPipette), workload, run);
  const double cell_events_per_sec =
      cell.host_seconds > 0.0
          ? static_cast<double>(cell.events_executed) / cell.host_seconds
          : 0.0;
  std::printf(
      "fixed cell     : Pipette/E/uniform, %llu+%llu requests -> "
      "%.3fs host, %llu events (%.0f events/sec)\n",
      static_cast<unsigned long long>(run.requests),
      static_cast<unsigned long long>(run.warmup), cell.host_seconds,
      static_cast<unsigned long long>(cell.events_executed),
      cell_events_per_sec);

  const std::string json_path =
      args.json_path.empty() ? "BENCH_des.json" : args.json_path;
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "des_microbench");
  w.kv("raw_events", raw_events);
  w.kv("order_selfcheck_ok", order_ok);
  w.key("variants");
  w.begin_array();
  for (const Variant& v : variants) {
    w.begin_object();
    w.kv("workload", v.workload);
    w.kv("events", v.result.events);
    w.kv("host_seconds", v.result.seconds, 6);
    w.kv("events_per_sec", v.result.events_per_sec, 0);
    w.kv("peak_queue_size", v.result.peak_queue_size);
    w.kv("heap_fallback_callbacks", v.result.heap_fallbacks);
    w.end_object();
  }
  w.end_array();
  w.key("detector");
  w.begin_object();
  w.kv("records", det.records);
  w.kv("warm_seconds", det.warm_seconds, 6);
  w.kv("records_per_sec", det.records_per_sec, 0);
  w.kv("steady_allocation_events", det.steady_allocation_events);
  w.end_object();
  w.key("cell");
  w.begin_object();
  w.kv("system", "Pipette");
  w.kv("workload", "E");
  w.kv("requests", run.requests);
  w.kv("warmup", run.warmup);
  w.kv("host_seconds", cell.host_seconds, 6);
  w.kv("events_executed", cell.events_executed);
  w.kv("events_per_sec", cell_events_per_sec, 0);
  json_metrics(w, "metrics", cell.metrics);
  w.end_object();
  w.end_object();
  if (!w.write_file(json_path)) return 1;
  std::printf("summary        : %s\n", json_path.c_str());
  return (total_fallbacks == 0 && order_ok && detector_ok) ? 0 : 1;
}
