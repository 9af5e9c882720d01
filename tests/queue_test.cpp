// Ordering tests for the event queue and the Simulator's event loop.
//
// The load-bearing property is the determinism contract: events drain in
// exactly (when, seq) ascending order. The fuzz scripts here replay
// seeded push/pop streams against the heap and against a trivially correct
// model — a std::map keyed by (when, seq) — and require identical drains;
// the golden-trace test pins the same property end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "des/event_queue.h"
#include "des/simulator.h"

namespace pipette {
namespace {

using Callback = EventQueue::Callback;
using Key = std::pair<SimTime, std::uint64_t>;  // (when, seq)

/// A far-future delta: tens of milliseconds, far beyond every device
/// latency, so these events sit deep in the heap while short ones churn.
constexpr SimDuration kFarFuture = 20'000'000;

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

// ---------------------------------------------------------------------------
// Differential fuzz: the heap against a sorted reference.

// Replays one seeded push/pop script against the heap and a std::map model.
// Pops record (when, seq) and invoke the callback, which appends its payload
// id — so key order *and* payload routing are compared. Pushes only ever use
// when >= the last popped timestamp (the Simulator's schedule-in-the-future
// contract). With `whole_runs`, each pop step drains every event sharing
// the earliest timestamp and the run lengths are compared as well.
void run_differential_script(std::uint64_t seed, bool whole_runs) {
  EventQueue heap;
  std::map<Key, std::uint64_t> ref;  // (when, seq) -> payload id
  std::vector<std::uint64_t> heap_log, ref_log;
  std::vector<Key> heap_keys, ref_keys;

  // Deltas are duplicate-heavy (0 repeated) with occasional far-future
  // jumps.
  static constexpr SimDuration kDeltas[] = {
      0, 0, 0, 1, 2, 480, 480, 3'200, 4'096, 65'000, 99'999,
      kFarFuture, 2 * kFarFuture};
  constexpr std::size_t kNumDeltas = sizeof kDeltas / sizeof kDeltas[0];

  std::uint64_t rng = seed;
  std::uint64_t next_seq = 0;
  std::uint64_t next_id = 0;
  SimTime now = 0;
  std::size_t ref_peak = 0;

  auto pop_one = [&] {
    SimTime when = 0;
    std::uint64_t seq = 0;
    Callback cb;
    heap.pop_min(when, seq, cb);
    cb();
    heap_keys.emplace_back(when, seq);
    const auto first = ref.begin();
    ref_keys.push_back(first->first);
    ref_log.push_back(first->second);
    ref.erase(first);
    now = when;
  };

  for (int round = 0; round < 400; ++round) {
    const std::uint64_t pushes = lcg(rng) % 8;
    for (std::uint64_t p = 0; p < pushes; ++p) {
      const SimTime when = now + kDeltas[lcg(rng) % kNumDeltas];
      const std::uint64_t seq = next_seq++;
      const std::uint64_t id = next_id++;
      heap.push(when, seq, [&heap_log, id] { heap_log.push_back(id); });
      ref.emplace(Key{when, seq}, id);
      ref_peak = std::max(ref_peak, ref.size());
    }
    const std::uint64_t pops = lcg(rng) % 6;
    for (std::uint64_t q = 0; q < pops && !heap.empty(); ++q) {
      ASSERT_FALSE(ref.empty());
      ASSERT_EQ(heap.min_when(), ref.begin()->first.first);
      if (whole_runs) {
        const SimTime when = heap.min_when();
        const std::size_t ref_run = static_cast<std::size_t>(std::distance(
            ref.begin(), ref.lower_bound(Key{when + 1, 0})));
        std::size_t run = 0;
        while (!heap.empty() && heap.min_when() == when) {
          pop_one();
          ++run;
        }
        ASSERT_EQ(run, ref_run);
      } else {
        pop_one();
      }
    }
    ASSERT_EQ(heap.size(), ref.size());
    ASSERT_EQ(heap.peak_size(), ref_peak);
  }
  // Drain the rest one event at a time.
  while (!heap.empty()) {
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(heap.min_when(), ref.begin()->first.first);
    pop_one();
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(heap_keys, ref_keys);
  EXPECT_EQ(heap_log, ref_log);
}

TEST(QueueDifferential, PopMinStreamsDrainIdentically) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull})
    run_differential_script(seed, /*whole_runs=*/false);
}

TEST(QueueDifferential, PopRunStreamsDrainIdentically) {
  for (std::uint64_t seed : {2ull, 99ull, 424242ull})
    run_differential_script(seed, /*whole_runs=*/true);
}

// Self-propagating script: each executed event appends (id, now) to the
// trace and pushes 0..2 children. `push(delta, id)` is the scheduler under
// test, so one script drives both the Simulator and the reference.
using Trace = std::vector<std::pair<std::uint64_t, SimTime>>;

struct Script {
  std::uint64_t rng = 0xfeedface;
  std::uint64_t next_id = 0;
  std::uint64_t budget = 4000;
  Trace trace;

  template <typename Push>
  void spawn(const Push& push) {
    static constexpr SimDuration kDeltas[] = {0, 0, 1, 480, 3'200,
                                              65'000, kFarFuture};
    const std::uint64_t id = next_id++;
    push(kDeltas[lcg(rng) % 7], id);
  }
  template <typename Push>
  void fire(std::uint64_t id, SimTime now, const Push& push) {
    trace.emplace_back(id, now);
    const std::uint64_t kids = lcg(rng) % 3;
    for (std::uint64_t k = 0; k < kids && budget > 0; ++k) {
      --budget;
      spawn(push);
    }
  }
};

// Pushes issued from inside executing callbacks (the normal DES regime): the
// script must execute in the same (id, now) sequence on the Simulator as on
// a reference scheduler that pops a (when, seq)-sorted std::map.
TEST(QueueDifferential, CallbackPushesMatchAcrossSimulators) {
  struct SimPush {
    Simulator* sim;
    Script* script;
    void operator()(SimDuration delta, std::uint64_t id) const {
      sim->schedule(delta,
                    [p = *this, id] { p.script->fire(id, p.sim->now(), p); });
    }
  };
  Simulator sim;
  Script on_sim;
  for (int i = 0; i < 32; ++i) on_sim.spawn(SimPush{&sim, &on_sim});
  sim.run_all();

  std::map<Key, std::uint64_t> pending;
  SimTime now = 0;
  std::uint64_t seq = 0;
  auto ref_push = [&](SimDuration delta, std::uint64_t id) {
    pending.emplace(Key{now + delta, seq++}, id);
  };
  Script on_ref;
  for (int i = 0; i < 32; ++i) on_ref.spawn(ref_push);
  while (!pending.empty()) {
    const auto first = pending.begin();
    now = first->first.first;
    const std::uint64_t id = first->second;
    pending.erase(first);
    on_ref.fire(id, now, ref_push);
  }

  EXPECT_GT(on_sim.trace.size(), 32u);  // callbacks did push children
  EXPECT_EQ(on_sim.trace, on_ref.trace);
}

// ---------------------------------------------------------------------------
// The event loop may stop between two events that share a timestamp.

TEST(SimulatorBatch, ConditionStopsMidRunAndResumesInOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  sim.schedule_at(200, [&order] { order.push_back(99); });
  // Stop after the 2nd event of the five due at t=100: the other three
  // stay queued.
  EXPECT_TRUE(sim.run_until_condition([&order] { return order.size() == 2; }));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pending_events(), 4u);
  // The deadline-bounded loop stops mid-timestamp too, then times out
  // before t=200 once the t=100 events are done.
  EXPECT_TRUE(sim.run_until_condition_before(
      [&order] { return order.size() == 3; }, /*deadline=*/150));
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_FALSE(sim.run_until_condition_before([] { return false; }, 150));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 99}));
  EXPECT_EQ(sim.queue_peak_size(), 6u);
}

}  // namespace
}  // namespace pipette
