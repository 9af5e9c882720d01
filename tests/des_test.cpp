// Tests for the discrete-event simulation core: ordering, determinism,
// clock semantics, condition-driven execution, the pooled event queue, and
// the allocation-free steady state of the hot loop.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "des/event_queue.h"
#include "des/simulator.h"

// Counting global allocator: every replaceable operator new in this binary
// bumps the counter, so tests can assert a region performed zero heap
// allocations. (The default operator new[] forwards here; our code never
// over-aligns beyond __STDCPP_DEFAULT_NEW_ALIGNMENT__.)
static std::atomic<std::uint64_t> g_operator_new_calls{0};

void* operator new(std::size_t size) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pipette {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesBreakInSubmissionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule(5, [&order, i] { order.push_back(i); });
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] {
    ++fired;
    sim.schedule(10, [&] { ++fired; });
  });
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, AdvanceMovesClockWithoutRunning) {
  Simulator sim;
  bool ran = false;
  sim.schedule(5, [&] { ran = true; });
  sim.advance(100);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_FALSE(ran);  // advance() skips; run_* executes
  sim.run_all();
  EXPECT_TRUE(ran);
  // The overdue event runs at the current clock, which never goes backward.
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(20, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15u);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilInclusiveOfBoundaryEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(15, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilConditionStopsEarly) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) sim.schedule(static_cast<SimDuration>(i) * 10,
                                            [&] { ++fired; });
  EXPECT_TRUE(sim.run_until_condition([&] { return fired == 3; }));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.pending_events(), 2u);
}

TEST(Simulator, RunUntilConditionFalseWhenQueueDrains) {
  Simulator sim;
  sim.schedule(1, [] {});
  EXPECT_FALSE(sim.run_until_condition([] { return false; }));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  sim.advance(50);
  SimTime when = 0;
  sim.schedule_at(70, [&] { when = sim.now(); });
  sim.run_all();
  EXPECT_EQ(when, 70u);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(1, [] {});
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 7u);
}

// --- EventQueue ---

// Randomized stress: run ~100k events with duplicate-heavy timestamps
// through the 4-ary pooled queue and a reference std::priority_queue model
// side by side, interleaving push and pop bursts. Execution order must be
// identical — this is the determinism contract every experiment rests on.
TEST(EventQueue, MatchesReferencePriorityQueueUnderStress) {
  struct RefEvent {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {  // max-heap comparator -> (when, seq) ascending pops
    bool operator()(const RefEvent& a, const RefEvent& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  EventQueue queue;
  std::priority_queue<RefEvent, std::vector<RefEvent>, Later> ref;
  Rng rng(2024);
  std::vector<std::uint64_t> got, want;
  constexpr std::uint64_t kEvents = 100'000;
  got.reserve(kEvents);
  want.reserve(kEvents);

  std::uint64_t seq = 0;
  std::uint64_t id = 0;
  SimTime now = 0;
  while (id < kEvents || !queue.empty()) {
    if (id < kEvents) {
      const std::uint64_t burst = 1 + rng.next_below(8);
      for (std::uint64_t i = 0; i < burst && id < kEvents; ++i) {
        // next_below(16) makes duplicate timestamps the common case.
        const SimTime when = now + rng.next_below(16);
        const std::uint64_t this_id = id++;
        queue.push(when, seq, [&got, this_id] { got.push_back(this_id); });
        ref.push({when, seq, this_id});
        ++seq;
      }
    }
    ASSERT_EQ(queue.size(), ref.size());
    const std::uint64_t pops = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < pops && !queue.empty(); ++i) {
      SimTime when = 0;
      std::uint64_t popped_seq = 0;
      EventQueue::Callback cb;
      queue.pop_min(when, popped_seq, cb);
      ASSERT_EQ(when, ref.top().when);
      want.push_back(ref.top().id);
      ref.pop();
      if (when > now) now = when;
      cb();
    }
  }
  EXPECT_TRUE(ref.empty());
  ASSERT_EQ(got.size(), kEvents);
  EXPECT_EQ(got, want);
}

TEST(EventQueue, MinWhenTracksEarliestEvent) {
  EventQueue queue;
  queue.push(30, 0, [] {});
  queue.push(10, 1, [] {});
  queue.push(20, 2, [] {});
  EXPECT_EQ(queue.min_when(), 10u);
  SimTime when = 0;
  std::uint64_t seq = 0;
  EventQueue::Callback cb;
  queue.pop_min(when, seq, cb);
  EXPECT_EQ(when, 10u);
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(queue.min_when(), 20u);
  EXPECT_EQ(queue.size(), 2u);
}

// --- Allocation behaviour of the hot loop ---

// Once the pools are warm, scheduling and running events with captures that
// fit the small-buffer limit must not touch the heap at all: neither the
// global allocator nor the InlineFunction fallback path.
TEST(Simulator, SteadyStateSchedulingIsAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;

  // Warm the queue to a high-water mark above what the measured phase uses.
  constexpr int kWarmPending = 512;
  for (int i = 0; i < kWarmPending; ++i) {
    sim.schedule(1 + static_cast<SimDuration>(i % 7),
                 [&sink, i] { sink += static_cast<std::uint64_t>(i); });
  }
  sim.run_all();

  const std::uint64_t news_before =
      g_operator_new_calls.load(std::memory_order_relaxed);
  const std::uint64_t heap_before = inline_function_heap_allocations();

  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) {
      // 24-byte capture: comfortably inside the 48-byte SBO.
      const std::uint64_t a = static_cast<std::uint64_t>(i);
      const std::uint64_t b = a * 3;
      sim.schedule(1 + static_cast<SimDuration>(i % 7),
                   [&sink, a, b] { sink += a + b; });
    }
    sim.run_all();
  }

  const std::uint64_t news_delta =
      g_operator_new_calls.load(std::memory_order_relaxed) - news_before;
  const std::uint64_t heap_delta =
      inline_function_heap_allocations() - heap_before;
  EXPECT_EQ(news_delta, 0u);
  EXPECT_EQ(heap_delta, 0u);
  EXPECT_EQ(sim.events_executed(),
            static_cast<std::uint64_t>(kWarmPending) + 100u * 256u);
  EXPECT_NE(sink, 0u);
}

// Captures over the SBO limit fall back to exactly one heap allocation
// (moves transfer the pointer; they do not reallocate) and still run.
TEST(Simulator, OversizedCapturesFallBackToHeapExactlyOnce) {
  Simulator sim;
  std::array<std::uint8_t, 128> big{};
  big[0] = 7;
  big[127] = 9;
  int sum = 0;
  const std::uint64_t heap_before = inline_function_heap_allocations();
  sim.schedule(5, [big, &sum] { sum = big[0] + big[127]; });
  EXPECT_EQ(inline_function_heap_allocations() - heap_before, 1u);
  sim.run_all();
  EXPECT_EQ(sum, 16);
}

}  // namespace
}  // namespace pipette
