// Discrete-event simulation core.
//
// The whole storage stack is simulated against one Simulator instance. Host
// code runs "inline" at the current simulated time and advances the clock
// with advance(); asynchronous device work (NAND array operations, DMA
// completions, maintenance threads) is scheduled as events. Ties are broken
// by insertion order, making every run fully deterministic.
//
// Callbacks are InlineFunction<void()> — move-only with a 48-byte small
// buffer, so typical captures never heap-allocate — held in one pooled
// 4-ary heap (event_queue.h). The event loop pops and runs one event at a
// time, so every run_* call may stop between any two events, including two
// that share a timestamp, and the next call resumes in exact (when, seq)
// order.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "des/event_queue.h"

namespace pipette {

class Tracer;  // obs/trace.h — the DES core only carries the pointer

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// Observability hook: an installed tracer receives per-stage span
  /// timestamps from instrumented components. The tracer is passive (it
  /// never schedules events or advances time), so installing one cannot
  /// change the simulation. Null when tracing is off.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* t) { tracer_ = t; }

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Move the clock forward by `d` without running events scheduled inside
  /// the skipped interval (used for pure host CPU time, during which no
  /// device event can affect the host's sequential execution). Events that
  /// come due are NOT lost; they run at the next run_until()/run_all().
  void advance(SimDuration d) { now_ += d; }

  /// Schedule `cb` to run at now() + delay.
  void schedule(SimDuration delay, Callback cb);

  /// Schedule `cb` at an absolute time (>= now()).
  void schedule_at(SimTime when, Callback cb);

  /// Run every event due at or before `t`; the clock ends at max(now, t).
  void run_until(SimTime t);

  /// Run every scheduled event.
  void run_all();

  /// Run events until `done` returns true (checked before the first event
  /// and after each one). Returns false if the queue drained first.
  /// Templated so call sites pay neither a std::function construction nor
  /// an indirect predicate call.
  template <typename Pred>
  bool run_until_condition(Pred&& done) {
    while (!done()) {
      if (queue_.empty()) return false;
      run_next();
    }
    return true;
  }

  /// Deadline-bounded variant of run_until_condition: only events due at or
  /// before `deadline` run. Returns false on timeout (condition still false
  /// with no runnable event left), leaving the clock at the last executed
  /// event and any later events queued. Purely passive — it schedules no
  /// timer event of its own, so arming a guard does not perturb the event
  /// sequence of runs that never time out.
  template <typename Pred>
  bool run_until_condition_before(Pred&& done, SimTime deadline) {
    while (!done()) {
      if (queue_.empty() || queue_.min_when() > deadline) return false;
      run_next();
    }
    return true;
  }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_executed() const { return executed_; }

  /// High-water mark of pending_events() (exported as `des.slab_peak`).
  std::size_t queue_peak_size() const { return queue_.peak_size(); }

 private:
  /// Pop the earliest event, move the clock to it (never backward) and run
  /// it. Requires a non-empty queue.
  void run_next();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
  Tracer* tracer_ = nullptr;
};

}  // namespace pipette
