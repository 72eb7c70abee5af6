// The simulation driver: a clock plus the event loop.
//
// Mirrors the role of ASCA's engine (paper §3.1): components schedule typed
// POD events, the driver pops them in deterministic (time, seq) order and
// hands each to the EventDispatcher, which switches on Event::kind. The hot
// path never allocates: an event is 48 bytes copied by value through a flat
// heap.
#pragma once

#include <optional>

#include "common/check.h"
#include "common/time.h"
#include "sim/event_queue.h"

namespace netbatch::sim {

// Receives every typed event the Simulator pops. Implemented by the
// simulation engine as a single switch over Event::kind.
class EventDispatcher {
 public:
  virtual void Dispatch(const Event& event) = 0;

 protected:
  ~EventDispatcher() = default;
};

class Simulator {
 public:
  Ticks Now() const { return now_; }

  // The dispatcher receives every typed event; must outlive the simulator.
  // Required before the first typed event fires.
  void set_dispatcher(EventDispatcher* dispatcher) {
    dispatcher_ = dispatcher;
  }

  // Schedules a typed event at absolute time `at` (must be >= Now()).
  EventSeq ScheduleAt(Ticks at, const Event& event);

  // Schedules a typed event `delay` ticks from now (delay >= 0).
  EventSeq ScheduleAfter(Ticks delay, const Event& event);

  void Cancel(EventSeq seq) { queue_.Cancel(seq); }

  // Runs until the queue drains or the clock passes `until`
  // (events at exactly `until` still fire). Returns the final clock value.
  Ticks RunUntil(Ticks until);

  // Runs until the event queue is empty.
  Ticks RunToCompletion();

  // Stops the loop after the current event returns; used when the engine
  // detects quiescence.
  void RequestStop() { stop_requested_ = true; }

  // Pre-sizes the event heap (e.g. for the trace size).
  void Reserve(std::size_t events) { queue_.Reserve(events); }

  // Time of the earliest live event, or nullopt when the queue is empty.
  // Non-const because peeking lazily drops cancelled heap tops. Used by the
  // sharded coordinator to size conservative sync windows.
  std::optional<Ticks> NextEventTime() {
    if (queue_.Empty()) return std::nullopt;
    return queue_.PeekTime();
  }

  std::size_t PendingEvents() const { return queue_.LiveCount(); }
  std::uint64_t FiredEvents() const { return fired_events_; }
  std::size_t QueueMemoryBytes() const {
    return queue_.MemoryFootprintBytes();
  }

 private:
  Ticks now_ = 0;
  EventQueue queue_;
  EventDispatcher* dispatcher_ = nullptr;
  bool stop_requested_ = false;
  std::uint64_t fired_events_ = 0;
};

}  // namespace netbatch::sim
