// Unit tests for the discrete-event core: typed event queue ordering and
// cancellation, simulator clock/dispatch semantics.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace netbatch::sim {
namespace {

// Builds a payload event of the given kind tagged with a payload id.
Event Tagged(std::uint16_t kind, std::uint32_t aux = 0) {
  Event ev;
  ev.kind = kind;
  ev.aux = aux;
  return ev;
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  queue.Schedule(30, Tagged(3));
  queue.Schedule(10, Tagged(1));
  queue.Schedule(20, Tagged(2));
  std::vector<int> fired;
  while (!queue.Empty()) fired.push_back(queue.Pop().kind);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInScheduleOrder) {
  EventQueue queue;
  for (std::uint32_t i = 0; i < 10; ++i) {
    queue.Schedule(42, Tagged(7, i));
  }
  std::uint32_t expected = 0;
  while (!queue.Empty()) EXPECT_EQ(queue.Pop().aux, expected++);
  EXPECT_EQ(expected, 10u);
}

// The determinism contract across *kinds*: events of different types landing
// on the same tick fire in the order they were scheduled, not in any
// kind-dependent or heap-internal order.
TEST(EventQueueTest, MixedKindsAtEqualTickFireInScheduleOrder) {
  EventQueue queue;
  const std::uint16_t kinds[] = {5, 2, 9, 2, 5, 1};
  for (std::uint32_t i = 0; i < 6; ++i) {
    queue.Schedule(100, Tagged(kinds[i], i));
  }
  for (std::uint32_t i = 0; i < 6; ++i) {
    const Event ev = queue.Pop();
    EXPECT_EQ(ev.kind, kinds[i]);
    EXPECT_EQ(ev.aux, i);
  }
}

TEST(EventQueueTest, PayloadRoundTrips) {
  EventQueue queue;
  Event ev;
  ev.kind = 11;
  ev.stamp = 0xdeadbeefcafeull;
  ev.job = JobId(7);
  ev.pool = PoolId(3);
  ev.machine = MachineId(22);
  ev.aux = 99;
  queue.Schedule(5, ev);
  const Event out = queue.Pop();
  EXPECT_EQ(out.time, 5);
  EXPECT_EQ(out.kind, 11);
  EXPECT_EQ(out.stamp, 0xdeadbeefcafeull);
  EXPECT_EQ(out.job, JobId(7));
  EXPECT_EQ(out.pool, PoolId(3));
  EXPECT_EQ(out.machine, MachineId(22));
  EXPECT_EQ(out.aux, 99u);
}

TEST(EventQueueTest, CancelRemovesFromHeap) {
  EventQueue queue;
  const EventSeq seq = queue.Schedule(5, Tagged(1));
  queue.Schedule(6, Tagged(2));
  const std::optional<Event> removed = queue.Cancel(seq);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->kind, 1);
  EXPECT_EQ(queue.LiveCount(), 1u);
  EXPECT_EQ(queue.Pop().kind, 2);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, CancelAfterFireIsNoOp) {
  EventQueue queue;
  const EventSeq seq = queue.Schedule(1, Tagged(1));
  queue.Pop();
  EXPECT_FALSE(queue.Cancel(seq).has_value());  // must not corrupt bookkeeping
  EXPECT_TRUE(queue.Empty());
  queue.Schedule(2, Tagged(2));
  EXPECT_EQ(queue.LiveCount(), 1u);
}

TEST(EventQueueTest, CancelUnknownHandleIsNoOp) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(12345).has_value());
  EXPECT_FALSE(queue.Cancel(kNoEvent).has_value());
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, PeekTimeSeesEarliestLiveEvent) {
  EventQueue queue;
  const EventSeq early = queue.Schedule(1, Tagged(1));
  queue.Schedule(9, Tagged(2));
  queue.Cancel(early);
  EXPECT_EQ(queue.PeekTime(), 9);
}

TEST(EventQueueTest, StressRandomOperationsPreserveOrder) {
  EventQueue queue;
  Rng rng(99);
  std::vector<EventSeq> live;
  for (int i = 0; i < 5000; ++i) {
    const Ticks at = rng.UniformInt(0, 100000);
    live.push_back(queue.Schedule(at, Tagged(1)));
    if (rng.Bernoulli(0.3) && !live.empty()) {
      const std::size_t victim = rng.UniformIndex(live.size());
      queue.Cancel(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  Ticks last = -1;
  std::size_t popped = 0;
  std::uint64_t last_seq = 0;
  while (!queue.Empty()) {
    const Event fired = queue.Pop();
    EXPECT_GE(fired.time, last);
    if (fired.time == last) {
      EXPECT_GT(fired.seq, last_seq);
    }
    last = fired.time;
    last_seq = fired.seq;
    ++popped;
  }
  EXPECT_EQ(popped, live.size());
}

// Regression for the old callback queue's unbounded growth: cancelled
// entries below the heap top were never compacted, so schedule/cancel churn
// (a job suspended and resumed over and over re-arms its completion event
// each time) grew the heap with the *total* event count. The typed queue
// removes cancelled events eagerly; storage must stay proportional to the
// live events, not the 1M-event churn.
TEST(EventQueueTest, ScheduleCancelChurnKeepsMemoryBounded) {
  EventQueue queue;
  Rng rng(7);
  // A small persistent population of live events, far in the future.
  std::vector<EventSeq> live;
  for (int i = 0; i < 100; ++i) {
    live.push_back(queue.Schedule(1'000'000 + i, Tagged(1)));
  }
  constexpr int kChurn = 1'000'000;
  for (int i = 0; i < kChurn; ++i) {
    // Schedule far-future events and cancel them immediately: under lazy
    // cancellation none of these would ever reach the top and be dropped.
    const EventSeq seq =
        queue.Schedule(2'000'000 + rng.UniformInt(0, 1000), Tagged(2));
    ASSERT_TRUE(queue.Cancel(seq).has_value());
  }
  EXPECT_EQ(queue.LiveCount(), live.size());
  // Storage must be proportional to the ~100 live events (with slack for
  // capacity growth/high-water), nowhere near the 1M churned events.
  EXPECT_LT(queue.MemoryFootprintBytes(), 64u * 1024u);
  // The queue still drains correctly after the churn.
  std::size_t popped = 0;
  while (!queue.Empty()) {
    EXPECT_EQ(queue.Pop().kind, 1);
    ++popped;
  }
  EXPECT_EQ(popped, live.size());
}

// A dispatcher that records every typed event it receives, then runs the
// test's `on_event` hook (if any) so a test can act mid-run.
class RecordingDispatcher : public EventDispatcher {
 public:
  void Dispatch(const Event& event) override {
    events.push_back(event);
    if (on_event) on_event(event);
  }

  std::vector<int> Kinds() const {
    std::vector<int> kinds;
    for (const Event& event : events) kinds.push_back(event.kind);
    return kinds;
  }

  std::vector<Event> events;
  std::function<void(const Event&)> on_event;
};

TEST(SimulatorTest, TypedEventsReachDispatcherInOrder) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  sim.ScheduleAt(20, Tagged(2));
  sim.ScheduleAt(10, Tagged(1));
  sim.ScheduleAfter(30, Tagged(3));
  sim.RunToCompletion();
  EXPECT_EQ(dispatcher.Kinds(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.FiredEvents(), 3u);
}

// Same-tick events fire in schedule order, including one scheduled for the
// current tick from inside a dispatch: it queues behind the earlier ones.
TEST(SimulatorTest, SameTickEventsFireInScheduleOrder) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  dispatcher.on_event = [&](const Event& event) {
    if (event.kind == 3) sim.ScheduleAfter(0, Tagged(4));
  };
  sim.ScheduleAt(5, Tagged(3));
  sim.ScheduleAt(5, Tagged(1));
  sim.ScheduleAt(5, Tagged(2));
  sim.RunToCompletion();
  EXPECT_EQ(dispatcher.Kinds(), (std::vector<int>{3, 1, 2, 4}));
  EXPECT_EQ(sim.Now(), 5);
}

TEST(SimulatorTest, CancelledEventIsNeverDispatched) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  const EventSeq seq = sim.ScheduleAt(10, Tagged(1));
  sim.ScheduleAt(20, Tagged(2));
  sim.Cancel(seq);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunToCompletion();
  EXPECT_EQ(dispatcher.Kinds(), (std::vector<int>{2}));
  EXPECT_EQ(sim.FiredEvents(), 1u);
}

TEST(SimulatorTest, ClockAdvancesMonotonically) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  std::vector<Ticks> times;
  dispatcher.on_event = [&](const Event& event) {
    times.push_back(sim.Now());
    if (event.kind == 1) sim.ScheduleAfter(15, Tagged(3));
  };
  sim.ScheduleAt(50, Tagged(2));
  sim.ScheduleAt(10, Tagged(1));
  sim.RunToCompletion();
  EXPECT_EQ(times, (std::vector<Ticks>{10, 25, 50}));
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(sim.FiredEvents(), 3u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  sim.ScheduleAt(10, Tagged(1));
  sim.ScheduleAt(20, Tagged(2));
  sim.ScheduleAt(21, Tagged(3));
  sim.RunUntil(20);  // events at exactly the boundary still fire
  EXPECT_EQ(dispatcher.events.size(), 2u);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunToCompletion();
  EXPECT_EQ(dispatcher.Kinds(), (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RequestStopHaltsLoop) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  dispatcher.on_event = [&](const Event&) { sim.RequestStop(); };
  sim.ScheduleAt(1, Tagged(1));
  sim.ScheduleAt(2, Tagged(2));
  sim.RunToCompletion();
  EXPECT_EQ(dispatcher.Kinds(), (std::vector<int>{1}));
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreProcessed) {
  Simulator sim;
  RecordingDispatcher dispatcher;
  sim.set_dispatcher(&dispatcher);
  dispatcher.on_event = [&](const Event&) {
    if (dispatcher.events.size() < 5) sim.ScheduleAfter(1, Tagged(1));
  };
  sim.ScheduleAt(0, Tagged(1));
  sim.RunToCompletion();
  EXPECT_EQ(dispatcher.events.size(), 5u);
  EXPECT_EQ(sim.Now(), 4);
}

}  // namespace
}  // namespace netbatch::sim
