#include "sim/simulator.h"

#include <limits>

namespace netbatch::sim {

EventSeq Simulator::ScheduleAt(Ticks at, const Event& event) {
  NETBATCH_CHECK(at >= now_, "cannot schedule an event in the past");
  return queue_.Schedule(at, event);
}

EventSeq Simulator::ScheduleAfter(Ticks delay, const Event& event) {
  NETBATCH_CHECK(delay >= 0, "negative event delay");
  return ScheduleAt(now_ + delay, event);
}

Ticks Simulator::RunUntil(Ticks until) {
  stop_requested_ = false;
  while (!queue_.Empty() && !stop_requested_) {
    if (queue_.PeekTime() > until) break;
    const Event event = queue_.Pop();
    NETBATCH_CHECK(event.time >= now_, "event queue time went backwards");
    now_ = event.time;
    ++fired_events_;
    NETBATCH_CHECK(dispatcher_ != nullptr,
                   "typed event fired with no dispatcher attached");
    dispatcher_->Dispatch(event);
  }
  return now_;
}

Ticks Simulator::RunToCompletion() {
  return RunUntil(std::numeric_limits<Ticks>::max());
}

}  // namespace netbatch::sim
