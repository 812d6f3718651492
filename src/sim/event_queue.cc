#include "src/sim/event_queue.h"

#include "src/common/logging.h"

namespace onepass::sim {

void Engine::ScheduleAtStream(double time, uint64_t stream, Callback cb) {
  CHECK_GE(time, now_);
  queue_.push(Event{time, stream, next_seq_++, std::move(cb)});
}

double Engine::Run() {
  while (!queue_.empty()) {
    // priority_queue::top returns const&; move the callback out via a copy
    // of the event (callbacks are small).
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    current_stream_ = ev.stream;
    ev.cb();
  }
  current_stream_ = 0;
  return now_;
}

}  // namespace onepass::sim
