// Discrete-event simulation core.
//
// The platform's *data plane* executes for real (records move through real
// hash tables, sort buffers, and spill payloads); the *time plane* is
// simulated: every task records a cost trace (CPU seconds, disk and network
// operations), and this engine replays those traces against per-node
// resources to obtain task start/finish times, progress curves, CPU
// utilization, and iowait timelines on the paper's 10-node cluster.
//
// Determinism: events are ordered by (time, stream, seq). The stream tag
// exists for multi-job replays (DESIGN.md §5.7): each job schedules its
// events under its own stream id, so simultaneous events from different
// jobs pop in (job, insertion) order no matter how the jobs interleaved
// while scheduling them. Single-job simulations leave every event on
// stream 0 and get the historical pure (time, seq) order. A callback's
// own ScheduleAt/ScheduleAfter calls inherit the stream of the event
// being processed, so a job's causal chain stays on its stream without
// every call site naming it.

#ifndef ONEPASS_SIM_EVENT_QUEUE_H_
#define ONEPASS_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace onepass::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  // Schedules `cb` to run at absolute simulated time `time` (>= now()),
  // on the stream of the event currently being processed (stream 0 when
  // called from outside the event loop).
  void ScheduleAt(double time, Callback cb) {
    ScheduleAtStream(time, current_stream_, std::move(cb));
  }

  // Schedules `cb` at `time` on an explicit stream. Streams break timestamp
  // ties ahead of insertion order: (time, stream, seq).
  void ScheduleAtStream(double time, uint64_t stream, Callback cb);

  // Schedules `cb` after a delay from now (inheriting the current stream).
  void ScheduleAfter(double delay, Callback cb) {
    ScheduleAtStream(now_ + delay, current_stream_, std::move(cb));
  }

  void ScheduleAfterStream(double delay, uint64_t stream, Callback cb) {
    ScheduleAtStream(now_ + delay, stream, std::move(cb));
  }

  // Runs until the event queue drains. Returns the final simulated time.
  double Run();

  double now() const { return now_; }
  // Stream of the event currently being processed (0 outside the loop).
  uint64_t current_stream() const { return current_stream_; }

 private:
  struct Event {
    double time;
    uint64_t stream;
    uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.stream != b.stream) return a.stream > b.stream;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  double now_ = 0;
  uint64_t current_stream_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace onepass::sim

#endif  // ONEPASS_SIM_EVENT_QUEUE_H_
