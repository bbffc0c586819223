// One-shot, reschedulable timer built on Simulator events.
//
// Typical users are protocol state machines (TCP retransmission timer,
// delayed-ACK timer). Rescheduling replaces any pending expiry; destruction
// cancels the timer's event, so a Timer member can never fire into a
// destroyed object.
//
// Re-arms are lazy. Every ScheduleAt takes exactly one order stamp
// (Simulator::ReserveOrder), the stamp an eager cancel-and-reschedule would
// have consumed, and records the target (expiry, stamp). Only a target
// earlier than the one armed engine event cancels that event and arms a new
// one; a later target (the per-ACK RTO restart, the delayed-ACK re-arm after
// a cancel) just marks the timer moved. When the armed event fires early it
// re-arms at the stored target with the stored stamp (ScheduleAtOrdered), so
// the callback runs at exactly the (when, order) position the eager timer
// would have used and every result stays byte-identical. Observable
// differences, none of which reach model state:
//   - Simulator::events_executed() counts the stale occurrences (they run
//     no model code);
//   - Simulator::live_events() includes a lazily cancelled or moved timer's
//     event until its old deadline;
//   - a run-to-empty Simulator::Run() may end at such a deadline, later
//     than the last callback. RunUntil always ends at `until`, so
//     ExperimentSession runs are unaffected.
#ifndef ECNSHARP_SIM_TIMER_H_
#define ECNSHARP_SIM_TIMER_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"

namespace ecnsharp {

class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> callback)
      : sim_(sim), callback_(std::move(callback)) {}
  ~Timer() { sim_.Cancel(event_); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // (Re)arms the timer `delay` from now.
  void Schedule(Time delay);
  // (Re)arms the timer at absolute time `when`, clamped to Now().
  void ScheduleAt(Time when);
  void Cancel() { pending_ = false; }

  bool pending() const { return pending_; }
  // Absolute expiry time; meaningful only while pending().
  Time expiry() const { return expiry_; }

 private:
  // Arms the one engine event at the target (expiry_, order_).
  void Arm();
  void Fire();

  Simulator& sim_;
  std::function<void()> callback_;
  // Target: the callback runs at (expiry_, order_) while pending_.
  Time expiry_ = Time::Zero();
  std::uint64_t order_ = 0;
  // The armed engine event, if any (valid() until it fires or is
  // cancelled), and its deadline.
  EventId event_{};
  Time armed_at_ = Time::Zero();
  bool pending_ = false;
  // The target changed after event_ was armed: when event_ fires it
  // re-arms at the target instead of running the callback.
  bool moved_ = false;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SIM_TIMER_H_
