#include "sim/timer.h"

namespace ecnsharp {

void Timer::Schedule(Time delay) { ScheduleAt(sim_.Now() + delay); }

void Timer::ScheduleAt(Time when) {
  if (when < sim_.Now()) when = sim_.Now();
  expiry_ = when;
  order_ = sim_.ReserveOrder();
  pending_ = true;
  if (event_.valid()) {
    if (armed_at_ <= when) {
      // The armed event fires first and forwards to the new target.
      moved_ = true;
      return;
    }
    sim_.Cancel(event_);
  }
  Arm();
}

void Timer::Arm() {
  armed_at_ = expiry_;
  moved_ = false;
  event_ = sim_.ScheduleAtOrdered(expiry_, order_, [this] { Fire(); });
}

void Timer::Fire() {
  event_ = EventId{};
  if (!pending_) return;
  if (moved_) {
    Arm();
    return;
  }
  pending_ = false;
  callback_();
}

}  // namespace ecnsharp
