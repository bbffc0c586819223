// Up to two non-owning observers on one seam, notified in attach order.
//
// A port, a queue disc and a host stack each hold one, so the flight
// recorder and the sketch telemetry can watch the same seam side by side.
// An empty list costs one null check per notification.
#ifndef ECNSHARP_SIM_OBSERVER_LIST_H_
#define ECNSHARP_SIM_OBSERVER_LIST_H_

#include "sim/logging.h"

namespace ecnsharp {

template <typename Observer>
class ObserverList {
 public:
  // Appends `observer` (null is ignored). A third observer exits 2: every
  // seam has two observers at most.
  void Add(Observer* observer) {
    if (observer == nullptr) return;
    if (first_ == nullptr) {
      first_ = observer;
      return;
    }
    if (second_ != nullptr) {
      FatalError("an observer list holds at most two observers");
    }
    second_ = observer;
  }

  bool empty() const { return first_ == nullptr; }

  // Calls fn(observer) for each observer, in attach order.
  template <typename Fn>
  void Notify(Fn&& fn) const {
    if (first_ == nullptr) return;
    fn(*first_);
    if (second_ != nullptr) fn(*second_);
  }

 private:
  Observer* first_ = nullptr;
  Observer* second_ = nullptr;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SIM_OBSERVER_LIST_H_
