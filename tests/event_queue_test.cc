// Tests for the simulator's generation-tagged event-slot scheme: FIFO
// ordering among same-timestamp events, cancellation life-cycle, and the
// guarantee that a stale EventId can never touch a recycled slot's new
// occupant; plus the one pop loop behind Run and RunUntil.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/time.h"

namespace ecnsharp {
namespace {

TEST(EventQueueTest, SameTimestampEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const Time t = Time::FromMicroseconds(10);
  for (int i = 0; i < 64; ++i) {
    sim.ScheduleAt(t, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, FifoOrderSurvivesInterleavedCancellation) {
  // Cancelling events between same-timestamp peers must not disturb the
  // schedule-order dispatch of the survivors.
  Simulator sim;
  std::vector<int> order;
  const Time t = Time::FromMicroseconds(5);
  std::vector<EventId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(sim.ScheduleAt(t, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 32; i += 2) sim.Cancel(ids[i]);
  sim.Run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], 2 * i + 1);
}

TEST(EventQueueTest, CancelAfterExecuteIsNoOp) {
  Simulator sim;
  int fired = 0;
  const EventId id =
      sim.Schedule(Time::FromMicroseconds(1), [&fired] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.live_events(), 0u);
  sim.Cancel(id);  // must not corrupt bookkeeping
  EXPECT_EQ(sim.live_events(), 0u);
  int late = 0;
  sim.Schedule(Time::FromMicroseconds(1), [&late] { ++late; });
  EXPECT_EQ(sim.live_events(), 1u);
  sim.Run();
  EXPECT_EQ(late, 1);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, DoubleCancelIsNoOp) {
  Simulator sim;
  int fired = 0;
  const EventId id =
      sim.Schedule(Time::FromMicroseconds(1), [&fired] { ++fired; });
  sim.Schedule(Time::FromMicroseconds(2), [&fired] { fired += 10; });
  sim.Cancel(id);
  EXPECT_EQ(sim.live_events(), 1u);
  sim.Cancel(id);
  EXPECT_EQ(sim.live_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 10);
}

TEST(EventQueueTest, StaleIdCannotCancelRecycledSlot) {
  // After an event executes or is cancelled its slot returns to a free list
  // and is handed to the next Schedule. The stale id for the old occupant
  // carries the old generation, so cancelling it must leave the new
  // occupant untouched.
  Simulator sim;
  int first = 0;
  const EventId stale =
      sim.Schedule(Time::FromMicroseconds(1), [&first] { ++first; });
  sim.Cancel(stale);  // slot goes to the free list
  int second = 0;
  const EventId fresh =
      sim.Schedule(Time::FromMicroseconds(2), [&second] { ++second; });
  // LIFO free list: the replacement reuses the same slot, differing only in
  // generation.
  EXPECT_EQ(fresh.seq & 0xffffffffu, stale.seq & 0xffffffffu);
  EXPECT_NE(fresh.seq, stale.seq);
  sim.Cancel(stale);  // stale generation: must be a no-op
  EXPECT_EQ(sim.live_events(), 1u);
  sim.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(EventQueueTest, StaleIdFromExecutedEventCannotCancelReplacement) {
  Simulator sim;
  EventId first_id;
  int second = 0;
  Simulator* psim = &sim;
  first_id = sim.Schedule(Time::FromMicroseconds(1), [psim, &first_id,
                                                      &second] {
    // The executing event's slot is already released; the next Schedule
    // recycles it. Cancelling with the executing event's own id must not
    // cancel the newcomer.
    psim->Schedule(Time::FromMicroseconds(1), [&second] { ++second; });
    psim->Cancel(first_id);
  });
  sim.Run();
  EXPECT_EQ(second, 1);
}

TEST(EventQueueTest, CancelDuringRunPreservesRemainingSchedule) {
  Simulator sim;
  std::string log;
  EventId b_id;
  sim.Schedule(Time::FromMicroseconds(1), [&] {
    log += 'a';
    sim.Cancel(b_id);
  });
  b_id = sim.Schedule(Time::FromMicroseconds(2), [&] { log += 'b'; });
  sim.Schedule(Time::FromMicroseconds(3), [&] { log += 'c'; });
  sim.Run();
  EXPECT_EQ(log, "ac");
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(EventQueueTest, LiveEventsAcrossMixedLifecycle) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.Schedule(Time::FromMicroseconds(1 + i), [] {}));
  }
  EXPECT_EQ(sim.live_events(), 10u);
  for (int i = 0; i < 5; ++i) sim.Cancel(ids[i]);
  EXPECT_EQ(sim.live_events(), 5u);
  sim.RunUntil(Time::FromMicroseconds(7));
  // Events at 6 and 7 us survive cancellation and fall inside the horizon.
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.live_events(), 3u);
  sim.Run();
  EXPECT_EQ(sim.live_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(EventQueueTest, HeavyChurnReusesSlotsWithoutGrowth) {
  // A self-rescheduling timer ring should settle into a fixed set of slots;
  // live_events stays constant while generations churn.
  Simulator sim;
  int remaining = 10'000;
  struct Ticker {
    Simulator& sim;
    int& remaining;
    void operator()() const {
      if (--remaining > 0) {
        sim.Schedule(Time::Nanoseconds(100), Ticker{sim, remaining});
      }
    }
  };
  sim.Schedule(Time::Nanoseconds(100), Ticker{sim, remaining});
  sim.Run();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(sim.events_executed(), 10'000u);
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(EventQueueTest, WheelEngagementPreservesExecutionOrder) {
  // Push the pending set past the wheel-engagement threshold and check the
  // executed sequence is still exactly (when, schedule-order): engagement
  // must be observationally invisible. Times deliberately mix near-horizon
  // (wheel) and far-horizon (overflow) scales, plus same-timestamp ties.
  Simulator sim;
  std::vector<std::pair<std::int64_t, int>> expected;
  std::vector<std::pair<std::int64_t, int>> actual;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 6000; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    // 0..~1 ms, quantized to 100 ns so ties are common.
    const std::int64_t ns = static_cast<std::int64_t>((rng >> 33) % 10000) * 100;
    expected.emplace_back(ns, i);
    sim.ScheduleAt(Time::Nanoseconds(ns),
                   [&actual, ns, i] { actual.emplace_back(ns, i); });
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.Run();
  EXPECT_EQ(actual, expected);
}

TEST(EventQueueTest, WheelModeCancellationPreservesSurvivors) {
  // Same engagement scenario, but cancel a swath after the wheel is live:
  // generation-tag staleness must work identically in bucket and overflow
  // storage.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6000; ++i) {
    const std::int64_t ns = 1000 + (i % 50) * 200;  // dense near-horizon ties
    ids.push_back(sim.ScheduleAt(Time::Nanoseconds(ns),
                                 [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 6000; i += 3) sim.Cancel(ids[i]);
  sim.Run();
  EXPECT_EQ(order.size(), 4000u);
  for (int v : order) EXPECT_NE(v % 3, 0);
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(EventQueueTest, PinnedEventFiresAndRearmsWithoutNewClosures) {
  Simulator sim;
  int fires = 0;
  PinnedEventId tick;
  tick = sim.CreatePinned([&] {
    ++fires;
    if (fires < 5) {
      sim.SchedulePinnedAt(tick, sim.Now() + Time::Nanoseconds(100));
    }
  });
  EXPECT_FALSE(sim.PinnedArmed(tick));
  sim.SchedulePinnedAt(tick, Time::Nanoseconds(100));
  EXPECT_TRUE(sim.PinnedArmed(tick));
  sim.Run();
  EXPECT_EQ(fires, 5);
  EXPECT_FALSE(sim.PinnedArmed(tick));
  EXPECT_EQ(sim.live_events(), 0u);
  sim.DestroyPinned(tick);
}

TEST(EventQueueTest, PinnedCancelDisarmsOccurrenceButKeepsRegistration) {
  Simulator sim;
  int fires = 0;
  const PinnedEventId tick = sim.CreatePinned([&] { ++fires; });
  sim.SchedulePinnedAt(tick, Time::Nanoseconds(100));
  sim.CancelPinned(tick);
  EXPECT_FALSE(sim.PinnedArmed(tick));
  EXPECT_EQ(sim.live_events(), 0u);
  sim.Run();
  EXPECT_EQ(fires, 0);
  // The registration survives: re-arming after a cancel works.
  sim.SchedulePinnedAt(tick, Time::Nanoseconds(200));
  sim.Run();
  EXPECT_EQ(fires, 1);
  sim.DestroyPinned(tick);
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(EventQueueTest, PinnedAndOneShotShareFifoOrder) {
  // A pinned occurrence armed with the default (next) order stamp slots into
  // the same FIFO sequence as surrounding one-shot events.
  Simulator sim;
  std::string log;
  const Time t = Time::FromMicroseconds(1);
  sim.ScheduleAt(t, [&] { log += 'a'; });
  const PinnedEventId p = sim.CreatePinned([&] { log += 'b'; });
  sim.SchedulePinnedAt(p, t);
  sim.ScheduleAt(t, [&] { log += 'c'; });
  sim.Run();
  EXPECT_EQ(log, "abc");
  sim.DestroyPinned(p);
}

TEST(EventQueueTest, ReservedOrderStampInterleavesAtReservedPosition) {
  // ReserveOrder now, arm a pinned event with it later: the event must
  // execute where the stamp was reserved, not where the arm call happened —
  // the contract batched in-flight delivery depends on.
  Simulator sim;
  std::string log;
  const Time t = Time::FromMicroseconds(2);
  sim.ScheduleAt(t, [&] { log += 'a'; });
  const PinnedEventId p = sim.CreatePinned([&] { log += 'b'; });
  const std::uint64_t slot_b = sim.ReserveOrder();
  sim.ScheduleAt(t, [&] { log += 'c'; });
  sim.SchedulePinnedAtOrdered(p, t, slot_b);
  sim.Run();
  EXPECT_EQ(log, "abc");
  sim.DestroyPinned(p);
}

// A seeded random schedule: one-shots that chain children at same-instant,
// same-bucket, near-horizon (< 262 us) and far-horizon delays and cancel
// each other, plus pinned events re-armed against stamps reserved before
// the one-shots they schedule. Every callback draws from one generator in
// execution order, so two runs agree only if they execute identically.
class RandomSchedule {
 public:
  using Trace = std::vector<std::pair<int, std::int64_t>>;  // (label, ns)

  RandomSchedule() {
    for (std::size_t i = 0; i < 4; ++i) {
      pinned_.push_back(sim_.CreatePinned([this, i] { FirePinned(i); }));
      sim_.SchedulePinnedAt(pinned_.back(), sim_.Now() + Delay());
    }
    for (int i = 0; i < 300; ++i) ScheduleOne();
  }
  ~RandomSchedule() {
    for (const PinnedEventId p : pinned_) sim_.DestroyPinned(p);
  }

  Simulator& sim() { return sim_; }
  const Trace& trace() const { return trace_; }

 private:
  std::uint64_t Draw(std::uint64_t n) {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return (rng_ >> 33) % n;
  }
  Time Delay() {
    switch (Draw(4)) {
      case 0:
        return Time::Zero();
      case 1:
        return Time::Nanoseconds(static_cast<std::int64_t>(Draw(4)) * 64);
      case 2:
        return Time::Nanoseconds(static_cast<std::int64_t>(Draw(2600)) * 100);
      default:
        return Time::Nanoseconds(
            262'144 + static_cast<std::int64_t>(Draw(5000)) * 1000);
    }
  }
  void ScheduleOne() {
    if (budget_-- <= 0) return;
    const int label = next_label_++;
    ids_.push_back(sim_.Schedule(Delay(), [this, label] { Fire(label); }));
  }
  void Fire(int label) {
    trace_.emplace_back(label, sim_.Now().ns());
    for (std::uint64_t n = Draw(3); n > 0; --n) ScheduleOne();
    if (Draw(4) == 0) sim_.Cancel(ids_[Draw(ids_.size())]);
    if (Draw(8) == 0) {
      const PinnedEventId p = pinned_[Draw(pinned_.size())];
      if (sim_.PinnedArmed(p)) {
        sim_.CancelPinned(p);
      } else if (budget_ > 0) {
        sim_.SchedulePinnedAt(p, sim_.Now() + Delay());
      }
    }
  }
  void FirePinned(std::size_t i) {
    trace_.emplace_back(-1 - static_cast<int>(i), sim_.Now().ns());
    if (budget_-- <= 0) return;
    const std::uint64_t order = sim_.ReserveOrder();
    ScheduleOne();
    sim_.SchedulePinnedAtOrdered(pinned_[i], sim_.Now() + Delay(), order);
  }

  Simulator sim_;
  std::uint64_t rng_ = 0x2545f4914f6cdd1dull;
  int budget_ = 6000;
  int next_label_ = 0;
  std::vector<EventId> ids_;
  std::vector<PinnedEventId> pinned_;
  Trace trace_;
};

TEST(EventQueueTest, RunAndSlicedRunUntilExecuteTheSameSchedule) {
  RandomSchedule whole;
  whole.sim().Run();

  // Uneven slices: empty, sub-bucket, within the wheel window, past it.
  // The first bounds fall 1 ns short of, then exactly on, the 64 ns ties.
  const Time slices[] = {Time::Zero(),           Time::Nanoseconds(63),
                         Time::Nanoseconds(1),    Time::Nanoseconds(123),
                         Time::Microseconds(37),  Time::Microseconds(300),
                         Time::Microseconds(2500)};
  RandomSchedule sliced;
  for (std::size_t i = 0; sliced.sim().live_events() > 0; ++i) {
    const Time until = sliced.sim().Now() + slices[i % std::size(slices)];
    sliced.sim().RunUntil(until);
    // Nothing past the bound ran, and the clock sits at the bound.
    ASSERT_EQ(sliced.sim().Now(), until);
  }

  EXPECT_GT(whole.trace().size(), 3000u);
  EXPECT_TRUE(std::is_sorted(
      whole.trace().begin(), whole.trace().end(),
      [](const auto& a, const auto& b) { return a.second < b.second; }));
  EXPECT_EQ(whole.trace(), sliced.trace());
  EXPECT_EQ(whole.sim().events_executed(), sliced.sim().events_executed());
  EXPECT_EQ(whole.sim().events_executed(), whole.trace().size());
  EXPECT_EQ(whole.sim().live_events(), 0u);
  EXPECT_EQ(sliced.sim().live_events(), 0u);
}

}  // namespace
}  // namespace ecnsharp
