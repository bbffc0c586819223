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
#include "sim/unique_function.h"

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
// same-bucket, up-to-260 us (either side of the 65.5 us wheel horizon) and
// far-horizon delays and cancel each other, plus pinned events re-armed
// against stamps reserved before the one-shots they schedule. Every
// callback draws from one generator in execution order, so two runs agree
// only if they execute identically.
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

// The reference model: one plain binary min-heap on (when, order), with a
// generation check on every pop, implementing the Simulator calls the
// schedule below makes. One-shot ids are never reused; a pinned
// registration's generation bumps on every cancel.
class ReferenceEngine {
 public:
  Time Now() const { return now_; }
  std::uint64_t ReserveOrder() { return next_order_++; }
  EventId Schedule(Time delay, UniqueFunction<void()> fn) {
    return ScheduleAtOrdered(now_ + delay, next_order_++, std::move(fn));
  }
  EventId ScheduleAtOrdered(Time when, std::uint64_t order,
                            UniqueFunction<void()> fn) {
    one_shots_.push_back(std::move(fn));
    Push(when, order, one_shots_.size() - 1, false, 0);
    return EventId{one_shots_.size()};
  }
  void Cancel(EventId id) {
    if (id.valid() && one_shots_[id.seq - 1]) {
      one_shots_[id.seq - 1] = nullptr;
      --live_;
    }
  }
  PinnedEventId CreatePinned(UniqueFunction<void()> fn) {
    pinned_.push_back(Pinned{std::move(fn), 0, false});
    return PinnedEventId{static_cast<std::uint32_t>(pinned_.size() - 1)};
  }
  void SchedulePinnedAt(PinnedEventId id, Time when) {
    SchedulePinnedAtOrdered(id, when, next_order_++);
  }
  void SchedulePinnedAtOrdered(PinnedEventId id, Time when,
                               std::uint64_t order) {
    Pinned& p = pinned_[id.slot];
    p.armed = true;
    Push(when, order, id.slot, true, p.gen);
  }
  void CancelPinned(PinnedEventId id) {
    Pinned& p = pinned_[id.slot];
    if (!p.armed) return;
    ++p.gen;
    p.armed = false;
    --live_;
  }
  bool PinnedArmed(PinnedEventId id) const { return pinned_[id.slot].armed; }
  void DestroyPinned(PinnedEventId id) { CancelPinned(id); }

  void Run() { RunUntil(Time::Max()); }
  void RunUntil(Time until) {
    while (!heap_.empty() && heap_.front().when <= until) {
      std::pop_heap(heap_.begin(), heap_.end(), After);
      const Entry e = heap_.back();
      heap_.pop_back();
      if (e.pinned ? pinned_[e.index].gen != e.gen : !one_shots_[e.index]) {
        continue;  // cancelled
      }
      now_ = e.when;
      --live_;
      ++executed_;
      if (e.pinned) {
        pinned_[e.index].armed = false;
        pinned_[e.index].fn();
      } else {
        UniqueFunction<void()> fn = std::move(one_shots_[e.index]);
        one_shots_[e.index] = nullptr;
        fn();
      }
    }
    if (until != Time::Max() && now_ < until) now_ = until;
  }
  std::size_t live_events() const { return live_; }
  std::uint64_t events_executed() const { return executed_; }

 private:
  struct Entry {
    Time when;
    std::uint64_t order;
    std::size_t index;
    bool pinned;
    std::uint32_t gen;
  };
  struct Pinned {
    UniqueFunction<void()> fn;
    std::uint32_t gen;
    bool armed;
  };
  static bool After(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when > b.when : a.order > b.order;
  }
  void Push(Time when, std::uint64_t order, std::size_t index, bool pinned,
            std::uint32_t gen) {
    heap_.push_back(Entry{std::max(when, now_), order, index, pinned, gen});
    std::push_heap(heap_.begin(), heap_.end(), After);
    ++live_;
  }

  std::vector<Entry> heap_;
  std::vector<UniqueFunction<void()>> one_shots_;
  std::vector<Pinned> pinned_;
  Time now_ = Time::Zero();
  std::uint64_t next_order_ = 1;
  std::size_t live_ = 0;
  std::uint64_t executed_ = 0;
};

// A seeded schedule aimed at the wheel's edges, runnable on the Simulator
// and on the reference model alike. Delays hit 0 and 63/64/65 ns (into,
// onto and past a 64 ns bucket boundary, often the bucket being drained),
// 65,535/65,536/65,537 ns (either side of the wheel's horizon) and the far
// heap. Callbacks chain children, cancel one-shots, re-arm pinned events at
// stamps reserved before the one-shots they schedule, and reserve lazy
// stamps that a later trigger schedules at with ScheduleAtOrdered, as a
// Timer does. Every callback draws from one generator in execution order.
template <typename Engine>
class EdgeSchedule {
 public:
  using Trace = std::vector<std::pair<int, std::int64_t>>;  // (label, ns)

  EdgeSchedule() {
    for (std::size_t i = 0; i < 3; ++i) {
      pinned_.push_back(engine_.CreatePinned([this, i] { FirePinned(i); }));
      engine_.SchedulePinnedAt(pinned_.back(), engine_.Now() + Delay());
    }
    for (int i = 0; i < 200; ++i) ScheduleOne();
  }
  ~EdgeSchedule() {
    for (const PinnedEventId p : pinned_) engine_.DestroyPinned(p);
  }

  Engine& engine() { return engine_; }
  const Trace& trace() const { return trace_; }

 private:
  std::uint64_t Draw(std::uint64_t n) {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return (rng_ >> 33) % n;
  }
  Time Delay() {
    static constexpr std::int64_t kEdges[] = {0,      63,     64,    65,
                                              65'535, 65'536, 65'537};
    switch (Draw(4)) {
      case 0:
      case 1:
        return Time::Nanoseconds(kEdges[Draw(std::size(kEdges))]);
      case 2:
        return Time::Nanoseconds(static_cast<std::int64_t>(Draw(70'000)));
      default:
        return Time::Nanoseconds(
            65'536 + static_cast<std::int64_t>(Draw(3'000'000)));
    }
  }
  void ScheduleOne() {
    if (budget_-- <= 0) return;
    const int label = next_label_++;
    ids_.push_back(engine_.Schedule(Delay(), [this, label] { Fire(label); }));
  }
  // A lazy stamp: reserved now for a deadline `Delay()` ahead, scheduled at
  // by a trigger that runs at or before the deadline.
  void ReserveLazy() {
    if (budget_-- <= 0) return;
    const Time deadline = engine_.Now() + Delay();
    const std::uint64_t order = engine_.ReserveOrder();
    const int label = next_label_++;
    const Time lead = Time::Nanoseconds(static_cast<std::int64_t>(
        Draw(static_cast<std::uint64_t>((deadline - engine_.Now()).ns()) + 1)));
    engine_.Schedule(lead, [this, deadline, order, label] {
      trace_.emplace_back(-100 - label, engine_.Now().ns());
      ids_.push_back(engine_.ScheduleAtOrdered(
          deadline, order, [this, label] { Fire(label); }));
    });
  }
  void Fire(int label) {
    trace_.emplace_back(label, engine_.Now().ns());
    for (std::uint64_t n = Draw(3); n > 0; --n) ScheduleOne();
    if (Draw(4) == 0) ReserveLazy();
    if (Draw(4) == 0) engine_.Cancel(ids_[Draw(ids_.size())]);
    if (Draw(8) == 0) {
      const PinnedEventId p = pinned_[Draw(pinned_.size())];
      if (engine_.PinnedArmed(p)) {
        engine_.CancelPinned(p);
      } else if (budget_ > 0) {
        engine_.SchedulePinnedAt(p, engine_.Now() + Delay());
      }
    }
  }
  void FirePinned(std::size_t i) {
    trace_.emplace_back(-1 - static_cast<int>(i), engine_.Now().ns());
    if (budget_-- <= 0) return;
    const std::uint64_t order = engine_.ReserveOrder();
    ScheduleOne();
    engine_.SchedulePinnedAtOrdered(pinned_[i], engine_.Now() + Delay(),
                                    order);
  }

  Engine engine_;
  std::uint64_t rng_ = 0x853c49e6748fea9bull;
  int budget_ = 8000;
  int next_label_ = 0;
  std::vector<EventId> ids_;
  std::vector<PinnedEventId> pinned_;
  Trace trace_;
};

// Runs the schedule on `sim` and `ref` in the same slices, checking both
// engines' clocks and live counts at every slice end.
template <typename Step>
void RunInSlices(EdgeSchedule<Simulator>& sim,
                 EdgeSchedule<ReferenceEngine>& ref, Step step) {
  for (std::size_t i = 0; sim.engine().live_events() > 0; ++i) {
    const Time until = sim.engine().Now() + step(i);
    sim.engine().RunUntil(until);
    ref.engine().RunUntil(until);
    ASSERT_EQ(sim.engine().Now(), ref.engine().Now());
    ASSERT_EQ(sim.engine().live_events(), ref.engine().live_events());
  }
  ref.engine().Run();
}

void ExpectSameTrace(const EdgeSchedule<Simulator>::Trace& sim,
                     const EdgeSchedule<ReferenceEngine>::Trace& ref) {
  for (std::size_t i = 0; i < std::min(sim.size(), ref.size()); ++i) {
    ASSERT_EQ(sim[i], ref[i]) << "event " << i << " differs";
  }
  ASSERT_EQ(sim.size(), ref.size());
}

TEST(EventQueueTest, WheelMatchesAReferenceHeapEventByEvent) {
  EdgeSchedule<Simulator> whole;
  EdgeSchedule<ReferenceEngine> whole_ref;
  whole.engine().Run();
  whole_ref.engine().Run();
  EXPECT_GT(whole.trace().size(), 5000u);
  ExpectSameTrace(whole.trace(), whole_ref.trace());
  EXPECT_EQ(whole.engine().events_executed(),
            whole_ref.engine().events_executed());
  EXPECT_EQ(whole.engine().live_events(), 0u);

  // Slices whose bounds fall inside a bucket that the slice has begun to
  // drain (so sorted), on its last nanosecond, and across the horizon.
  const Time slices[] = {Time::Nanoseconds(1),      Time::Nanoseconds(17),
                         Time::Nanoseconds(63),     Time::Nanoseconds(64),
                         Time::Nanoseconds(5),      Time::Nanoseconds(65'537),
                         Time::Nanoseconds(40),     Time::Microseconds(400)};
  EdgeSchedule<Simulator> sliced;
  EdgeSchedule<ReferenceEngine> sliced_ref;
  RunInSlices(sliced, sliced_ref, [&slices](std::size_t i) {
    return slices[i % std::size(slices)];
  });
  ExpectSameTrace(sliced.trace(), sliced_ref.trace());
  EXPECT_EQ(sliced.trace(), whole.trace());
}

}  // namespace
}  // namespace ecnsharp
