#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/timer.h"

namespace ecnsharp {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Time::Microseconds(30), [&order] { order.push_back(3); });
  sim.Schedule(Time::Microseconds(10), [&order] { order.push_back(1); });
  sim.Schedule(Time::Microseconds(20), [&order] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Time::Microseconds(30));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, FifoAmongEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Time::Microseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Time::Microseconds(1), [&sim, &fired] {
    ++fired;
    sim.Schedule(Time::Microseconds(1), [&fired] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Time::Microseconds(2));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Time::Microseconds(5), [&sim, &fired] {
    sim.Schedule(Time::Microseconds(-3), [&sim, &fired] {
      fired = true;
      EXPECT_EQ(sim.Now(), Time::Microseconds(5));
    });
  });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id =
      sim.Schedule(Time::Microseconds(1), [&fired] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, CancelInvalidIdIsNoOp) {
  Simulator sim;
  sim.Cancel(EventId{});
  sim.Cancel(EventId{12345});
  sim.Run();
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Time::Microseconds(1), [&sim, &fired] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Time::Microseconds(2), [&fired] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(Time::Milliseconds(7));
  EXPECT_EQ(sim.Now(), Time::Milliseconds(7));
}

TEST(SimulatorTest, RunUntilExecutesOnlyDueEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Time::Microseconds(10), [&fired] { ++fired; });
  sim.Schedule(Time::Microseconds(30), [&fired] { ++fired; });
  sim.RunUntil(Time::Microseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Time::Microseconds(20));
  sim.RunUntil(Time::Microseconds(40));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(Time::Microseconds(10));
  sim.RunFor(Time::Microseconds(10));
  EXPECT_EQ(sim.Now(), Time::Microseconds(20));
}

TEST(SimulatorTest, EventAtExactRunUntilBoundaryExecutes) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Time::Microseconds(10), [&fired] { fired = true; });
  sim.RunUntil(Time::Microseconds(10));
  EXPECT_TRUE(fired);
}

TEST(TimerTest, FiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&fired] { ++fired; });
  timer.Schedule(Time::Microseconds(5));
  EXPECT_TRUE(timer.pending());
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, RescheduleReplacesPending) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&fired] { ++fired; });
  timer.Schedule(Time::Microseconds(5));
  timer.Schedule(Time::Microseconds(50));
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Time::Microseconds(50));
}

TEST(TimerTest, CancelStopsFire) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&fired] { ++fired; });
  timer.Schedule(Time::Microseconds(5));
  timer.Cancel();
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, ReschedulableFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer* handle = nullptr;
  Timer timer(sim, [&] {
    if (++fired < 3) handle->Schedule(Time::Microseconds(10));
  });
  handle = &timer;
  timer.Schedule(Time::Microseconds(10));
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), Time::Microseconds(30));
}

TEST(TimerTest, ExpiryReportsAbsoluteTime) {
  Simulator sim;
  Timer timer(sim, [] {});
  sim.RunUntil(Time::Microseconds(100));
  timer.Schedule(Time::Microseconds(20));
  EXPECT_EQ(timer.expiry(), Time::Microseconds(120));
}

TEST(TimerTest, LaterRearmFiresOnceAtNewDeadline) {
  Simulator sim;
  std::vector<Time> fires;
  Timer timer(sim, [&] { fires.push_back(sim.Now()); });
  timer.Schedule(Time::Microseconds(5));
  // Later re-arms keep the one armed event: nothing new reaches the engine.
  for (int i = 6; i <= 50; ++i) timer.Schedule(Time::Microseconds(i));
  EXPECT_EQ(sim.live_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(Time::Milliseconds(1));
  EXPECT_EQ(fires, (std::vector<Time>{Time::Microseconds(50)}));
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, EarlierRearmFiresEarly) {
  Simulator sim;
  std::vector<Time> fires;
  Timer timer(sim, [&] { fires.push_back(sim.Now()); });
  timer.Schedule(Time::Microseconds(500));
  timer.Schedule(Time::Microseconds(5));
  EXPECT_EQ(sim.live_events(), 1u);
  sim.RunUntil(Time::Milliseconds(1));
  EXPECT_EQ(fires, (std::vector<Time>{Time::Microseconds(5)}));
}

TEST(TimerTest, CancelThenLaterRearmFiresAtNewDeadline) {
  Simulator sim;
  std::vector<Time> fires;
  Timer timer(sim, [&] { fires.push_back(sim.Now()); });
  timer.Schedule(Time::Microseconds(5));
  timer.Cancel();
  EXPECT_FALSE(timer.pending());
  timer.Schedule(Time::Microseconds(40));
  EXPECT_TRUE(timer.pending());
  EXPECT_EQ(timer.expiry(), Time::Microseconds(40));
  sim.RunUntil(Time::Milliseconds(1));
  EXPECT_EQ(fires, (std::vector<Time>{Time::Microseconds(40)}));
}

TEST(TimerTest, DestroyedTimerWithStaleEventNeverFires) {
  Simulator sim;
  int fired = 0;
  auto timer = std::make_unique<Timer>(sim, [&fired] { ++fired; });
  timer->Schedule(Time::Microseconds(5));
  timer->Schedule(Time::Microseconds(50));  // moved: event still at 5 us
  timer->Cancel();
  timer->Schedule(Time::Microseconds(80));
  timer.reset();
  EXPECT_EQ(sim.live_events(), 0u);
  // Other events at the old and new deadlines still run; the dead timer's
  // callback (and its memory) is never touched.
  int others = 0;
  sim.ScheduleAt(Time::Microseconds(5), [&others] { ++others; });
  sim.ScheduleAt(Time::Microseconds(80), [&others] { ++others; });
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(others, 2);
}

// The eager timer Timer replaced: every re-arm cancels its engine event and
// schedules a fresh one. It is the reference the lazy Timer must match
// fire for fire, tie order included.
class EagerTimer {
 public:
  EagerTimer(Simulator& sim, std::function<void()> callback)
      : sim_(sim), callback_(std::move(callback)) {}
  ~EagerTimer() { Cancel(); }
  EagerTimer(const EagerTimer&) = delete;
  EagerTimer& operator=(const EagerTimer&) = delete;

  void Schedule(Time delay) { ScheduleAt(sim_.Now() + delay); }
  void ScheduleAt(Time when) {
    Cancel();
    pending_ = true;
    event_ = sim_.ScheduleAt(when, [this] { Fire(); });
  }
  void Cancel() {
    if (pending_) {
      sim_.Cancel(event_);
      pending_ = false;
    }
  }
 private:
  void Fire() {
    pending_ = false;
    callback_();
  }

  Simulator& sim_;
  std::function<void()> callback_;
  EventId event_{};
  bool pending_ = false;
};

// One (Now() in ns, id) entry per callback: timers log 1000 + index, plain
// one-shot events log their own sequence number.
using FireLog = std::vector<std::pair<std::int64_t, int>>;

// Drives `kTimers` timers of type T through a seeded random mix of
// Schedule, ScheduleAt, Cancel, destruction and re-arms from inside their
// own callbacks, interleaved with one-shot events. Delays come from a coarse
// grid of a few microseconds plus two far-heap values (past the wheel's
// 65.5 us window), so many events tie on (when) and their order stamps decide.
template <typename T>
FireLog DriveTimers(std::uint64_t seed) {
  constexpr int kTimers = 4;
  constexpr int kBudget = 3000;
  Simulator sim;
  Rng rng(seed);
  FireLog log;
  int budget = kBudget;
  int next_event = 0;
  std::vector<std::unique_ptr<T>> timers(kTimers);
  int running = -1;  // the timer whose callback is executing, if any

  const auto delay = [&rng] {
    const std::uint64_t pick = rng.UniformInt(10);
    if (pick == 8) return Time::Microseconds(300);
    if (pick == 9) return Time::Microseconds(600);
    return Time::Microseconds(static_cast<std::int64_t>(pick));
  };
  std::function<void()> act;
  const auto one_shot = [&](Time after) {
    const int id = next_event++;
    sim.Schedule(after, [&log, &sim, &act, id] {
      log.emplace_back(sim.Now().ns(), id);
      act();
    });
  };
  const auto make_timer = [&](int i) {
    timers[static_cast<std::size_t>(i)] = std::make_unique<T>(sim, [&, i] {
      log.emplace_back(sim.Now().ns(), 1000 + i);
      running = i;
      act();
      // Re-arm from inside the callback half of the time.
      if (budget > 0 && rng.UniformInt(2) == 0) {
        timers[static_cast<std::size_t>(i)]->Schedule(delay());
      }
      running = -1;
    });
  };
  for (int i = 0; i < kTimers; ++i) make_timer(i);

  // One random step; each consumes budget so the run ends.
  act = [&] {
    for (int steps = 1 + static_cast<int>(rng.UniformInt(3));
         steps > 0 && budget > 0; --steps, --budget) {
      T& timer = *timers[rng.UniformInt(kTimers)];
      switch (rng.UniformInt(6)) {
        case 0:
          timer.Schedule(delay());
          break;
        case 1:
          timer.ScheduleAt(sim.Now() + delay());
          break;
        case 2:
          timer.Cancel();
          break;
        case 3: {
          // Pull the deadline in, then push it out again.
          timer.Schedule(Time::Microseconds(600));
          timer.Schedule(delay());
          break;
        }
        case 4:
          one_shot(delay());
          break;
        default: {
          const int i = static_cast<int>(rng.UniformInt(kTimers));
          if (rng.UniformInt(8) == 0 && i != running) {
            make_timer(i);  // destroys the old timer, armed or stale
          } else {
            one_shot(delay());
          }
          break;
        }
      }
    }
  };

  for (int i = 0; i < 8; ++i) one_shot(delay());
  sim.Run();
  return log;
}

TEST(TimerTest, LazyRearmsMatchEagerOracleFireForFire) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FireLog eager = DriveTimers<EagerTimer>(seed);
    const FireLog lazy = DriveTimers<Timer>(seed);
    ASSERT_GT(eager.size(), 1000u) << "seed " << seed;
    ASSERT_EQ(lazy, eager) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ecnsharp
