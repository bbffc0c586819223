#include "sim/lane_executor.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <thread>
#include <utility>

namespace ecnsharp {

namespace {

// Reusable N-party rendezvous (generation-counted so threads can cycle
// through many rounds without re-registration).
class RoundBarrier {
 public:
  explicit RoundBarrier(std::size_t parties) : parties_(parties) {}

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    const std::uint64_t gen = generation_;
    cv_.wait(lock, [&] { return generation_ != gen; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t waiting_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace

LaneSet::LaneSet(std::size_t lanes) {
  assert(lanes > 0);
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->sim = std::make_unique<Simulator>();
    lanes_.push_back(std::move(lane));
  }
}

void LaneSet::Post(std::size_t from, std::size_t to, Time when,
                   UniqueFunction<void()> fn) {
  assert(from < lanes_.size() && to < lanes_.size());
  MailboxEntry entry{when, static_cast<std::uint32_t>(from),
                     lanes_[from]->next_post_seq++, std::move(fn)};
  Lane& target = *lanes_[to];
  std::lock_guard<std::mutex> lock(target.mailbox_mu);
  target.mailbox.push_back(std::move(entry));
}

void LaneSet::Absorb(std::size_t i) {
  Lane& lane = *lanes_[i];
  std::vector<MailboxEntry> batch;
  {
    std::lock_guard<std::mutex> lock(lane.mailbox_mu);
    batch.swap(lane.mailbox);
  }
  if (batch.empty()) return;
  // The arrival interleaving of concurrent posters is nondeterministic;
  // the entries' contents are not. Sorting restores a deterministic
  // schedule order (and therefore deterministic order stamps).
  std::sort(batch.begin(), batch.end(),
            [](const MailboxEntry& a, const MailboxEntry& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.from != b.from) return a.from < b.from;
              return a.seq < b.seq;
            });
  for (MailboxEntry& entry : batch) {
    lane.sim->ScheduleAt(entry.when, std::move(entry.fn));
  }
}

void LaneSet::Run(Time until, Time window) {
  assert(window.IsPositive());
  const Time start = lanes_[0]->sim->Now();
  for (const auto& lane : lanes_) {
    assert(lane->sim->Now() == start && "lane clocks must be aligned");
    (void)lane;
  }
  if (until <= start) return;

  RoundBarrier barrier(lanes_.size());
  std::vector<std::thread> threads;
  threads.reserve(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    threads.emplace_back([this, i, start, until, window, &barrier] {
      Time t = start;
      while (t < until) {
        const Time next = std::min(t + window, until);
        Absorb(i);
        // Every lane drains its mailbox before any lane posts again: a post
        // from this round must not race into the batch of earlier rounds,
        // which would shift the target lane's order stamps run to run.
        barrier.Arrive();
        lanes_[i]->sim->RunUntil(next);
        barrier.Arrive();
        t = next;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace ecnsharp
