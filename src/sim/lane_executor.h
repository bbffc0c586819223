// LaneSet: locality-sharded event lanes executed on one thread each, with a
// bounded-skew (aligned-window) barrier — the engine under every
// ExperimentSession. One lane is the serial run; N > 1 lanes are the opt-in
// `--relaxed-lanes=N` mode.
//
// Each lane is an independent Simulator. Lanes interact only through
// Post(): a cross-lane event lands in the target lane's mailbox and is
// absorbed at the start of the next execution round. Run() advances all
// lanes in lock-step windows of width W; the barrier bounds the skew
// between any two lane clocks to W. As long as every cross-lane interaction
// carries a latency of at least W (for a fat-tree, the agg<->core
// propagation delay), a posted event always targets a strictly later round
// than the one that produced it, so absorption at round boundaries never
// violates causality — the classic conservative time-window scheme.
//
// Determinism: a lane's own events execute in its Simulator's usual
// (when, order) order, and mailbox absorption sorts by (when, from, seq)
// before scheduling, erasing the nondeterministic arrival interleaving of
// concurrent posters. Two identical runs therefore produce identical
// results. The *interleaving across lanes* is however relaxed relative to a
// single-simulator run — same-timestamp events in different lanes execute
// in unrelated order — so lanes-on trajectories may differ from lanes-off
// at ties. Parity/golden suites always run lanes-off; lanes-on pins
// run-to-run determinism instead (tests/lanes_test.cc).
#ifndef ECNSHARP_SIM_LANE_EXECUTOR_H_
#define ECNSHARP_SIM_LANE_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/unique_function.h"

namespace ecnsharp {

class LaneSet {
 public:
  explicit LaneSet(std::size_t lanes);
  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  std::size_t size() const { return lanes_.size(); }
  Simulator& lane(std::size_t i) { return *lanes_.at(i)->sim; }

  // Enqueues `fn` to execute on lane `to` at absolute time `when`. Safe to
  // call from lane `from`'s thread while a round is running. `when` must be
  // at or after the end of the round the poster is currently executing —
  // guaranteed when the posting link's latency is >= the Run() window.
  void Post(std::size_t from, std::size_t to, Time when,
            UniqueFunction<void()> fn);

  // Runs every lane from the common current time to `until` in aligned
  // windows of `window` (> 0), one thread per lane, absorbing mailboxes at
  // each round boundary. All lane clocks are left at `until`. Callers may
  // invoke Run repeatedly in slices; mailbox state carries over. A single
  // lane is simply lane(0).RunUntil(until): no thread, `window` unused.
  void Run(Time until, Time window);

 private:
  struct MailboxEntry {
    Time when;
    std::uint32_t from;
    std::uint64_t seq;
    UniqueFunction<void()> fn;
  };
  struct Lane {
    std::unique_ptr<Simulator> sim;
    std::mutex mailbox_mu;
    std::vector<MailboxEntry> mailbox;
    // Stamped by the *posting* lane (single-threaded per lane), so entries
    // from one poster carry their production order.
    std::uint64_t next_post_seq = 0;
  };

  // Drains lane i's mailbox, sorts by (when, from, seq), and schedules the
  // entries on its simulator. Runs on lane i's thread at round start.
  void Absorb(std::size_t i);

  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SIM_LANE_EXECUTOR_H_
