// Discrete-event simulation core.
//
// `Simulator` owns the virtual clock and the pending-event store. All model
// components hold a reference to one Simulator and schedule callbacks on it;
// nothing in the library uses wall-clock time. Events scheduled for the same
// instant execute in scheduling order (FIFO), which makes runs fully
// deterministic for a fixed seed.
//
// The pending-event store is a timing wheel in front of a binary heap. The
// near horizon (1024 buckets of 64 ns, 65.5 us) holds the dense
// packet-timescale events; anything later (RTO timers, scenario actions,
// long delay lines) goes to the far heap. A bucket is a calendar-queue run
// (Brown, CACM 1988): pushes append unsorted, and the first pop sorts the
// run once by (when, order) with the minimum at the back, so draining it is
// a pop_back; a push into an already-sorted run is a sorted insert from the
// back. Both stores order entries by the same (when, order) key and the one
// pop routine takes the minimum across the current bucket and the far heap,
// so the execution sequence is exactly that of a single min-heap, and
// cancelled far-horizon events are pruned eagerly instead of rotting in the
// heap body. Transport timers rarely cancel at all: a Timer (sim/timer.h)
// keeps its armed event across later re-arms and reaches the engine only
// when its deadline moves earlier or its stale event fires.
//
// The hot path is allocation- and hash-free: callbacks are stored in a
// recycled slot array, the wheel and heap order POD entries only, and
// cancellation is an O(1) generation-tag bump (no hash-set bookkeeping).
// Recurring events (egress serialization, wire arrivals) can be *pinned*:
// the callback is registered once in chunk-stable storage and re-armed per
// occurrence, so a million packet transmissions build zero closures. Each
// Simulator owns its storage outright: nothing is cached across instances
// or threads.
#ifndef ECNSHARP_SIM_SIMULATOR_H_
#define ECNSHARP_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.h"
#include "sim/unique_function.h"

namespace ecnsharp {

// Opaque handle to a scheduled event; used only for cancellation. Internally
// packs the event's slot index and the slot's generation tag, so a stale id
// (slot since executed/cancelled and recycled) can never cancel the slot's
// new occupant.
struct EventId {
  std::uint64_t seq = 0;
  constexpr bool valid() const { return seq != 0; }
};

// Handle to a pinned (persistent, re-armable) event. Unlike EventId it stays
// valid across firings: the callback is installed once with CreatePinned and
// each SchedulePinned* arms one occurrence.
struct PinnedEventId {
  std::uint32_t slot = UINT32_MAX;
  constexpr bool valid() const { return slot != UINT32_MAX; }
};

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time Now() const { return now_; }

  // Schedules `fn` to run `delay` after the current time. Negative delays
  // are clamped to zero (run "now", after currently executing events).
  EventId Schedule(Time delay, UniqueFunction<void()> fn);
  // Schedules `fn` at absolute time `when` (clamped to Now()).
  EventId ScheduleAt(Time when, UniqueFunction<void()> fn);

  // Reserves the next FIFO tie-break order stamp without scheduling
  // anything. Batched components (net/in_flight_queue.h) reserve the stamp
  // at the instant the legacy code would have scheduled a per-packet event,
  // then later arm a pinned event at exactly that position via
  // SchedulePinnedAtOrdered — so batched delivery interleaves with all other
  // same-timestamp events precisely as the unbatched code did. Lazy timers
  // (sim/timer.h) reserve the stamp on every re-arm and schedule at it only
  // when the deadline is reached, via ScheduleAtOrdered.
  std::uint64_t ReserveOrder() { return next_order_++; }
  // ScheduleAt with a stamp from ReserveOrder(): the one-shot counterpart
  // of SchedulePinnedAtOrdered.
  EventId ScheduleAtOrdered(Time when, std::uint64_t order,
                            UniqueFunction<void()> fn);

  // Cancels a pending event. Cancelling an already-executed or invalid id is
  // a harmless no-op.
  void Cancel(EventId id);

  // --- Pinned events ------------------------------------------------------
  // A pinned event owns its callback for the lifetime of the registration;
  // arming an occurrence moves no closure and allocates nothing. At most one
  // occurrence may be armed at a time (re-arm from inside the callback is
  // fine — the occurrence has un-armed by then).
  PinnedEventId CreatePinned(UniqueFunction<void()> fn);
  void SchedulePinnedAt(PinnedEventId id, Time when);
  // SchedulePinnedAt with a stamp from ReserveOrder(); events at equal
  // `when` execute in increasing order-stamp sequence.
  void SchedulePinnedAtOrdered(PinnedEventId id, Time when,
                               std::uint64_t order);
  // Disarms the pending occurrence, if any (the registration survives).
  void CancelPinned(PinnedEventId id);
  bool PinnedArmed(PinnedEventId id) const;
  // Releases the registration (disarming it first). The id is dead after.
  void DestroyPinned(PinnedEventId id);

  // Executes events until the queue is empty or Stop() is called.
  void Run();
  // Executes events with timestamp <= `until`, then advances the clock to
  // `until` (if the run was not stopped early).
  void RunUntil(Time until);
  void RunFor(Time duration) { RunUntil(now_ + duration); }

  // Stops the run loop after the currently executing event returns.
  void Stop() { stopped_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }
  // Entries currently sitting in the wheel and the far heap, including
  // cancelled ones not yet pruned. Computed on demand (test/diagnostic use)
  // so the hot path keeps no counter.
  std::size_t pending_events() const;
  // Scheduled events that have neither executed nor been cancelled. Unlike
  // pending_events() this excludes cancelled entries still stored, and
  // it is the invariant the cancellation bookkeeping is bounded by.
  std::size_t live_events() const { return live_count_; }

 private:
  // Entries are POD: the callback lives in its slot and only this 24-byte
  // record moves during a sort, an insert or a sift. `order` breaks ties
  // FIFO. The top bit of `slot` routes the entry to the pinned-slot arena
  // instead of the one-shot slot array.
  struct Entry {
    Time when;
    std::uint64_t order = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  static constexpr std::uint32_t kPinnedBit = 0x80000000u;
  // `a` runs after `b`: the far heap's comparator, and the descending order
  // that leaves a sorted bucket's minimum at its back. FIFO among equal
  // times.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };
  // A slot holds one pending one-shot callback. `gen` increments every time
  // the slot is released (executed or cancelled); stored entries and
  // EventIds carrying an older generation are stale. A slot in the free
  // list therefore never matches any outstanding id. (A tag can alias only
  // after 2^32 reuses of one slot between issuing an id and cancelling it —
  // timers re-arm their ids long before that.)
  struct Slot {
    UniqueFunction<void()> fn;
    std::uint32_t gen = 0;
  };
  // Pinned registrations live in fixed-size chunks so their addresses are
  // stable: the callback runs in place, with no per-occurrence move, even if
  // registering more pinned events grows the arena mid-callback. One-shot
  // slots stay in a flat vector (dispatch moves the callback out before
  // running it), keeping that hotter path a single indexed load.
  struct PinnedSlot {
    UniqueFunction<void()> fn;
    std::uint32_t gen = 0;
    bool armed = false;
  };

  // Near-horizon window: 1024 buckets of 64 ns cover 65.5 us —
  // serialization and propagation timescales land here, a few events per
  // bucket; protocol timers and longer delays go to the far heap.
  static constexpr int kWheelShift = 6;
  static constexpr std::size_t kWheelBuckets = 1024;
  static constexpr std::size_t kWheelMask = kWheelBuckets - 1;
  static constexpr std::size_t kOccWords = kWheelBuckets / 64;

  static constexpr std::uint32_t kPinnedChunkShift = 6;
  static constexpr std::uint32_t kPinnedChunkSize = 1u << kPinnedChunkShift;
  static constexpr std::uint32_t kPinnedChunkMask = kPinnedChunkSize - 1;

  PinnedSlot& pinned(std::uint32_t i) {
    return pinned_chunks_[i >> kPinnedChunkShift][i & kPinnedChunkMask];
  }
  const PinnedSlot& pinned(std::uint32_t i) const {
    return pinned_chunks_[i >> kPinnedChunkShift][i & kPinnedChunkMask];
  }
  bool EntryLive(const Entry& e) const {
    return (e.slot & kPinnedBit) == 0
               ? slots_[e.slot].gen == e.gen
               : pinned(e.slot & ~kPinnedBit).gen == e.gen;
  }

  // Inserts an entry into the wheel (when within the near-horizon window of
  // Now()) or the far heap. `when` must be >= Now().
  void Push(const Entry& e);
  EventId ScheduleImpl(Time when, std::uint64_t order,
                       UniqueFunction<void()> fn);

  static bool Bit(const std::uint64_t* words, std::size_t idx) {
    return (words[idx >> 6] >> (idx & 63)) & 1u;
  }
  static void SetBit(std::uint64_t* words, std::size_t idx) {
    words[idx >> 6] |= 1ull << (idx & 63);
  }
  // An emptied bucket is unoccupied and, with nothing to order, unsorted.
  void ClearBucket(std::size_t idx) {
    occupancy_[idx >> 6] &= ~(1ull << (idx & 63));
    sorted_[idx >> 6] &= ~(1ull << (idx & 63));
  }
  // First occupied masked bucket index in abs-bucket order starting at the
  // bucket holding Now(); -1 when the wheel is empty.
  int FindOccupiedBucket() const;

  // The one pop routine behind Run and RunUntil: moves the earliest live
  // event with `when <= until` into *out, or returns false when there is
  // none. Cancelled far-heap tops are pruned first; then the current bucket
  // is sorted if it is not yet, and the (when, order) minimum of its back
  // and the far heap's top is popped, and discarded if stale. A stale entry
  // still bounds its store from below, so choosing by it never hides an
  // earlier live event.
  bool PopNext(Time until, Entry* out);
  void Dispatch(const Entry& entry);

  // Always kWheelBuckets wide. A bucket whose sorted_ bit is set is in
  // descending (when, order) order; otherwise it is in push order.
  std::vector<std::vector<Entry>> buckets_;
  std::uint64_t occupancy_[kOccWords] = {};
  std::uint64_t sorted_[kOccWords] = {};
  std::vector<Entry> far_;  // events past the wheel window
  std::size_t wheel_count_ = 0;  // entries currently in buckets_
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<PinnedSlot[]>> pinned_chunks_;
  std::uint32_t pinned_count_ = 0;
  std::vector<std::uint32_t> free_pinned_;
  std::size_t live_count_ = 0;
  Time now_ = Time::Zero();
  std::uint64_t next_order_ = 1;
  std::uint64_t events_executed_ = 0;
  bool stopped_ = false;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SIM_SIMULATOR_H_
