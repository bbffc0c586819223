#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ecnsharp {

namespace {

// EventId packing: low 32 bits hold (slot index + 1) so that a
// default-constructed id (seq == 0) stays invalid; high 32 bits hold the
// slot's generation at scheduling time.
constexpr std::uint64_t PackId(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         (static_cast<std::uint64_t>(slot) + 1);
}

}  // namespace

Simulator::Simulator() : buckets_(kWheelBuckets) {}

// Callbacks are destroyed while every member is still intact: a captured
// object's destructor may cancel its own events (a Timer does).
Simulator::~Simulator() {
  for (auto& s : slots_) s.fn = nullptr;
  for (std::uint32_t i = 0; i < pinned_count_; ++i) pinned(i).fn = nullptr;
}

void Simulator::Push(const HeapEntry& e) {
  const auto abs = static_cast<std::uint64_t>(e.when.ns()) >> kWheelShift;
  const auto now_abs = static_cast<std::uint64_t>(now_.ns()) >> kWheelShift;
  if (abs - now_abs < kWheelBuckets) {
    const std::size_t idx = abs & kWheelMask;
    auto& bucket = buckets_[idx];
    bucket.push_back(e);
    std::push_heap(bucket.begin(), bucket.end(), Later{});
    MarkBucket(idx);
    ++wheel_count_;
    return;
  }
  far_.push_back(e);
  std::push_heap(far_.begin(), far_.end(), Later{});
}

EventId Simulator::ScheduleImpl(Time when, std::uint64_t order,
                                UniqueFunction<void()> fn) {
  if (when < now_) when = now_;
  std::uint32_t s_idx;
  if (!free_slots_.empty()) {
    s_idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s_idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[s_idx];
  s.fn = std::move(fn);
  Push(HeapEntry{when, order, s_idx, s.gen});
  ++live_count_;
  return EventId{PackId(s_idx, s.gen)};
}

EventId Simulator::Schedule(Time delay, UniqueFunction<void()> fn) {
  if (delay.IsNegative()) delay = Time::Zero();
  return ScheduleImpl(now_ + delay, next_order_++, std::move(fn));
}

EventId Simulator::ScheduleAt(Time when, UniqueFunction<void()> fn) {
  return ScheduleImpl(when, next_order_++, std::move(fn));
}

EventId Simulator::ScheduleAtOrdered(Time when, std::uint64_t order,
                                     UniqueFunction<void()> fn) {
  assert(order < next_order_);
  return ScheduleImpl(when, order, std::move(fn));
}

void Simulator::Cancel(EventId id) {
  if (!id.valid()) return;
  const auto slot_plus_one = static_cast<std::uint32_t>(id.seq & 0xffffffffu);
  if (slot_plus_one == 0) return;
  const std::uint32_t s_idx = slot_plus_one - 1;
  const auto gen = static_cast<std::uint32_t>(id.seq >> 32);
  if (s_idx >= slots_.size()) return;
  Slot& s = slots_[s_idx];
  // A generation mismatch means the event already executed or was cancelled
  // (and the slot possibly recycled): no-op, nothing retained.
  if (s.gen != gen) return;
  s.fn = nullptr;
  ++s.gen;  // invalidates the heap entry and any outstanding copies of id
  free_slots_.push_back(s_idx);
  --live_count_;
}

PinnedEventId Simulator::CreatePinned(UniqueFunction<void()> fn) {
  std::uint32_t s_idx;
  if (!free_pinned_.empty()) {
    s_idx = free_pinned_.back();
    free_pinned_.pop_back();
  } else {
    if ((pinned_count_ >> kPinnedChunkShift) == pinned_chunks_.size()) {
      pinned_chunks_.push_back(
          std::make_unique<PinnedSlot[]>(kPinnedChunkSize));
    }
    s_idx = pinned_count_++;
  }
  PinnedSlot& p = pinned(s_idx);
  p.fn = std::move(fn);
  p.armed = false;
  return PinnedEventId{s_idx};
}

void Simulator::SchedulePinnedAt(PinnedEventId id, Time when) {
  SchedulePinnedAtOrdered(id, when, next_order_++);
}

void Simulator::SchedulePinnedAtOrdered(PinnedEventId id, Time when,
                                        std::uint64_t order) {
  assert(id.valid() && order < next_order_);
  PinnedSlot& p = pinned(id.slot);
  assert(!p.armed);
  if (when < now_) when = now_;
  Push(HeapEntry{when, order, id.slot | kPinnedBit, p.gen});
  p.armed = true;
  ++live_count_;
}

void Simulator::CancelPinned(PinnedEventId id) {
  if (!id.valid()) return;
  PinnedSlot& p = pinned(id.slot);
  if (!p.armed) return;
  ++p.gen;  // stale-ifies the armed heap entry
  p.armed = false;
  --live_count_;
}

bool Simulator::PinnedArmed(PinnedEventId id) const {
  return id.valid() && pinned(id.slot).armed;
}

void Simulator::DestroyPinned(PinnedEventId id) {
  if (!id.valid()) return;
  CancelPinned(id);
  PinnedSlot& p = pinned(id.slot);
  ++p.gen;  // belt and braces: any aliasing heap entry is stale
  p.fn = nullptr;
  free_pinned_.push_back(id.slot);
}

int Simulator::FindOccupiedBucket() const {
  const auto start = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(now_.ns()) >> kWheelShift) & kWheelMask);
  // Hot case: the bucket holding Now() is occupied (dense same-instant and
  // near-instant traffic lands there).
  if (occupancy_[start >> 6] & (1ull << (start & 63))) {
    return static_cast<int>(start);
  }
  // Visit masked indices in absolute-bucket order: start..end, then the
  // wrapped prefix 0..start-1 (which holds the window's later half). Word-
  // at-a-time with a masked first word.
  std::size_t word = start >> 6;
  std::uint64_t bits = occupancy_[word] & (~0ull << (start & 63));
  for (std::size_t scanned = 0; scanned <= kOccWords; ++scanned) {
    if (bits != 0) {
      const auto idx =
          (word << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
      return static_cast<int>(idx);
    }
    word = (word + 1) & (kOccWords - 1);
    bits = occupancy_[word];
    // After wrapping past `start`'s word once, restrict to bits below start.
    if (scanned + 1 == kOccWords && word == (start >> 6)) {
      bits &= (start & 63) != 0 ? ~(~0ull << (start & 63)) : 0ull;
    }
  }
  return -1;
}

bool Simulator::PopNext(Time until, HeapEntry* out) {
  for (;;) {
    // Eagerly prune cancelled far-heap tops: with live near-horizon work in
    // the buckets, a mostly-cancelled timer heap collapses here instead of
    // accumulating stale entries that every push then sifts past.
    while (!far_.empty() && !EntryLive(far_.front())) {
      std::pop_heap(far_.begin(), far_.end(), Later{});
      far_.pop_back();
    }
    const int b = wheel_count_ != 0 ? FindOccupiedBucket() : -1;
    std::vector<HeapEntry>* heap = &far_;
    if (b >= 0) {
      auto& bucket = buckets_[static_cast<std::size_t>(b)];
      if (far_.empty() || Later{}(far_.front(), bucket.front())) heap = &bucket;
    }
    if (heap->empty() || heap->front().when > until) return false;
    std::pop_heap(heap->begin(), heap->end(), Later{});
    *out = heap->back();
    heap->pop_back();
    if (heap != &far_) {
      --wheel_count_;
      if (heap->empty()) ClearBucket(static_cast<std::size_t>(b));
    }
    if (EntryLive(*out)) return true;
  }
}

void Simulator::Dispatch(const HeapEntry& entry) {
  now_ = entry.when;
  --live_count_;
  if ((entry.slot & kPinnedBit) == 0) {
    Slot& s = slots_[entry.slot];
    // Move the callback out and release the slot before running it, so the
    // callback can freely schedule (possibly reusing this slot); cancelling
    // the just-dispatched id is a no-op thanks to the generation bump.
    UniqueFunction<void()> fn = std::move(s.fn);
    ++s.gen;
    free_slots_.push_back(entry.slot);
    fn();
  } else {
    // Pinned: chunk-stable storage, run in place, zero closure churn. The
    // callback may re-arm its own occurrence.
    PinnedSlot& p = pinned(entry.slot & ~kPinnedBit);
    p.armed = false;
    p.fn();
  }
  ++events_executed_;
}

std::size_t Simulator::pending_events() const {
  std::size_t n = far_.size();
  for (const auto& b : buckets_) n += b.size();
  return n;
}

void Simulator::Run() {
  stopped_ = false;
  HeapEntry e;
  while (!stopped_ && PopNext(Time::Max(), &e)) Dispatch(e);
}

void Simulator::RunUntil(Time until) {
  stopped_ = false;
  HeapEntry e;
  while (!stopped_ && PopNext(until, &e)) Dispatch(e);
  if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace ecnsharp
