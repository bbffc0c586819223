// Queueing-discipline and AQM-policy interfaces.
//
// An EgressPort owns exactly one QueueDisc (single FIFO or a multi-queue
// scheduler). AQM policies plug into queue discs and get two hooks:
//
//  * AllowEnqueue — runs on packet arrival with the instantaneous queue
//    state; may CE-mark the packet (DCTCP-RED style queue-length marking)
//    or veto the enqueue (drop).
//  * OnDequeue — runs when the packet leaves the queue, with the packet's
//    sojourn time; may CE-mark (CoDel / TCN / ECN# style sojourn marking).
//
// Buffer-overflow drops are enforced by the queue disc itself, independent
// of policy — this is what lets CoDel-style conservative marking run out of
// buffer under incast (paper §5.4, Fig. 10).
#ifndef ECNSHARP_NET_QUEUE_DISC_H_
#define ECNSHARP_NET_QUEUE_DISC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/packet.h"
#include "net/packet_tracer.h"
#include "sim/time.h"

namespace ecnsharp {

class BufferPolicy;

// Instantaneous occupancy of a queue (or of a whole multi-queue disc).
struct QueueSnapshot {
  std::uint32_t packets = 0;
  std::uint64_t bytes = 0;
};

class AqmPolicy {
 public:
  virtual ~AqmPolicy() = default;

  // `snapshot` describes the queue *before* this packet is appended.
  // Returns false to drop the packet instead of enqueueing it.
  virtual bool AllowEnqueue(Packet& pkt, const QueueSnapshot& snapshot,
                            Time now) {
    (void)pkt;
    (void)snapshot;
    (void)now;
    return true;
  }

  // `snapshot` describes the queue *after* this packet was removed;
  // `sojourn` is the time the packet spent queued.
  virtual void OnDequeue(Packet& pkt, const QueueSnapshot& snapshot, Time now,
                         Time sojourn) {
    (void)pkt;
    (void)snapshot;
    (void)now;
    (void)sojourn;
  }

  virtual std::string name() const = 0;
};

struct QueueDiscStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped_overflow = 0;  // buffer exhausted
  std::uint64_t dropped_aqm = 0;       // policy vetoed the enqueue
  std::uint64_t purged = 0;            // dropped by PurgeAll (link flap)
  std::uint64_t ce_marked = 0;         // packets CE-marked by the policy
};

class QueueDisc {
 public:
  virtual ~QueueDisc() = default;

  // Returns false if the packet was dropped (overflow or AQM veto).
  virtual bool Enqueue(std::unique_ptr<Packet> pkt, Time now) = 0;
  // Returns nullptr when empty.
  virtual std::unique_ptr<Packet> Dequeue(Time now) = 0;
  // Total occupancy across all internal queues.
  virtual QueueSnapshot Snapshot() const = 0;
  // Drops every queued packet (a flapped port configured to drop its
  // backlog). Shared-buffer reservations are released, drops are counted in
  // stats().purged (NOT dequeued — AQM OnDequeue hooks must not run), and
  // the tracer sees one OnPurge per packet (default forwards to
  // OnDrop(kPurged)), with accounting updated before each callback so
  // Snapshot() is consistent mid-purge. Returns the number of packets
  // dropped. The accounting invariant becomes
  //   enqueued == dequeued + purged + queued.
  virtual std::uint32_t PurgeAll(Time now) = 0;

  bool IsEmpty() const { return Snapshot().packets == 0; }
  const QueueDiscStats& stats() const { return stats_; }

  // Service classes, each with its own AQM instance (null = drop-tail): one
  // for a FIFO, one per class for a multi-queue scheduler. Harness code
  // reaches every AQM through these (e.g. ECN# re-estimation); discs without
  // classes report none.
  virtual std::size_t class_count() const { return 0; }
  virtual AqmPolicy* class_aqm(std::size_t cls) {
    (void)cls;
    return nullptr;
  }

  // Optional drop/mark tracing (non-owning; null disables). Ports forward
  // their tracer here so one SetTracer on the port covers the whole path.
  void SetTracer(PacketTracer* tracer) { tracer_ = tracer; }

 protected:
  QueueDiscStats stats_;
  PacketTracer* tracer_ = nullptr;
};

// Builds one switch egress queue disc, given the owning switch chip's
// shared-buffer pool (null when the topology's config names no buffer
// policy). A disc built on a pool must register its queue(s) with it.
using DiscFactory = std::function<std::unique_ptr<QueueDisc>(BufferPolicy*)>;

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_QUEUE_DISC_H_
