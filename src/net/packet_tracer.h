// Lightweight per-port packet tracing, tcpdump-style.
//
// An EgressPort optionally reports every transmitted packet to its tracers
// (up to two, see PacketTracerList); queue discs report drops and CE marks
// through the same interface, so a dynamics run can audit *where* loss and
// marking happen (overflow vs AQM veto vs injected fault vs link flap).
// Tracers only observe: per-port counts live in the disc's QueueDiscStats
// and the port's PortCounters. The TextTracer renders events as one
// line each ("12.345us TX 0->1 seq=1460 len=1500 CE") for debugging and for
// golden-trace tests.
#ifndef ECNSHARP_NET_PACKET_TRACER_H_
#define ECNSHARP_NET_PACKET_TRACER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/observer_list.h"
#include "sim/time.h"

namespace ecnsharp {

// Why a packet never reached the peer.
enum class DropReason : std::uint8_t {
  kOverflow,   // buffer exhausted (tail drop / shared pool refusal)
  kAqm,        // policy vetoed the enqueue
  kLinkDown,   // arrived at a port whose link is administratively down
  kPurged,     // queued when a flapped port dropped its backlog
  kFaultLoss,  // injected random loss (dropped before serialization)
  kCorrupt,    // injected corruption (transmitted, discarded at the far end)
};

const char* DropReasonName(DropReason reason);

struct QueueSnapshot;

class PacketTracer {
 public:
  virtual ~PacketTracer() = default;
  virtual void OnTransmit(const Packet& pkt, Time at) = 0;
  // A packet was lost. Default no-op keeps transmit-only tracers working.
  virtual void OnDrop(const Packet& pkt, Time at, DropReason reason) {
    (void)pkt;
    (void)at;
    (void)reason;
  }
  // A packet was CE-marked by an AQM policy (at enqueue or dequeue).
  virtual void OnMark(const Packet& pkt, Time at) {
    (void)pkt;
    (void)at;
  }
  // A packet was accepted into the queue; `after` is the occupancy
  // including it.
  virtual void OnEnqueue(const Packet& pkt, Time at,
                         const QueueSnapshot& after) {
    (void)pkt;
    (void)at;
    (void)after;
  }
  // A packet left the queue for transmission; `after` excludes it and
  // `sojourn` is the time it spent queued.
  virtual void OnDequeue(const Packet& pkt, Time at, const QueueSnapshot& after,
                         Time sojourn) {
    (void)pkt;
    (void)at;
    (void)after;
    (void)sojourn;
  }
  // A queued packet was discarded by PurgeAll; `after` excludes it. The
  // disc updates its accounting before each callback, so `after` is
  // consistent mid-purge. Default forwards to OnDrop(kPurged) so
  // drop-oriented tracers (e.g. TextTracer) see purges without overriding
  // this hook.
  virtual void OnPurge(const Packet& pkt, Time at, const QueueSnapshot& after) {
    (void)after;
    OnDrop(pkt, at, DropReason::kPurged);
  }
};

// The tracers attached to one port or queue disc.
using PacketTracerList = ObserverList<PacketTracer>;

// Collects formatted lines in memory (bounded).
class TextTracer : public PacketTracer {
 public:
  explicit TextTracer(std::size_t max_lines = 100'000)
      : max_lines_(max_lines) {}

  void OnTransmit(const Packet& pkt, Time at) override {
    Append(Format(pkt, at));
  }

  void OnDrop(const Packet& pkt, Time at, DropReason reason) override {
    ++drops_;
    Append(FormatEvent("DROP", pkt, at) + " reason=" + DropReasonName(reason));
  }

  void OnMark(const Packet& pkt, Time at) override {
    ++marks_;
    Append(FormatEvent("MARK", pkt, at));
  }

  static std::string Format(const Packet& pkt, Time at);
  // Same line layout with an arbitrary event tag ("TX", "DROP", "MARK").
  static std::string FormatEvent(const char* event, const Packet& pkt,
                                 Time at);

  const std::vector<std::string>& lines() const { return lines_; }
  std::size_t suppressed() const { return suppressed_; }
  std::size_t drops() const { return drops_; }
  std::size_t marks() const { return marks_; }

 private:
  void Append(std::string line) {
    if (lines_.size() >= max_lines_) {
      ++suppressed_;
      return;
    }
    lines_.push_back(std::move(line));
  }

  std::size_t max_lines_;
  std::vector<std::string> lines_;
  std::size_t suppressed_ = 0;
  std::size_t drops_ = 0;
  std::size_t marks_ = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_PACKET_TRACER_H_
