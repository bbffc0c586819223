// Link/port/switch behaviour: serialization timing, propagation, FIFO
// draining, overflow drops, ECMP routing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/delay_line.h"
#include "net/egress_port.h"
#include "net/event_mode.h"
#include "net/host.h"
#include "net/switch_node.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"

namespace ecnsharp {
namespace {

std::unique_ptr<Packet> MakePacket(std::uint32_t src, std::uint32_t dst,
                                   std::uint32_t bytes,
                                   std::uint16_t sport = 1) {
  auto pkt = std::make_unique<Packet>();
  pkt->flow = FlowKey{src, dst, sport, 80};
  pkt->size_bytes = bytes;
  return pkt;
}

// Collects delivered packets with their arrival times.
class CollectorSink : public PacketSink {
 public:
  explicit CollectorSink(Simulator& sim) : sim_(sim) {}
  void HandlePacket(std::unique_ptr<Packet> pkt) override {
    arrivals_.emplace_back(sim_.Now(), std::move(pkt));
  }
  std::size_t count() const { return arrivals_.size(); }
  Time arrival(std::size_t i) const { return arrivals_.at(i).first; }
  const Packet& packet(std::size_t i) const { return *arrivals_.at(i).second; }

 private:
  Simulator& sim_;
  std::vector<std::pair<Time, std::unique_ptr<Packet>>> arrivals_;
};

std::unique_ptr<FifoQueueDisc> BigFifo() {
  return std::make_unique<FifoQueueDisc>(1ull << 30, nullptr);
}

TEST(EgressPortTest, SinglePacketTiming) {
  Simulator sim;
  CollectorSink sink(sim);
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::Microseconds(5), BigFifo());
  port.ConnectTo(sink);
  port.Enqueue(MakePacket(0, 1, 1500));
  sim.Run();
  ASSERT_EQ(sink.count(), 1u);
  // 1.2 us serialization + 5 us propagation.
  EXPECT_EQ(sink.arrival(0), Time::Nanoseconds(6200));
}

TEST(EgressPortTest, BackToBackSerialization) {
  Simulator sim;
  CollectorSink sink(sim);
  EgressPort port(sim, DataRate::GigabitsPerSecond(10), Time::Zero(),
                  BigFifo());
  port.ConnectTo(sink);
  for (int i = 0; i < 3; ++i) port.Enqueue(MakePacket(0, 1, 1500));
  sim.Run();
  ASSERT_EQ(sink.count(), 3u);
  EXPECT_EQ(sink.arrival(0), Time::Nanoseconds(1200));
  EXPECT_EQ(sink.arrival(1), Time::Nanoseconds(2400));
  EXPECT_EQ(sink.arrival(2), Time::Nanoseconds(3600));
  EXPECT_EQ(port.counters().tx_packets, 3u);
  EXPECT_EQ(port.counters().tx_bytes, 4500u);
}

TEST(EgressPortTest, PreservesFifoOrder) {
  Simulator sim;
  CollectorSink sink(sim);
  EgressPort port(sim, DataRate::GigabitsPerSecond(1), Time::Zero(),
                  BigFifo());
  port.ConnectTo(sink);
  for (std::uint16_t i = 0; i < 10; ++i) {
    port.Enqueue(MakePacket(0, 1, 500, i));
  }
  sim.Run();
  ASSERT_EQ(sink.count(), 10u);
  for (std::uint16_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sink.packet(i).flow.src_port, i);
  }
}

TEST(EgressPortTest, IdlePortResumesAfterDrain) {
  Simulator sim;
  CollectorSink sink(sim);
  EgressPort port(sim, DataRate::GigabitsPerSecond(10), Time::Zero(),
                  BigFifo());
  port.ConnectTo(sink);
  port.Enqueue(MakePacket(0, 1, 1500));
  sim.Run();
  ASSERT_EQ(sink.count(), 1u);
  sim.ScheduleAt(Time::Microseconds(100),
                 [&port] { port.Enqueue(MakePacket(0, 1, 1500)); });
  sim.Run();
  ASSERT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.arrival(1), Time::Microseconds(100) + Time::Nanoseconds(1200));
}

TEST(FifoQueueDiscTest, OverflowDropsTail) {
  FifoQueueDisc disc(3000, nullptr);  // two 1500B packets fit
  EXPECT_TRUE(disc.Enqueue(MakePacket(0, 1, 1500), Time::Zero()));
  EXPECT_TRUE(disc.Enqueue(MakePacket(0, 1, 1500), Time::Zero()));
  EXPECT_FALSE(disc.Enqueue(MakePacket(0, 1, 1500), Time::Zero()));
  EXPECT_EQ(disc.stats().dropped_overflow, 1u);
  EXPECT_EQ(disc.Snapshot().packets, 2u);
  EXPECT_EQ(disc.Snapshot().bytes, 3000u);
}

TEST(FifoQueueDiscTest, DequeueEmptyReturnsNull) {
  FifoQueueDisc disc(3000, nullptr);
  EXPECT_EQ(disc.Dequeue(Time::Zero()), nullptr);
}

TEST(FifoQueueDiscTest, StampsEnqueueTime) {
  FifoQueueDisc disc(1 << 20, nullptr);
  disc.Enqueue(MakePacket(0, 1, 100), Time::Microseconds(7));
  auto out = disc.Dequeue(Time::Microseconds(11));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->enqueue_time, Time::Microseconds(7));
}

TEST(DelayLineTest, AddsFixedDelay) {
  Simulator sim;
  CollectorSink sink(sim);
  DelayLine line(sim, sink, Time::Microseconds(42));
  line.HandlePacket(MakePacket(0, 1, 100));
  sim.Run();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.arrival(0), Time::Microseconds(42));
}

TEST(HostTest, ExtraEgressDelayAppliesToSends) {
  Simulator sim;
  CollectorSink sink(sim);
  Host host(sim, 0);
  auto nic = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(10), Time::Zero(), BigFifo());
  nic->ConnectTo(sink);
  host.AttachNic(std::move(nic));
  host.set_extra_egress_delay(Time::Microseconds(30));
  host.SendPacket(MakePacket(0, 1, 1500));
  sim.Run();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.arrival(0),
            Time::Microseconds(30) + Time::Nanoseconds(1200));
}

TEST(SwitchTest, RoutesByDestination) {
  Simulator sim;
  SwitchNode sw(sim, "sw");
  CollectorSink sink_a(sim);
  CollectorSink sink_b(sim);
  auto port_a = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(10), Time::Zero(), BigFifo());
  port_a->ConnectTo(sink_a);
  auto port_b = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(10), Time::Zero(), BigFifo());
  port_b->ConnectTo(sink_b);
  sw.AddRoute(1, sw.AddPort(std::move(port_a)));
  sw.AddRoute(2, sw.AddPort(std::move(port_b)));

  sw.HandlePacket(MakePacket(0, 1, 100));
  sw.HandlePacket(MakePacket(0, 2, 100));
  sw.HandlePacket(MakePacket(0, 2, 100));
  sim.Run();
  EXPECT_EQ(sink_a.count(), 1u);
  EXPECT_EQ(sink_b.count(), 2u);
  EXPECT_EQ(sw.rx_packets(), 3u);
}

TEST(SwitchTest, DropsWithoutRoute) {
  Simulator sim;
  SwitchNode sw(sim, "sw");
  sw.HandlePacket(MakePacket(0, 99, 100));
  EXPECT_EQ(sw.no_route_drops(), 1u);
}

TEST(SwitchTest, EcmpIsPerFlowStable) {
  Simulator sim;
  SwitchNode sw(sim, "sw", /*ecmp_salt=*/7);
  CollectorSink sink_a(sim);
  CollectorSink sink_b(sim);
  auto port_a = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(10), Time::Zero(), BigFifo());
  port_a->ConnectTo(sink_a);
  auto port_b = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(10), Time::Zero(), BigFifo());
  port_b->ConnectTo(sink_b);
  EgressPort& pa = sw.AddPort(std::move(port_a));
  EgressPort& pb = sw.AddPort(std::move(port_b));
  sw.AddRoute(5, pa);
  sw.AddRoute(5, pb);

  // Same flow always takes the same port.
  for (int i = 0; i < 20; ++i) sw.HandlePacket(MakePacket(1, 5, 100, 33));
  sim.Run();
  EXPECT_TRUE(sink_a.count() == 20 || sink_b.count() == 20);
}

TEST(SwitchTest, EcmpSpreadsFlows) {
  Simulator sim;
  SwitchNode sw(sim, "sw", /*ecmp_salt=*/7);
  CollectorSink sink_a(sim);
  CollectorSink sink_b(sim);
  auto port_a = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(10), Time::Zero(), BigFifo());
  port_a->ConnectTo(sink_a);
  auto port_b = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(10), Time::Zero(), BigFifo());
  port_b->ConnectTo(sink_b);
  EgressPort& pa = sw.AddPort(std::move(port_a));
  EgressPort& pb = sw.AddPort(std::move(port_b));
  sw.AddRoute(5, pa);
  sw.AddRoute(5, pb);

  for (std::uint16_t sport = 0; sport < 200; ++sport) {
    sw.HandlePacket(MakePacket(1, 5, 100, sport));
  }
  sim.Run();
  // Both uplinks must carry a substantial share of the 200 flows.
  EXPECT_GT(sink_a.count(), 50u);
  EXPECT_GT(sink_b.count(), 50u);
}

// Range routes match their inclusive [lo, hi] block; exact routes win over
// an overlapping range (a fat-tree edge routes its own hosts exactly while
// an agg above it routes the whole edge block as one range).
TEST(SwitchTest, RangeRoutesMatchInclusiveBlocks) {
  Simulator sim;
  SwitchNode sw(sim, "sw");
  CollectorSink sink_exact(sim);
  CollectorSink sink_lo(sim);
  CollectorSink sink_hi(sim);
  auto mk = [&](CollectorSink& sink) -> EgressPort& {
    auto port = std::make_unique<EgressPort>(
        sim, DataRate::GigabitsPerSecond(10), Time::Zero(), BigFifo());
    port->ConnectTo(sink);
    return sw.AddPort(std::move(port));
  };
  EgressPort& exact = mk(sink_exact);
  EgressPort& lo = mk(sink_lo);
  EgressPort& hi = mk(sink_hi);
  sw.AddRouteRange(10, 19, lo);
  sw.AddRouteRange(20, 29, hi);
  sw.AddRoute(15, exact);

  sw.HandlePacket(MakePacket(1, 10, 100));  // lo edge of first block
  sw.HandlePacket(MakePacket(1, 19, 100));  // hi edge of first block
  sw.HandlePacket(MakePacket(1, 15, 100));  // exact beats range
  sw.HandlePacket(MakePacket(1, 20, 100));  // second block
  sw.HandlePacket(MakePacket(1, 29, 100));
  sw.HandlePacket(MakePacket(1, 30, 100));  // past the last block: dropped
  sw.HandlePacket(MakePacket(1, 9, 100));   // before the first: dropped
  sim.Run();
  EXPECT_EQ(sink_lo.count(), 2u);
  EXPECT_EQ(sink_exact.count(), 1u);
  EXPECT_EQ(sink_hi.count(), 2u);
  EXPECT_EQ(sw.no_route_drops(), 2u);
}

// The default route catches everything no exact or range entry claims, and
// spreads over its ECMP set (a fat-tree edge's uplinks are exactly this).
TEST(SwitchTest, DefaultRouteCatchesUnmatchedAndSpreads) {
  Simulator sim;
  SwitchNode sw(sim, "sw", /*ecmp_salt=*/3);
  CollectorSink sink_local(sim);
  CollectorSink sink_up_a(sim);
  CollectorSink sink_up_b(sim);
  auto mk = [&](CollectorSink& sink) -> EgressPort& {
    auto port = std::make_unique<EgressPort>(
        sim, DataRate::GigabitsPerSecond(10), Time::Zero(), BigFifo());
    port->ConnectTo(sink);
    return sw.AddPort(std::move(port));
  };
  sw.AddRoute(5, mk(sink_local));
  sw.AddDefaultRoute(mk(sink_up_a));
  sw.AddDefaultRoute(mk(sink_up_b));

  sw.HandlePacket(MakePacket(1, 5, 100));  // exact route still wins
  for (std::uint16_t sport = 0; sport < 200; ++sport) {
    sw.HandlePacket(MakePacket(1, 77, 100, sport));  // all default-routed
  }
  sim.Run();
  EXPECT_EQ(sink_local.count(), 1u);
  EXPECT_EQ(sink_up_a.count() + sink_up_b.count(), 200u);
  EXPECT_GT(sink_up_a.count(), 50u);
  EXPECT_GT(sink_up_b.count(), 50u);
  EXPECT_EQ(sw.no_route_drops(), 0u);
}

// ---------------------------------------------------------------------------
// ECMP hash quality: no polarization across salted hops
// ---------------------------------------------------------------------------
//
// The old SelectEcmp mixed (key_hash ^ salt) with one multiply; structured
// key populations (sequential ports or addresses, which is what every
// topology builder produces) left correlated low bits, so the subpopulation
// a first-hop switch sent to uplink 0 could collapse onto a single
// second-hop uplink — the classic ECMP polarization failure. The splitmix64
// finalizer must spread every hop's conditional subpopulation uniformly.

// Helper: bucket histogram of `hashes` under `salt`, plus the subpopulation
// that landed in bucket 0 (the keys the next hop actually sees).
struct SpreadResult {
  std::vector<std::size_t> counts;
  std::vector<std::uint64_t> survivors;  // hashes that picked bucket 0
};

SpreadResult SpreadOverBuckets(const std::vector<std::uint64_t>& hashes,
                               std::uint64_t salt, std::size_t buckets) {
  SpreadResult r;
  r.counts.assign(buckets, 0);
  for (const std::uint64_t h : hashes) {
    const std::size_t b = SwitchNode::EcmpBucket(h, salt, buckets);
    ++r.counts[b];
    if (b == 0) r.survivors.push_back(h);
  }
  return r;
}

// Asserts every bucket is within 5% of the uniform share and the chi-square
// statistic is sane. Deterministic: fixed keys, fixed hash.
void ExpectUniformSpread(const SpreadResult& r, const char* hop) {
  SCOPED_TRACE(hop);
  std::size_t total = 0;
  for (const std::size_t c : r.counts) total += c;
  const double expected =
      static_cast<double>(total) / static_cast<double>(r.counts.size());
  double chi2 = 0.0;
  for (const std::size_t c : r.counts) {
    const double dev = static_cast<double>(c) - expected;
    chi2 += dev * dev / expected;
    EXPECT_LE(std::abs(dev), 0.05 * expected)
        << "bucket " << (&c - r.counts.data()) << " count " << c
        << " vs expected " << expected;
  }
  // df = buckets-1 = 7; the 99.99th percentile is ~29.9. A polarized hash
  // blows through this by orders of magnitude.
  EXPECT_LT(chi2, 30.0);
}

TEST(EcmpHashTest, NoPolarizationAcrossThreeSaltedHops) {
  // Structured population: a full grid of sequential addresses and
  // sequential source ports — 128 x 128 x 128 = 2,097,152 flow keys, the
  // worst case for multiply-only mixing.
  FlowKeyHash hasher;
  std::vector<std::uint64_t> hashes;
  hashes.reserve(128u * 128u * 128u);
  for (std::uint32_t src = 0; src < 128; ++src) {
    for (std::uint32_t dst = 128; dst < 256; ++dst) {
      for (std::uint16_t sport = 0; sport < 128; ++sport) {
        hashes.push_back(hasher(FlowKey{src, dst, sport, 80}));
      }
    }
  }

  // Three hops with the fat-tree salt scheme (edge 0, agg 0, core 0), 8-way
  // ECMP each (a k=16 fabric). Each hop only sees the keys the previous hop
  // sent out its first uplink — the conditional subpopulation where
  // polarization shows up.
  const SpreadResult hop1 = SpreadOverBuckets(hashes, 0x10000, 8);
  ExpectUniformSpread(hop1, "hop1 (edge, 2M keys)");
  ASSERT_GT(hop1.survivors.size(), 10000u);

  const SpreadResult hop2 = SpreadOverBuckets(hop1.survivors, 0x20000, 8);
  ExpectUniformSpread(hop2, "hop2 (agg, conditional)");
  ASSERT_GT(hop2.survivors.size(), 10000u);

  const SpreadResult hop3 = SpreadOverBuckets(hop2.survivors, 0x30000, 8);
  ExpectUniformSpread(hop3, "hop3 (core, doubly conditional)");
}

// Different salts really give different selections (the per-switch salting
// is what de-correlates consecutive hops in the first place).
TEST(EcmpHashTest, SaltsDecorrelateSelections) {
  FlowKeyHash hasher;
  std::size_t differ = 0;
  for (std::uint16_t sport = 0; sport < 1000; ++sport) {
    const std::uint64_t h = hasher(FlowKey{1, 2, sport, 80});
    if (SwitchNode::EcmpBucket(h, 0x10000, 8) !=
        SwitchNode::EcmpBucket(h, 0x20000, 8)) {
      ++differ;
    }
  }
  // Independent uniform picks differ 7/8 of the time; correlated ones don't.
  EXPECT_GT(differ, 700u);
}

TEST(PacketTest, MarkCeRequiresEcnCapability) {
  Packet pkt;
  pkt.ecn = EcnCodepoint::kNotEct;
  pkt.MarkCe();
  EXPECT_FALSE(pkt.IsCeMarked());
  pkt.ecn = EcnCodepoint::kEct0;
  pkt.MarkCe();
  EXPECT_TRUE(pkt.IsCeMarked());
}

TEST(PacketTest, FlowKeyReversal) {
  const FlowKey k{10, 20, 1111, 80};
  const FlowKey r = k.Reversed();
  EXPECT_EQ(r.src, 20u);
  EXPECT_EQ(r.dst, 10u);
  EXPECT_EQ(r.src_port, 80);
  EXPECT_EQ(r.dst_port, 1111);
  EXPECT_EQ(r.Reversed(), k);
}


// --- Mid-serialization reconfiguration semantics (dynamics contract) -----
//
// SetRate applies from the next serialization on: the packet on the
// transmitter finishes its remaining bits at the old rate. LinkDown lets
// that committed packet complete and arrive; only queued (and later
// arriving) packets are affected. Pinned here in the default burst-drain
// mode and re-checked byte-identically in the legacy per-packet mode.

// Runs the SetRate-mid-serialization scenario and returns the two arrival
// times. 1500 B at 10 Gb/s serializes in 1.2 us; the rate change lands at
// 0.5 us, mid-way through packet one.
std::pair<Time, Time> RunMidSerializationRateChange() {
  Simulator sim;
  CollectorSink sink(sim);
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::Microseconds(5), BigFifo());
  port.ConnectTo(sink);
  port.Enqueue(MakePacket(0, 1, 1500));
  port.Enqueue(MakePacket(0, 1, 1500));
  sim.ScheduleAt(Time::Nanoseconds(500),
                 [&port] { port.SetRate(DataRate::GigabitsPerSecond(1)); });
  sim.Run();
  EXPECT_EQ(sink.count(), 2u);
  return {sink.arrival(0), sink.arrival(1)};
}

TEST(EgressPortDynamicsTest, SetRateMidSerializationKeepsOldRateForCurrent) {
  const auto [first, second] = RunMidSerializationRateChange();
  // Packet one: full 1.2 us at 10 Gb/s (unaffected by the 0.5 us change),
  // +5 us propagation. Packet two: starts at 1.2 us, serializes 12 us at
  // the new 1 Gb/s rate, arrives at 18.2 us.
  EXPECT_EQ(first, Time::Nanoseconds(6200));
  EXPECT_EQ(second, Time::Nanoseconds(1200 + 12000 + 5000));
}

TEST(EgressPortDynamicsTest, SetRateSemanticsIdenticalInLegacyEventMode) {
  const auto burst = RunMidSerializationRateChange();
  LegacyPerPacketEvents() = true;
  const auto legacy = RunMidSerializationRateChange();
  LegacyPerPacketEvents() = false;
  EXPECT_EQ(burst.first, legacy.first);
  EXPECT_EQ(burst.second, legacy.second);
}

// LinkDown at 0.5 us, mid-way through packet one's serialization, with two
// more packets queued. Returns (arrivals, dropped_link_down, purged).
struct LinkDownOutcome {
  std::vector<Time> arrivals;
  std::uint64_t dropped_link_down;
  std::uint64_t purged;
};

LinkDownOutcome RunMidSerializationLinkDown(bool drop_queued, bool link_up_at_10us) {
  Simulator sim;
  CollectorSink sink(sim);
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::Microseconds(5), BigFifo());
  port.ConnectTo(sink);
  for (int i = 0; i < 3; ++i) port.Enqueue(MakePacket(0, 1, 1500));
  sim.ScheduleAt(Time::Nanoseconds(500),
                 [&port, drop_queued] { port.LinkDown(drop_queued); });
  // A packet arriving while the link is down is dropped (no carrier).
  sim.ScheduleAt(Time::Microseconds(2),
                 [&port] { port.Enqueue(MakePacket(0, 1, 1500)); });
  if (link_up_at_10us) {
    sim.ScheduleAt(Time::Microseconds(10), [&port] { port.LinkUp(); });
  }
  sim.Run();
  LinkDownOutcome outcome;
  for (std::size_t i = 0; i < sink.count(); ++i) {
    outcome.arrivals.push_back(sink.arrival(i));
  }
  outcome.dropped_link_down = port.counters().dropped_link_down;
  outcome.purged = port.queue_disc().stats().purged;
  return outcome;
}

TEST(EgressPortDynamicsTest, LinkDownMidSerializationCommittedPacketArrives) {
  const LinkDownOutcome outcome =
      RunMidSerializationLinkDown(/*drop_queued=*/false,
                                  /*link_up_at_10us=*/true);
  // Packet one was committed to the wire: finishes at 1.2 us (old rate) and
  // arrives at 6.2 us despite the 0.5 us LinkDown. The 2 us arrival is
  // dropped; the two queued survivors drain after the 10 us LinkUp,
  // back-to-back at 1.2 us pitch.
  ASSERT_EQ(outcome.arrivals.size(), 3u);
  EXPECT_EQ(outcome.arrivals[0], Time::Nanoseconds(6200));
  EXPECT_EQ(outcome.arrivals[1], Time::Nanoseconds(10000 + 1200 + 5000));
  EXPECT_EQ(outcome.arrivals[2], Time::Nanoseconds(10000 + 2400 + 5000));
  EXPECT_EQ(outcome.dropped_link_down, 1u);
  EXPECT_EQ(outcome.purged, 0u);
}

TEST(EgressPortDynamicsTest, LinkDownDropQueuedPurgesBacklogNotWire) {
  const LinkDownOutcome outcome =
      RunMidSerializationLinkDown(/*drop_queued=*/true,
                                  /*link_up_at_10us=*/true);
  // Only the committed packet arrives; the two queued packets are purged
  // (not counted as link-down drops), and the 2 us arrival is dropped.
  ASSERT_EQ(outcome.arrivals.size(), 1u);
  EXPECT_EQ(outcome.arrivals[0], Time::Nanoseconds(6200));
  EXPECT_EQ(outcome.dropped_link_down, 1u);
  EXPECT_EQ(outcome.purged, 2u);
}

TEST(EgressPortDynamicsTest, LinkDownSemanticsIdenticalInLegacyEventMode) {
  for (const bool drop_queued : {false, true}) {
    const LinkDownOutcome burst =
        RunMidSerializationLinkDown(drop_queued, /*link_up_at_10us=*/true);
    LegacyPerPacketEvents() = true;
    const LinkDownOutcome legacy =
        RunMidSerializationLinkDown(drop_queued, /*link_up_at_10us=*/true);
    LegacyPerPacketEvents() = false;
    EXPECT_EQ(burst.arrivals, legacy.arrivals);
    EXPECT_EQ(burst.dropped_link_down, legacy.dropped_link_down);
    EXPECT_EQ(burst.purged, legacy.purged);
  }
}

// Host netem delay changes mid-run: packets 0-2 are sent at t=0 under a
// 30 us extra delay; at 1 us the delay shrinks to 5 us and packets 3-4
// follow; at 2 us it drops to 0 and packets 5-6 go straight to the NIC.
// Returns each arrival as (time, packet number).
std::vector<std::pair<Time, std::uint16_t>> RunHostDelayChanges() {
  Simulator sim;
  CollectorSink sink(sim);
  Host host(sim, 0);
  host.AttachNic(std::make_unique<EgressPort>(
                     sim, DataRate::GigabitsPerSecond(10),
                     Time::Microseconds(5), BigFifo()))
      .ConnectTo(sink);
  std::uint16_t next = 0;
  const auto send_two_at = [&](Time at, Time delay) {
    sim.ScheduleAt(at, [&host, &next, delay] {
      host.set_extra_egress_delay(delay);
      for (int i = 0; i < 2; ++i) {
        host.SendPacket(MakePacket(0, 1, 1500, next++));
      }
    });
  };
  host.set_extra_egress_delay(Time::Microseconds(30));
  for (int i = 0; i < 3; ++i) host.SendPacket(MakePacket(0, 1, 1500, next++));
  send_two_at(Time::Microseconds(1), Time::Microseconds(5));
  send_two_at(Time::Microseconds(2), Time::Zero());
  sim.Run();
  std::vector<std::pair<Time, std::uint16_t>> arrivals;
  for (std::size_t i = 0; i < sink.count(); ++i) {
    arrivals.emplace_back(sink.arrival(i), sink.packet(i).flow.src_port);
  }
  return arrivals;
}

TEST(HostTest, ExtraDelayChangesIdenticalInLegacyEventMode) {
  const auto burst = RunHostDelayChanges();
  LegacyPerPacketEvents() = true;
  const auto legacy = RunHostDelayChanges();
  LegacyPerPacketEvents() = false;
  // Later sends overtake held ones: 5-6 leave at 2 us, 3-4 at 6 us, 0-2 at
  // 30 us; each then takes 1.2 us of serialization plus 5 us on the wire.
  const std::vector<std::pair<Time, std::uint16_t>> expected = {
      {Time::Nanoseconds(8200), 5},   {Time::Nanoseconds(9400), 6},
      {Time::Nanoseconds(12200), 3},  {Time::Nanoseconds(13400), 4},
      {Time::Nanoseconds(36200), 0},  {Time::Nanoseconds(37400), 1},
      {Time::Nanoseconds(38600), 2}};
  EXPECT_EQ(burst, expected);
  EXPECT_EQ(burst, legacy);
}

}  // namespace
}  // namespace ecnsharp
