#include "replays.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "buffer/policy_spec.h"
#include "net/egress_port.h"
#include "net/host.h"
#include "net/packet_pool.h"
#include "sched/fifo_queue_disc.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sketch/sketch_config.h"
#include "sketch/telemetry.h"
#include "transport/tcp_config.h"
#include "transport/tcp_stack.h"

namespace perfbench {

using ecnsharp::FlowKey;
using ecnsharp::Packet;
using ecnsharp::Simulator;
using ecnsharp::Time;
using Clock = std::chrono::steady_clock;

namespace {

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

std::unique_ptr<Packet> DataPacket(const FlowKey& flow, std::uint64_t seq) {
  auto pkt = ecnsharp::NewPacket();
  pkt->flow = flow;
  pkt->size_bytes = ecnsharp::kFullPacketBytes;
  pkt->payload_bytes = ecnsharp::kMaxSegmentSize;
  pkt->ecn = ecnsharp::EcnCodepoint::kEct0;
  pkt->seq = seq;
  return pkt;
}

// Consumes delivered packets.
class CountingSink : public ecnsharp::PacketSink {
 public:
  void HandlePacket(std::unique_ptr<Packet> pkt) override {
    ++received_;
    pkt.reset();
  }
  std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
};

// One actor of the engine replay: reschedules itself until the shared event
// budget is spent.
struct Actor {
  Simulator* sim = nullptr;
  std::uint64_t* remaining = nullptr;
  const std::vector<Time>* delays = nullptr;  // one-shot delay table
  std::size_t cursor = 0;
  ecnsharp::PinnedEventId pinned;
  Time pinned_delays[2];
  bool phase = false;

  void FirePinned() {
    if (*remaining == 0) return;
    --*remaining;
    phase = !phase;
    sim->SchedulePinnedAt(pinned, sim->Now() + pinned_delays[phase ? 1 : 0]);
  }
  void FireOneShot() {
    if (*remaining == 0) return;
    --*remaining;
    cursor = (cursor + 1) % delays->size();
    sim->Schedule((*delays)[cursor], [this] { FireOneShot(); });
  }
};

}  // namespace

double EngineNsPerEvent(const EngineShape& shape, std::uint64_t events) {
  Simulator sim;
  std::uint64_t remaining = events;
  ecnsharp::Rng rng(0x5eed);
  std::vector<Time> delays(1024);
  for (Time& d : delays) {
    d = Time::Nanoseconds(static_cast<std::int64_t>(
        rng.Uniform() * static_cast<double>(shape.other_max_delay.ns())));
  }
  const std::size_t pending = std::max<std::size_t>(1, shape.pending);
  const auto pinned = static_cast<std::size_t>(
      std::clamp(shape.pinned_share, 0.0, 1.0) * static_cast<double>(pending));
  std::vector<std::unique_ptr<Actor>> actors;
  actors.reserve(pending);
  for (std::size_t i = 0; i < pending; ++i) {
    auto actor = std::make_unique<Actor>();
    actor->sim = &sim;
    actor->remaining = &remaining;
    actor->delays = &delays;
    actor->cursor = rng.UniformInt(delays.size());
    Actor* a = actor.get();
    const Time offset = delays[a->cursor];
    if (i < pinned) {
      a->pinned_delays[0] = shape.tx_delay;
      a->pinned_delays[1] = shape.wire_delay;
      a->pinned = sim.CreatePinned([a] { a->FirePinned(); });
      sim.SchedulePinnedAt(a->pinned, offset);
    } else {
      sim.Schedule(offset, [a] { a->FireOneShot(); });
    }
    actors.push_back(std::move(actor));
  }
  const auto start = Clock::now();
  sim.Run();
  const double ns = NsSince(start);
  for (const auto& a : actors) {
    if (a->pinned.valid()) sim.DestroyPinned(a->pinned);
  }
  return ns / static_cast<double>(
                  std::max<std::uint64_t>(1, sim.events_executed()));
}

double ForwardNsPerPacket(const std::vector<ecnsharp::SwitchNode*>& switches,
                          const std::vector<double>& weights,
                          const std::vector<FlowKey>& flows,
                          std::uint64_t packets) {
  if (switches.empty() || flows.empty()) return 0.0;
  // Switch choice per packet, drawn up front in proportion to the run's
  // per-switch arrivals.
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<double> cumulative;
  cumulative.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    acc += total > 0.0 ? w / total : 1.0 / static_cast<double>(weights.size());
    cumulative.push_back(acc);
  }
  ecnsharp::Rng rng(0xf0);
  constexpr std::size_t kBatch = 4096;
  std::vector<std::uint32_t> target(kBatch);
  std::vector<std::unique_ptr<Packet>> batch(kBatch);
  double ns = 0.0;
  std::uint64_t done = 0;
  while (done < packets) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBatch, packets - done));
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.Uniform();
      target[i] = static_cast<std::uint32_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), u) -
          cumulative.begin());
      if (target[i] >= switches.size()) target[i] = switches.size() - 1;
      const FlowKey& key = flows[rng.UniformInt(flows.size())];
      batch[i] = DataPacket((done + i) % 2 == 0 ? key : key.Reversed(), i);
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      switches[target[i]]->HandlePacket(std::move(batch[i]));
    }
    ns += NsSince(start);
    done += n;
  }
  return ns / static_cast<double>(std::max<std::uint64_t>(1, packets));
}

double PortNsPerPacket(ecnsharp::DataRate rate, Time delay, std::size_t train,
                       std::uint64_t packets, double* events_per_packet) {
  Simulator sim;
  CountingSink sink;
  ecnsharp::EgressPort port(
      sim, rate, delay,
      std::make_unique<ecnsharp::FifoQueueDisc>(1ull << 40, nullptr));
  port.ConnectTo(sink);
  const FlowKey flow{1, 2, 1000, 80};
  train = std::max<std::size_t>(1, train);
  std::uint64_t sent = 0;
  const auto start = Clock::now();
  while (sent < packets) {
    for (std::size_t i = 0; i < train && sent < packets; ++i, ++sent) {
      port.Enqueue(DataPacket(flow, sent));
    }
    sim.Run();
  }
  const double ns = NsSince(start);
  if (events_per_packet != nullptr) {
    *events_per_packet = static_cast<double>(sim.events_executed()) /
                         static_cast<double>(std::max<std::uint64_t>(1, sent));
  }
  return ns / static_cast<double>(std::max<std::uint64_t>(1, sink.received()));
}

double DiscNsPerPacket(ecnsharp::Scheme scheme,
                       const ecnsharp::SchemeParams& params, std::size_t depth,
                       std::uint64_t packets) {
  std::unique_ptr<ecnsharp::QueueDisc> disc =
      ecnsharp::MakeFifoDisc(scheme, params);
  const FlowKey flow{1, 2, 1000, 80};
  const Time gap = Time::Nanoseconds(1200);
  Time now = Time::Zero();
  for (std::size_t i = 0; i < depth; ++i) {
    disc->Enqueue(DataPacket(flow, i), now);
  }
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < packets; ++i) {
    now += gap;
    disc->Enqueue(DataPacket(flow, depth + i), now);
    disc->Dequeue(now);
  }
  return NsSince(start) /
         static_cast<double>(std::max<std::uint64_t>(1, packets));
}

double AdmissionNsPerPacket(std::size_t queues, double occupancy,
                            std::uint64_t packets) {
  queues = std::max<std::size_t>(1, queues);
  ecnsharp::BufferPolicyConfig config;
  config.kind = ecnsharp::BufferPolicyKind::kDynamicThreshold;
  std::unique_ptr<ecnsharp::BufferPolicy> policy = ecnsharp::MakeBufferPolicy(
      config, queues, 600ull * ecnsharp::kFullPacketBytes);
  std::vector<std::size_t> ids;
  for (std::size_t q = 0; q < queues; ++q) {
    ids.push_back(policy->RegisterQueue(0));
  }
  // Fill round-robin to the run's mean occupancy (as far as DT admits).
  const auto target = static_cast<std::uint64_t>(
      std::clamp(occupancy, 0.0, 1.0) *
      static_cast<double>(policy->total_bytes()));
  bool admitted = true;
  while (policy->used_bytes() < target && admitted) {
    admitted = false;
    for (std::size_t q : ids) {
      if (policy->used_bytes() >= target) break;
      admitted |= policy->TryReserve(q, ecnsharp::kFullPacketBytes);
    }
  }
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < packets; ++i) {
    const std::size_t q = ids[i % ids.size()];
    if (policy->TryReserve(q, ecnsharp::kFullPacketBytes)) {
      policy->Release(q, ecnsharp::kFullPacketBytes);
    }
  }
  return NsSince(start) /
         static_cast<double>(std::max<std::uint64_t>(1, packets));
}

double AckNsPerAck(std::size_t flows, double ece_share, std::uint64_t acks) {
  Simulator sim;
  ecnsharp::Host host(sim, 1);
  CountingSink peer;
  host.AttachNic(std::make_unique<ecnsharp::EgressPort>(
                     sim, ecnsharp::DataRate::GigabitsPerSecond(10),
                     Time::FromMicroseconds(10),
                     std::make_unique<ecnsharp::FifoQueueDisc>(1ull << 40,
                                                               nullptr)))
      .ConnectTo(peer);
  host.nic().LinkDown(/*drop_queued=*/true);
  ecnsharp::TcpConfig config;
  ecnsharp::TcpStack stack(host, config);
  flows = std::max<std::size_t>(1, flows);
  std::vector<ecnsharp::TcpSender*> senders;
  senders.reserve(flows);
  for (std::size_t f = 0; f < flows; ++f) {
    senders.push_back(&stack.StartFlow(
        2 + static_cast<std::uint32_t>(f % 1000), 1ull << 40, nullptr));
  }
  // Every ACK acknowledges one more segment of its flow, so slow start keeps
  // the sender's next sequence ahead of the ack number.
  std::vector<std::uint64_t> next_ack(flows, ecnsharp::kMaxSegmentSize);
  ecnsharp::Rng rng(0xac);
  constexpr std::size_t kBatch = 1024;
  std::vector<std::unique_ptr<Packet>> batch(kBatch);
  double ns = 0.0;
  std::uint64_t done = 0;
  while (done < acks) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBatch, acks - done));
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t f = (done + i) % flows;
      auto ack = ecnsharp::NewPacket();
      ack->flow = senders[f]->flow().Reversed();
      ack->type = ecnsharp::PacketType::kAck;
      ack->size_bytes = ecnsharp::kAckPacketBytes;
      ack->ack = next_ack[f];
      next_ack[f] += ecnsharp::kMaxSegmentSize;
      ack->ece = rng.Uniform() < ece_share;
      batch[i] = std::move(ack);
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) stack.HandlePacket(std::move(batch[i]));
    ns += NsSince(start);
    done += n;
    // Let the clock move like a live run so RTT samples and timer re-arms
    // see realistic times; one microsecond per ACK keeps every flow far
    // inside its retransmission timeout.
    sim.RunFor(Time::FromMicroseconds(static_cast<double>(n)));
  }
  return ns / static_cast<double>(std::max<std::uint64_t>(1, acks));
}

double SketchNsPerPacket(std::size_t sites, const std::vector<FlowKey>& flows,
                         std::uint64_t packets) {
  if (flows.empty()) return 0.0;
  ecnsharp::SketchConfig config;
  config.enabled = true;
  ecnsharp::SketchTelemetry telemetry(config);
  std::vector<ecnsharp::PacketTracer*> taps;
  sites = std::max<std::size_t>(1, sites);
  for (std::size_t s = 0; s < sites; ++s) {
    taps.push_back(telemetry.PortTap(
        telemetry.RegisterSite("site" + std::to_string(s))));
  }
  ecnsharp::Rng rng(0x5c);
  constexpr std::size_t kBatch = 4096;
  std::vector<std::unique_ptr<Packet>> batch(kBatch);
  std::vector<std::uint32_t> site(kBatch);
  Time now = Time::Zero();
  double ns = 0.0;
  std::uint64_t done = 0;
  while (done < packets) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBatch, packets - done));
    for (std::size_t i = 0; i < n; ++i) {
      batch[i] = DataPacket(flows[rng.UniformInt(flows.size())], done + i);
      site[i] = static_cast<std::uint32_t>(rng.UniformInt(sites));
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      now += Time::Nanoseconds(1200);
      ecnsharp::PacketTracer* tap = taps[site[i]];
      const ecnsharp::QueueSnapshot snapshot{1, ecnsharp::kFullPacketBytes};
      tap->OnEnqueue(*batch[i], now, snapshot);
      tap->OnDequeue(*batch[i], now, ecnsharp::QueueSnapshot{},
                     Time::Nanoseconds(1200));
      tap->OnTransmit(*batch[i], now);
    }
    ns += NsSince(start);
    done += n;
  }
  return ns / static_cast<double>(std::max<std::uint64_t>(1, packets));
}

}  // namespace perfbench
