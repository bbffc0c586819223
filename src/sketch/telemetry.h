// SketchTelemetry: the bounded-memory switch telemetry block.
//
// One instance models what a programmable switch can afford to know about
// its traffic: a conservative-update count-min of lifetime per-flow bytes, a
// windowed rate ring (sketch/rate_sketch.h), a windowed base-RTT sketch
// (sketch/rtt_sketch.h), a space-saving-style heavy-hitter candidate list,
// and one queue-occupancy EWMA and enqueued-byte total per registered port.
// All flow-keyed state is sized once from SketchConfig::memory_kb (split
// 40/40/20 between count-min, rate ring, and RTT sketch) and never grows.
// A site's packet, mark and drop counts are not counted here: they are a
// copy of the port's own counters, handed in by SetSiteCounts.
//
// Ports attach exactly like they do to the flight recorder: RegisterSite()
// then install PortTap() on the port, so all three queue discs and the
// Tofino pipeline (an AqmPolicy inside a disc) feed the sketches through the
// existing tracer seam. Transport stacks attach through the TransportTracer
// interface the telemetry itself implements. The packet path performs no
// allocation: sketches are flat arrays and the heavy-hitter list is a fixed
// slot vector probed only when a flow's estimate clears the admission
// threshold.
//
// With config.track_exact (evaluation only) the telemetry also keeps an
// exact per-flow mirror — lifetime bytes plus per-epoch byte bins aligned to
// the rate ring's epochs and decay — so bench/sketch_accuracy can score the
// sketches against ground truth under identical windowing.
#ifndef ECNSHARP_SKETCH_TELEMETRY_H_
#define ECNSHARP_SKETCH_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/egress_port.h"
#include "net/packet.h"
#include "net/queue_disc.h"
#include "sketch/count_min.h"
#include "sketch/queue_ewma.h"
#include "sketch/rate_sketch.h"
#include "sketch/rtt_sketch.h"
#include "sketch/sketch_config.h"
#include "trace/transport_tracer.h"

namespace ecnsharp {

class SketchTelemetry : public TransportTracer {
 public:
  struct HeavyHitter {
    FlowKey flow;
    std::uint64_t estimated_bytes = 0;
  };

  explicit SketchTelemetry(SketchConfig config);

  SketchTelemetry(const SketchTelemetry&) = delete;
  SketchTelemetry& operator=(const SketchTelemetry&) = delete;

  const SketchConfig& config() const { return config_; }

  // Deterministic 64-bit sketch key for a flow: FlowKeyHash, the FNV-1a
  // hash over the 4-tuple.
  static std::uint64_t KeyOf(const FlowKey& flow) {
    return FlowKeyHash{}(flow);
  }

  // --- Sites ------------------------------------------------------------
  // Site ids are 16-bit with the trace recorder's kNoTraceSite reserved, so
  // registering more than kNoTraceSite sites exits 2 (FatalConfigError).
  std::uint16_t RegisterSite(std::string label);
  // PacketTracer to install on the port for `site`; stable address for the
  // telemetry's lifetime.
  PacketTracer* PortTap(std::uint16_t site);
  std::size_t site_count() const { return sites_.size(); }
  const std::string& site_label(std::uint16_t site) const;
  // Bytes of the packets the site's tap saw enqueued.
  std::uint64_t site_enqueued_bytes(std::uint16_t site) const;
  // The site's port counts as last handed in (zero until then).
  void SetSiteCounts(std::uint16_t site, const PortCounts& counts);
  const PortCounts& site_counts(std::uint16_t site) const;
  const QueueOccupancyEwma& queue_ewma(std::uint16_t site) const;

  // Seeds the base-RTT histogram with a known path RTT through `site` (the
  // border-port annotation of an inter-DC composed fabric). The hint is
  // admitted immediately and re-offered on every enqueue at the site, so the
  // per-epoch min matrix keeps it inside the sliding window for as long as
  // the port carries traffic — sketch-driven ECN# re-estimation then sees
  // the WAN RTT even when queueing inflates every transport sample.
  void SetSiteBaseRtt(std::uint16_t site, Time hint);
  Time site_base_rtt_hint(std::uint16_t site) const;
  std::uint64_t hint_samples_admitted() const {
    return hint_samples_admitted_;
  }

  // --- TransportTracer --------------------------------------------------
  void OnRttSample(const FlowKey& flow, Time at, Time sample) override;

  // --- Flow queries -----------------------------------------------------
  // Lifetime bytes (count-min point query, >= truth).
  std::uint64_t EstimateFlowBytes(const FlowKey& flow) const;
  // Recent send rate from the decayed window merge.
  double EstimateRateBps(const FlowKey& flow, Time now) const;
  // Heavy-hitter candidates re-estimated against the count-min, heaviest
  // first. At most config.heavy_hitters entries.
  std::vector<HeavyHitter> HeavyHitters() const;

  const WindowedRttSketch& rtt_sketch() const { return rtt_; }
  const WindowedRateSketch& rate_sketch() const { return rate_; }
  const CountMinSketch& count_min() const { return totals_; }

  std::uint64_t packets_observed() const { return packets_observed_; }
  // Timestamp of the newest observation (enqueue or RTT sample): the
  // natural `now` for end-of-run queries of the windowed views.
  Time last_update() const { return last_update_; }
  std::uint64_t rtt_samples_offered() const { return rtt_samples_offered_; }
  std::uint64_t rtt_samples_admitted() const { return rtt_samples_admitted_; }

  // Bytes actually allocated to flow-keyed sketch state (the memory_kb
  // budget's spend; per-site scalars are excluded and O(ports)).
  std::size_t FlowSketchMemoryBytes() const;

  // --- Exact mirror (track_exact only) ----------------------------------
  std::uint64_t ExactFlowBytes(const FlowKey& flow) const;
  // Ground-truth rate under the same epoch binning and decay weights as
  // EstimateRateBps.
  double ExactRateBps(const FlowKey& flow, Time now) const;
  // Exact flows sorted by lifetime bytes, heaviest first, capped at `k`.
  std::vector<HeavyHitter> ExactTopFlows(std::size_t k) const;
  std::size_t ExactFlowCount() const { return exact_bytes_.size(); }

 private:
  class Tap : public PacketTracer {
   public:
    Tap(SketchTelemetry* owner, std::uint16_t site)
        : owner_(owner), site_(site) {}
    // Transmits, drops and marks touch no sketch state (drops and marks
    // keep the base no-ops).
    void OnTransmit(const Packet& /*pkt*/, Time /*at*/) override {}
    void OnEnqueue(const Packet& pkt, Time at,
                   const QueueSnapshot& after) override;
    void OnDequeue(const Packet& pkt, Time at, const QueueSnapshot& after,
                   Time sojourn) override;

   private:
    SketchTelemetry* owner_;
    std::uint16_t site_;
  };

  struct Site {
    std::string label;
    PortCounts counts;
    std::uint64_t enqueued_bytes = 0;
    QueueOccupancyEwma ewma;
    Time rtt_hint = Time::Zero();  // zero = no annotation
  };

  // Fixed-size heavy-hitter slot; `estimate` is the count-min estimate at
  // last touch (refreshed on query).
  struct Candidate {
    std::uint64_t key = 0;
    FlowKey flow;
    std::uint64_t estimate = 0;
  };

  void ObserveEnqueue(std::uint16_t site, const Packet& pkt, Time at,
                      const QueueSnapshot& after);
  void OfferHeavyHitter(std::uint64_t key, const FlowKey& flow,
                        std::uint64_t estimate);
  void RecordExact(std::uint64_t key, const FlowKey& flow,
                   std::uint64_t bytes, Time at);

  SketchConfig config_;
  CountMinSketch totals_;
  WindowedRateSketch rate_;
  WindowedRttSketch rtt_;

  std::vector<Site> sites_;
  std::deque<Tap> taps_;

  std::vector<Candidate> candidates_;     // size <= config.heavy_hitters
  std::uint64_t admission_threshold_ = 0; // min estimate across full slots

  std::uint64_t packets_observed_ = 0;
  std::uint64_t rtt_samples_offered_ = 0;
  std::uint64_t rtt_samples_admitted_ = 0;
  std::uint64_t hint_samples_admitted_ = 0;
  Time last_update_ = Time::Zero();

  // Exact mirror (track_exact): lifetime bytes plus a ring of per-epoch
  // byte bins aligned to the rate sketch's epochs.
  struct ExactEpoch {
    std::uint64_t epoch = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> bytes;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> exact_bytes_;
  std::unordered_map<std::uint64_t, FlowKey> exact_flows_;
  std::deque<ExactEpoch> exact_epochs_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SKETCH_TELEMETRY_H_
