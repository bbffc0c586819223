#include "sketch/telemetry.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "sim/logging.h"
#include "trace/trace_event.h"

namespace ecnsharp {

namespace {

// Budget split of the per-switch flow-sketch memory: lifetime totals and
// the rate window carry the accuracy-critical load (heavy hitters, rates),
// the RTT sketch needs less because its histogram is fixed-size.
constexpr double kTotalsShare = 0.40;
constexpr double kRateShare = 0.40;
constexpr double kRttShare = 0.20;

std::size_t ShareBytes(std::size_t total, double share) {
  return static_cast<std::size_t>(static_cast<double>(total) * share);
}

}  // namespace

SketchTelemetry::SketchTelemetry(SketchConfig config)
    : config_(config),
      totals_(CountMinSketch::WidthForBudget(
                  ShareBytes(config.memory_kb * 1024, kTotalsShare),
                  config.depth),
              config.depth, /*seed=*/0x5ce7c4u),
      rate_(CountMinSketch::WidthForBudget(
                ShareBytes(config.memory_kb * 1024, kRateShare) /
                    std::max<std::size_t>(config.window_epochs, 2),
                config.depth),
            config.depth, config.window_epochs, config.epoch, config.decay,
            /*seed=*/0x7a7e5eedu),
      rtt_(WindowedRttSketch::WidthForBudget(
               ShareBytes(config.memory_kb * 1024, kRttShare), config.depth,
               config.window_epochs),
           config.depth, config.window_epochs, config.epoch,
           /*seed=*/0x277a11u) {
  candidates_.reserve(config_.heavy_hitters);
}

std::uint16_t SketchTelemetry::RegisterSite(std::string label) {
  if (sites_.size() >= kNoTraceSite) {
    FatalConfigError("sketch: cannot register port '" + label + "': " +
                     std::to_string(sites_.size()) +
                     " ports are already sketched, the most a 16-bit site "
                     "id can name");
  }
  Site site;
  site.label = std::move(label);
  site.ewma = QueueOccupancyEwma(config_.queue_alpha);
  sites_.push_back(std::move(site));
  const std::uint16_t id = static_cast<std::uint16_t>(sites_.size() - 1);
  taps_.emplace_back(this, id);
  return id;
}

PacketTracer* SketchTelemetry::PortTap(std::uint16_t site) {
  assert(site < taps_.size());
  return &taps_[site];
}

const std::string& SketchTelemetry::site_label(std::uint16_t site) const {
  return sites_.at(site).label;
}

std::uint64_t SketchTelemetry::site_enqueued_bytes(std::uint16_t site) const {
  return sites_.at(site).enqueued_bytes;
}

void SketchTelemetry::SetSiteCounts(std::uint16_t site,
                                    const PortCounts& counts) {
  sites_.at(site).counts = counts;
}

const PortCounts& SketchTelemetry::site_counts(std::uint16_t site) const {
  return sites_.at(site).counts;
}

const QueueOccupancyEwma& SketchTelemetry::queue_ewma(
    std::uint16_t site) const {
  return sites_.at(site).ewma;
}

namespace {
// Synthetic sketch key for a site's RTT hint; far outside the FNV-1a image
// of real flow keys in practice, and distinct per site.
std::uint64_t SiteHintKey(std::uint16_t site) {
  return 0x426f726465725254ull + site;  // "BorderRT" + site
}
}  // namespace

void SketchTelemetry::SetSiteBaseRtt(std::uint16_t site, Time hint) {
  sites_.at(site).rtt_hint = hint;
  if (hint > Time::Zero() &&
      rtt_.AddSample(SiteHintKey(site), hint, last_update_)) {
    ++hint_samples_admitted_;
  }
}

Time SketchTelemetry::site_base_rtt_hint(std::uint16_t site) const {
  return sites_.at(site).rtt_hint;
}

void SketchTelemetry::Tap::OnEnqueue(const Packet& pkt, Time at,
                                     const QueueSnapshot& after) {
  owner_->ObserveEnqueue(site_, pkt, at, after);
}

void SketchTelemetry::Tap::OnDequeue(const Packet& /*pkt*/, Time /*at*/,
                                     const QueueSnapshot& after,
                                     Time /*sojourn*/) {
  owner_->sites_[site_].ewma.Observe(after.packets, after.bytes);
}

void SketchTelemetry::ObserveEnqueue(std::uint16_t site, const Packet& pkt,
                                     Time at, const QueueSnapshot& after) {
  Site& s = sites_[site];
  s.enqueued_bytes += pkt.size_bytes;
  s.ewma.Observe(after.packets, after.bytes);
  ++packets_observed_;
  last_update_ = std::max(last_update_, at);
  // Re-offer the site's base-RTT annotation (admitted once per epoch by the
  // min matrix) so the hint tracks the sliding window while traffic flows.
  if (s.rtt_hint > Time::Zero() &&
      rtt_.AddSample(SiteHintKey(site), s.rtt_hint, at)) {
    ++hint_samples_admitted_;
  }

  const std::uint64_t key = KeyOf(pkt.flow);
  const std::uint64_t estimate = totals_.Update(key, pkt.size_bytes);
  rate_.Update(key, pkt.size_bytes, at);
  if (config_.heavy_hitters > 0) OfferHeavyHitter(key, pkt.flow, estimate);
  if (config_.track_exact) RecordExact(key, pkt.flow, pkt.size_bytes, at);
}

void SketchTelemetry::OfferHeavyHitter(std::uint64_t key, const FlowKey& flow,
                                       std::uint64_t estimate) {
  // Cheap reject first: a flow below the cached admission threshold cannot
  // belong in the list, so the slot scan only runs for heavy-ish flows.
  if (candidates_.size() >= config_.heavy_hitters &&
      estimate <= admission_threshold_) {
    return;
  }
  for (Candidate& c : candidates_) {
    if (c.key == key) {
      c.estimate = estimate;
      return;
    }
  }
  if (candidates_.size() < config_.heavy_hitters) {
    candidates_.push_back(Candidate{key, flow, estimate});
    if (candidates_.size() == config_.heavy_hitters) {
      admission_threshold_ = UINT64_MAX;
      for (const Candidate& c : candidates_) {
        admission_threshold_ = std::min(admission_threshold_, c.estimate);
      }
    }
    return;
  }
  // Evict the current minimum (space-saving style: the newcomer's estimate
  // already exceeds it) and refresh the threshold.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < candidates_.size(); ++i) {
    if (candidates_[i].estimate < candidates_[victim].estimate) victim = i;
  }
  candidates_[victim] = Candidate{key, flow, estimate};
  admission_threshold_ = UINT64_MAX;
  for (const Candidate& c : candidates_) {
    admission_threshold_ = std::min(admission_threshold_, c.estimate);
  }
}

void SketchTelemetry::RecordExact(std::uint64_t key, const FlowKey& flow,
                                  std::uint64_t bytes, Time at) {
  exact_bytes_[key] += bytes;
  exact_flows_.emplace(key, flow);
  const std::uint64_t epoch = rate_.EpochIndexFor(at);
  if (exact_epochs_.empty() || exact_epochs_.back().epoch != epoch) {
    exact_epochs_.push_back(ExactEpoch{epoch, {}});
    while (exact_epochs_.size() > rate_.window_epochs()) {
      exact_epochs_.pop_front();
    }
  }
  exact_epochs_.back().bytes[key] += bytes;
}

void SketchTelemetry::OnRttSample(const FlowKey& flow, Time at, Time sample) {
  ++rtt_samples_offered_;
  last_update_ = std::max(last_update_, at);
  if (rtt_.AddSample(KeyOf(flow), sample, at)) ++rtt_samples_admitted_;
}

std::uint64_t SketchTelemetry::EstimateFlowBytes(const FlowKey& flow) const {
  return totals_.Estimate(KeyOf(flow));
}

double SketchTelemetry::EstimateRateBps(const FlowKey& flow, Time now) const {
  return rate_.EstimateRateBps(KeyOf(flow), now);
}

std::vector<SketchTelemetry::HeavyHitter> SketchTelemetry::HeavyHitters()
    const {
  std::vector<HeavyHitter> out;
  out.reserve(candidates_.size());
  for (const Candidate& c : candidates_) {
    // Re-estimate at query time: slot estimates can be stale (they are only
    // refreshed when the flow's packets probe the list).
    out.push_back(HeavyHitter{c.flow, totals_.Estimate(c.key)});
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.estimated_bytes != b.estimated_bytes) {
                return a.estimated_bytes > b.estimated_bytes;
              }
              return KeyOf(a.flow) < KeyOf(b.flow);
            });
  return out;
}

std::size_t SketchTelemetry::FlowSketchMemoryBytes() const {
  std::size_t bytes = totals_.MemoryBytes() + rate_.MemoryBytes() +
                      rtt_.MemoryBytes();
  bytes += candidates_.capacity() * sizeof(Candidate);
  return bytes;
}

std::uint64_t SketchTelemetry::ExactFlowBytes(const FlowKey& flow) const {
  const auto it = exact_bytes_.find(KeyOf(flow));
  return it == exact_bytes_.end() ? 0 : it->second;
}

double SketchTelemetry::ExactRateBps(const FlowKey& flow, Time now) const {
  const std::uint64_t key = KeyOf(flow);
  const std::uint64_t now_epoch = rate_.EpochIndexFor(now);
  double weighted_bytes = 0.0;
  for (const ExactEpoch& ep : exact_epochs_) {
    if (ep.epoch > now_epoch) continue;
    const double weight = rate_.AgeWeight(now_epoch - ep.epoch);
    if (weight <= 0.0) continue;
    const auto it = ep.bytes.find(key);
    if (it != ep.bytes.end()) {
      weighted_bytes += weight * static_cast<double>(it->second);
    }
  }
  // Same denominator as the sketch, by construction (empty epochs elapsed
  // for both sides even though only the sketch materializes ring slots for
  // them).
  const double weighted_seconds = rate_.WindowWeightedSeconds(now);
  if (weighted_seconds <= 0.0) return 0.0;
  return 8.0 * weighted_bytes / weighted_seconds;
}

std::vector<SketchTelemetry::HeavyHitter> SketchTelemetry::ExactTopFlows(
    std::size_t k) const {
  std::vector<HeavyHitter> out;
  out.reserve(exact_bytes_.size());
  for (const auto& [key, bytes] : exact_bytes_) {
    const auto flow_it = exact_flows_.find(key);
    if (flow_it == exact_flows_.end()) continue;
    out.push_back(HeavyHitter{flow_it->second, bytes});
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.estimated_bytes != b.estimated_bytes) {
                return a.estimated_bytes > b.estimated_bytes;
              }
              return KeyOf(a.flow) < KeyOf(b.flow);
            });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace ecnsharp
