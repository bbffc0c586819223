// Open-loop traffic generation: flows arrive as a Poisson process whose rate
// achieves a target utilization of a reference capacity, with sizes drawn
// from an empirical workload CDF (the methodology of §5.1).
#ifndef ECNSHARP_WORKLOAD_TRAFFIC_GENERATOR_H_
#define ECNSHARP_WORKLOAD_TRAFFIC_GENERATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/data_rate.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "transport/tcp_stack.h"
#include "workload/empirical_cdf.h"

namespace ecnsharp {

struct TrafficConfig {
  double load = 0.5;       // target utilization of `reference_capacity`
  DataRate reference_capacity = DataRate::GigabitsPerSecond(10);
  std::size_t flow_count = 2000;
  Time start_time = Time::Zero();
  // Fraction of flows started as loss-based Cubic (CcKind::kCubic). The
  // Bernoulli draw happens only when > 0, so default runs consume exactly
  // the same rng sequence as before this knob existed (golden parity).
  double cubic_fraction = 0.0;
};

class TrafficGenerator {
 public:
  // `pick_pair` chooses (sending stack, destination address) for each flow.
  // `on_complete` receives every finished flow's record. Each arrival is
  // scheduled on its source host's simulator, so on a lane-sharded fabric a
  // flow starts and completes on its host's lane thread. The Simulator
  // parameter is unused; it stays only for perfbench's callers. A load that
  // is not finite and positive exits 2.
  TrafficGenerator(Simulator& /*perfbench only*/, const EmpiricalCdf& sizes,
                   const TrafficConfig& config,
                   std::function<std::pair<TcpStack*, std::uint32_t>(Rng&)>
                       pick_pair,
                   TcpSender::CompletionCallback on_complete, Rng rng);

  // Draws all arrivals and schedules the flow starts.
  void Start();

  std::size_t started() const {
    return started_.load(std::memory_order_relaxed);
  }
  std::size_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  bool AllDone() const {
    return started() == config_.flow_count &&
           completed() == config_.flow_count;
  }
  // Poisson arrival rate in flows/second implied by the config.
  double ArrivalRate() const;

 private:
  const EmpiricalCdf& sizes_;
  TrafficConfig config_;
  std::function<std::pair<TcpStack*, std::uint32_t>(Rng&)> pick_pair_;
  TcpSender::CompletionCallback on_complete_;
  Rng rng_;
  // Bumped on the source hosts' lane threads; read between rounds.
  std::atomic<std::size_t> started_ = 0;
  std::atomic<std::size_t> completed_ = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_WORKLOAD_TRAFFIC_GENERATOR_H_
