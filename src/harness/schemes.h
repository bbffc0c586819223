// Scheme registry: builds the queue disc / AQM policy for each scheme the
// paper compares (§5.1 "Schemes Compared"), with the paper's parameter
// defaults for the 10G / 3x-RTT-variation testbed (§5.2).
#ifndef ECNSHARP_HARNESS_SCHEMES_H_
#define ECNSHARP_HARNESS_SCHEMES_H_

#include <cstdint>
#include <memory>
#include <string>

#include "aqm/codel.h"
#include "aqm/pie.h"
#include "buffer/buffer_policy.h"
#include "core/ecn_sharp.h"
#include "net/queue_disc.h"
#include "sim/time.h"

namespace ecnsharp {

enum class Scheme {
  kDctcpRedTail,    // instantaneous queue-length marking, K from p90 RTT
  kDctcpRedAvg,     // instantaneous queue-length marking, K from avg RTT
  kCodel,           // persistent-congestion-only marking
  kTcn,             // instantaneous sojourn marking
  kEcnSharp,        // the paper's contribution
  kEcnSharpTofino,  // ECN# via the emulated Tofino pipeline (§4)
  kDropTail,        // no ECN at all
  kPie,             // PIE (persistent-congestion PI controller, §6)
  // Ablations of ECN#'s two conditions (§3.2/§3.3):
  kEcnSharpInstOnly,  // instantaneous sojourn rule only (persistent off)
  kEcnSharpPstOnly,   // persistent rule only (instantaneous off)
};

inline constexpr Scheme kAllSchemes[] = {
    Scheme::kDctcpRedTail,     Scheme::kDctcpRedAvg,
    Scheme::kCodel,            Scheme::kTcn,
    Scheme::kEcnSharp,         Scheme::kEcnSharpTofino,
    Scheme::kDropTail,         Scheme::kPie,
    Scheme::kEcnSharpInstOnly, Scheme::kEcnSharpPstOnly,
};

const char* SchemeName(Scheme scheme);

struct SchemeParams {
  // DCTCP-RED thresholds (testbed values: 250 KB for p90 RTT, 80 KB for
  // average RTT at 10 Gbps with RTTs in [70, 210] us).
  std::uint64_t red_tail_threshold_bytes = 250'000;
  std::uint64_t red_avg_threshold_bytes = 80'000;
  // CoDel: interval ~ worst-case RTT, target ~ average-RTT sojourn budget.
  CodelConfig codel{Time::FromMicroseconds(85), Time::FromMicroseconds(200)};
  // TCN threshold (§5.4 packet-scheduler experiment uses 150 us).
  Time tcn_threshold = Time::FromMicroseconds(150);
  // PIE: target ~ the persistent-queue budget, fast datacenter updates.
  PieConfig pie{Time::FromMicroseconds(20), Time::FromMicroseconds(100),
                0.125, 1.25, 3000};
  // ECN# rule-of-thumb values for the same testbed (§5.2).
  EcnSharpConfig ecn_sharp{Time::FromMicroseconds(200),
                           Time::FromMicroseconds(85),
                           Time::FromMicroseconds(200)};
  // Egress buffer per switch port.
  std::uint64_t buffer_bytes = 600ull * 1500;
};

// Parameter set for the large-scale simulation environment (§5.3-5.4):
// base RTTs in [80, 240] us (average ~137 us, p90 ~220 us), so
//   DCTCP-RED-Tail K = C * p90RTT = 275 KB, DCTCP-RED-AVG K = 171 KB,
//   CoDel/ECN# interval ~ worst-case RTT (240 us), persistent target 10 us,
//   ECN# ins_target = p90 RTT sojourn (220 us).
SchemeParams SimulationSchemeParams();

// Builds the AQM policy alone (for use inside DWRR classes etc.).
// Returns nullptr for kDropTail.
std::unique_ptr<AqmPolicy> MakeAqm(Scheme scheme, const SchemeParams& params);

// Builds a single-FIFO queue disc running the scheme. With a non-null
// `pool`, the disc registers one queue with the shared-buffer policy and
// draws admission from it instead of the static per-port buffer.
std::unique_ptr<QueueDisc> MakeFifoDisc(Scheme scheme,
                                        const SchemeParams& params,
                                        BufferPolicy* pool = nullptr);

// A topology's disc factory running the scheme on every switch egress port
// (MakeFifoDisc on the port's chip pool).
DiscFactory FifoDiscFactory(Scheme scheme, const SchemeParams& params);

}  // namespace ecnsharp

#endif  // ECNSHARP_HARNESS_SCHEMES_H_
