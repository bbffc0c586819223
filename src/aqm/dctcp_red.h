// DCTCP-RED: the simplified RED of the DCTCP paper (Alizadeh et al., SIGCOMM
// 2010) — instantaneous ECN marking against a single queue-length threshold
// K (Kmin = Kmax = K, mark with probability 1 above it).
//
// This is the paper's "current practice" baseline. The threshold is derived
// from Equation (1), K = lambda * C * RTT, with a fixed RTT percentile:
// "DCTCP-RED-Tail" uses a high percentile (e.g. 90th), "DCTCP-RED-AVG" uses
// the average RTT.
#ifndef ECNSHARP_AQM_DCTCP_RED_H_
#define ECNSHARP_AQM_DCTCP_RED_H_

#include <cstdint>
#include <string>

#include "net/queue_disc.h"
#include "sim/time.h"

namespace ecnsharp {

class DctcpRedAqm : public AqmPolicy {
 public:
  explicit DctcpRedAqm(std::uint64_t threshold_bytes)
      : threshold_bytes_(threshold_bytes) {}

  bool AllowEnqueue(Packet& pkt, const QueueSnapshot& snapshot,
                    Time /*now*/) override {
    // Mark if the instantaneous queue occupancy including this packet
    // exceeds K.
    if (snapshot.bytes + pkt.size_bytes > threshold_bytes_) pkt.MarkCe();
    return true;
  }

  std::string name() const override { return "dctcp-red"; }
  std::uint64_t threshold_bytes() const { return threshold_bytes_; }

 private:
  std::uint64_t threshold_bytes_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_AQM_DCTCP_RED_H_
