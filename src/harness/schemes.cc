#include "harness/schemes.h"

#include "aqm/dctcp_red.h"
#include "aqm/tcn.h"
#include "sched/fifo_queue_disc.h"
#include "tofino/ecn_sharp_pipeline.h"

namespace ecnsharp {

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDctcpRedTail:
      return "DCTCP-RED-Tail";
    case Scheme::kDctcpRedAvg:
      return "DCTCP-RED-AVG";
    case Scheme::kCodel:
      return "CoDel";
    case Scheme::kTcn:
      return "TCN";
    case Scheme::kEcnSharp:
      return "ECN#";
    case Scheme::kEcnSharpTofino:
      return "ECN#-Tofino";
    case Scheme::kDropTail:
      return "DropTail";
    case Scheme::kPie:
      return "PIE";
    case Scheme::kEcnSharpInstOnly:
      return "ECN#-inst-only";
    case Scheme::kEcnSharpPstOnly:
      return "ECN#-pst-only";
  }
  return "?";
}

SchemeParams SimulationSchemeParams() {
  SchemeParams params;
  params.red_tail_threshold_bytes = 275'000;  // C * 220 us at 10 Gbps
  params.red_avg_threshold_bytes = 171'000;   // C * 137 us
  params.codel.interval = Time::FromMicroseconds(240);
  params.codel.target = Time::FromMicroseconds(10);
  params.tcn_threshold = Time::FromMicroseconds(150);
  params.ecn_sharp.ins_target = Time::FromMicroseconds(220);
  params.ecn_sharp.pst_interval = Time::FromMicroseconds(240);
  params.ecn_sharp.pst_target = Time::FromMicroseconds(10);
  return params;
}

std::unique_ptr<AqmPolicy> MakeAqm(Scheme scheme, const SchemeParams& params) {
  switch (scheme) {
    case Scheme::kDctcpRedTail:
      return std::make_unique<DctcpRedAqm>(params.red_tail_threshold_bytes);
    case Scheme::kDctcpRedAvg:
      return std::make_unique<DctcpRedAqm>(params.red_avg_threshold_bytes);
    case Scheme::kCodel:
      return std::make_unique<CodelAqm>(params.codel);
    case Scheme::kTcn:
      return std::make_unique<TcnAqm>(params.tcn_threshold);
    case Scheme::kEcnSharp:
      return std::make_unique<EcnSharpAqm>(params.ecn_sharp);
    case Scheme::kEcnSharpTofino: {
      TofinoPipelineConfig config;
      config.aqm = params.ecn_sharp;
      config.num_ports = 1;
      return std::make_unique<TofinoEcnSharpAqm>(config, /*port=*/0);
    }
    case Scheme::kDropTail:
      return nullptr;
    case Scheme::kPie:
      return std::make_unique<PieAqm>(params.pie, /*seed=*/1);
    case Scheme::kEcnSharpInstOnly: {
      EcnSharpConfig config = params.ecn_sharp;
      // Persistent detection can never trigger.
      config.pst_target = Time::Max() / 4;
      return std::make_unique<EcnSharpAqm>(config);
    }
    case Scheme::kEcnSharpPstOnly: {
      EcnSharpConfig config = params.ecn_sharp;
      config.ins_target = Time::Max() / 4;
      return std::make_unique<EcnSharpAqm>(config);
    }
  }
  return nullptr;
}

std::unique_ptr<QueueDisc> MakeFifoDisc(Scheme scheme,
                                        const SchemeParams& params,
                                        BufferPolicy* pool) {
  if (pool != nullptr) {
    return std::make_unique<FifoQueueDisc>(*pool, MakeAqm(scheme, params));
  }
  return std::make_unique<FifoQueueDisc>(params.buffer_bytes,
                                         MakeAqm(scheme, params));
}

DiscFactory FifoDiscFactory(Scheme scheme, const SchemeParams& params) {
  return [scheme, params](BufferPolicy* pool) {
    return MakeFifoDisc(scheme, params, pool);
  };
}

}  // namespace ecnsharp
