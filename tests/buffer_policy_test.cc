// Shared-buffer policy subsystem: admission semantics of the three concrete
// policies (static split, Dynamic Threshold, DT+headroom), the fail-fast
// underflow guards on both the id-based and the legacy pool interfaces, a
// randomized accounting soak, and the MakeBufferPolicy factory surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <variant>
#include <vector>

#include "buffer/policies.h"
#include "buffer/policy_spec.h"
#include "harness/config_json.h"
#include "net/packet.h"
#include "sim/random.h"

namespace ecnsharp {
namespace {

constexpr std::uint32_t kPkt = kFullPacketBytes;

// ------------------- underflow guards fail fast (exit 2) --------------------
//
// The legacy guard was an assert() compiled out of Release builds, so a
// double-release silently wrapped used_bytes_ to ~2^64 and every subsequent
// admission failed "buffer full" forever. Both interfaces now exit 2 with a
// diagnostic the moment the books go negative.

TEST(BufferPolicyDeathTest, ReleaseWithoutReserveExits) {
  EXPECT_EXIT(
      {
        DynamicThresholdPolicy policy(100'000, 1.0);
        const std::size_t q = policy.RegisterQueue(0);
        policy.Release(q, kPkt);
      },
      testing::ExitedWithCode(2), "buffer policy release underflow");
}

TEST(BufferPolicyDeathTest, OverReleaseExits) {
  EXPECT_EXIT(
      {
        DynamicThresholdPolicy policy(100'000, 1.0);
        const std::size_t q = policy.RegisterQueue(0);
        policy.TryReserve(q, 1000);
        policy.Release(q, 1001);
      },
      testing::ExitedWithCode(2), "buffer policy release underflow");
}

TEST(BufferPolicyDeathTest, FactoryRejectsNonPositiveAlpha) {
  EXPECT_EXIT(
      {
        BufferPolicyConfig config;
        config.kind = BufferPolicyKind::kDynamicThreshold;
        config.alpha = 0.0;
        MakeBufferPolicy(config, 8, kPkt);
      },
      testing::ExitedWithCode(2), "alpha must be > 0");
}

TEST(BufferPolicyDeathTest, FactoryRejectsNonPositivePriorityAlpha) {
  EXPECT_EXIT(
      {
        BufferPolicyConfig config;
        config.kind = BufferPolicyKind::kDynamicThreshold;
        config.priority_alpha.push_back(1.0);
        config.priority_alpha.push_back(-2.0);
        MakeBufferPolicy(config, 8, kPkt);
      },
      testing::ExitedWithCode(2), "per-priority alpha must be > 0");
}

TEST(BufferPolicyDeathTest, FactoryRejectsZeroPool) {
  EXPECT_EXIT(
      {
        BufferPolicyConfig config;
        config.kind = BufferPolicyKind::kStatic;
        MakeBufferPolicy(config, 8, 0);
      },
      testing::ExitedWithCode(2), "non-zero pool");
}

TEST(BufferPolicyDeathTest, FactoryRejectsNonFiniteAlpha) {
  for (const double alpha : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    EXPECT_EXIT(
        {
          BufferPolicyConfig config;
          config.kind = BufferPolicyKind::kDynamicThreshold;
          config.alpha = alpha;
          MakeBufferPolicy(config, 8, kPkt);
        },
        testing::ExitedWithCode(2), "alpha must be > 0 and finite");
  }
}

TEST(BufferPolicyDeathTest, FactoryRejectsNonFinitePriorityAlpha) {
  for (const double alpha : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    EXPECT_EXIT(
        {
          BufferPolicyConfig config;
          config.kind = BufferPolicyKind::kDtHeadroom;
          config.priority_alpha.push_back(1.0);
          config.priority_alpha.push_back(alpha);
          MakeBufferPolicy(config, 8, kPkt);
        },
        testing::ExitedWithCode(2),
        "per-priority alpha must be > 0 and finite");
  }
}

TEST(BufferPolicyDeathTest, FactoryRejectsPoolBelowOnePacket) {
  EXPECT_EXIT(
      {
        BufferPolicyConfig config;
        config.kind = BufferPolicyKind::kDynamicThreshold;
        config.total_bytes = kPkt - 1;
        MakeBufferPolicy(config, 8, kPkt);
      },
      testing::ExitedWithCode(2),
      "at least one full packet \\(1500 B\\), got 1499 B");
}

TEST(BufferPolicyDeathTest, FactoryRejectsStaticSliceBelowOnePacket) {
  EXPECT_EXIT(
      {
        BufferPolicyConfig config;
        config.kind = BufferPolicyKind::kStatic;
        config.total_bytes = 8 * kPkt - 1;  // 8 slices of 1499 B
        MakeBufferPolicy(config, 8, kPkt);
      },
      testing::ExitedWithCode(2), "static buffer slice of 1499 B");
}

TEST(MakeBufferPolicyTest, OnePacketPoolAndSliceAreAccepted) {
  BufferPolicyConfig config;
  config.kind = BufferPolicyKind::kStatic;
  config.total_bytes = 8 * kPkt;
  std::unique_ptr<BufferPolicy> policy = MakeBufferPolicy(config, 8, kPkt);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(static_cast<StaticSplitPolicy&>(*policy).per_queue_bytes(), kPkt);

  // A DT pool is shared, so one packet in total suffices.
  config.kind = BufferPolicyKind::kDynamicThreshold;
  config.total_bytes = kPkt;
  policy = MakeBufferPolicy(config, 8, kPkt);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->total_bytes(), kPkt);
}

// ------------------------------ static split --------------------------------

TEST(StaticSplitTest, QueuesAreIndependent) {
  StaticSplitPolicy policy(8 * 10'000, 10'000);
  const std::size_t hot = policy.RegisterQueue(0);
  const std::size_t cold = policy.RegisterQueue(0);

  while (policy.TryReserve(hot, 1000)) {
  }
  EXPECT_EQ(policy.queue_bytes(hot), 10'000u);
  // The hot queue exhausting its slice changes nothing for the cold one.
  EXPECT_EQ(policy.LimitBytes(cold), 10'000u);
  EXPECT_TRUE(policy.TryReserve(cold, 10'000));
  EXPECT_FALSE(policy.TryReserve(cold, 1));
}

TEST(StaticSplitTest, PoolTotalCapsOversubscribedSlices) {
  // Slices promise more than the pool holds; the hard total still wins.
  StaticSplitPolicy policy(10'000, 8000);
  const std::size_t a = policy.RegisterQueue(0);
  const std::size_t b = policy.RegisterQueue(0);
  EXPECT_TRUE(policy.TryReserve(a, 8000));
  EXPECT_FALSE(policy.TryReserve(b, 8000));
  EXPECT_TRUE(policy.TryReserve(b, 2000));
  EXPECT_EQ(policy.used_bytes(), policy.total_bytes());
}

// ---------------------------- dynamic threshold -----------------------------

TEST(DynamicThresholdTest, LimitShrinksMonotonicallyWithOccupancy) {
  DynamicThresholdPolicy policy(1'000'000, 1.0);
  const std::size_t hot = policy.RegisterQueue(0);
  const std::size_t cold = policy.RegisterQueue(0);

  std::uint64_t prev = policy.LimitBytes(cold);
  EXPECT_EQ(prev, policy.total_bytes());  // empty pool: alpha * total
  while (policy.TryReserve(hot, kPkt)) {
    const std::uint64_t limit = policy.LimitBytes(cold);
    EXPECT_LE(limit, prev);
    EXPECT_EQ(limit, static_cast<std::uint64_t>(
                         1.0 * static_cast<double>(policy.total_bytes() -
                                                   policy.used_bytes())));
    prev = limit;
  }
}

TEST(DynamicThresholdTest, HotQueueStopsAtAlphaEquilibrium) {
  // One hot queue under DT settles where queue = alpha * (total - queue),
  // i.e. alpha/(1+alpha) * total — the control-theoretic share the bench's
  // alpha sweep leans on.
  for (const double alpha : {0.5, 1.0, 2.0, 4.0}) {
    DynamicThresholdPolicy policy(1'000'000, alpha);
    const std::size_t hot = policy.RegisterQueue(0);
    while (policy.TryReserve(hot, kPkt)) {
    }
    const double equilibrium =
        alpha / (1.0 + alpha) * static_cast<double>(policy.total_bytes());
    EXPECT_NEAR(static_cast<double>(policy.queue_bytes(hot)), equilibrium,
                2.0 * kPkt)
        << "alpha " << alpha;
  }
}

TEST(DynamicThresholdTest, PerPriorityAlphaSelectsAndFallsBack) {
  DynamicThresholdPolicy policy(1'000'000, 1.0, {0.5, 2.0});
  EXPECT_DOUBLE_EQ(policy.AlphaFor(0), 0.5);
  EXPECT_DOUBLE_EQ(policy.AlphaFor(1), 2.0);
  // Priorities past the vector fall back to the last entry.
  EXPECT_DOUBLE_EQ(policy.AlphaFor(7), 2.0);

  const std::size_t latency = policy.RegisterQueue(0);
  const std::size_t bulk = policy.RegisterQueue(1);
  EXPECT_EQ(policy.queue_priority(latency), 0);
  EXPECT_EQ(policy.queue_priority(bulk), 1);
  // Same free memory, different alpha: the latency class is held to a
  // 4x shallower share than the bulk class.
  EXPECT_EQ(4 * policy.LimitBytes(latency), policy.LimitBytes(bulk));
}

TEST(DynamicThresholdTest, ShallowAlphaIsolatesLatencyClass) {
  // A bulk queue at its equilibrium must not squeeze the latency class below
  // its own (shallow) share of the remaining memory.
  DynamicThresholdPolicy policy(1'000'000, 1.0, {0.5, 2.0});
  const std::size_t latency = policy.RegisterQueue(0);
  const std::size_t bulk = policy.RegisterQueue(1);
  while (policy.TryReserve(bulk, kPkt)) {
  }
  const std::uint64_t latency_limit = policy.LimitBytes(latency);
  EXPECT_GT(latency_limit, 0u);
  EXPECT_EQ(latency_limit,
            static_cast<std::uint64_t>(
                0.5 * static_cast<double>(policy.total_bytes() -
                                          policy.used_bytes())));
  EXPECT_TRUE(policy.TryReserve(latency, kPkt));
}

// ------------------------------- DT+headroom --------------------------------

TEST(HeadroomDtTest, ColdQueueKeepsGuaranteedSliceUnderHotLoad) {
  HeadroomDtPolicy policy(1'000'000, 4.0, /*headroom_bytes=*/2 * kPkt);
  const std::size_t hot = policy.RegisterQueue(0);
  const std::size_t cold = policy.RegisterQueue(0);
  while (policy.TryReserve(hot, kPkt)) {
  }
  // Plain DT at alpha=4 would leave the cold queue racing a nearly-full
  // pool; the headroom variant still guarantees it the reserved slice.
  EXPECT_GE(policy.LimitBytes(cold), 2ull * kPkt);
  EXPECT_TRUE(policy.TryReserve(cold, kPkt));
  EXPECT_TRUE(policy.TryReserve(cold, kPkt));
}

TEST(HeadroomDtTest, ReservationsSwallowingThePoolLeaveOnlyHeadroom) {
  // Summed headrooms >= total: the shared region is empty, so each queue
  // gets exactly its guaranteed slice, and the pool total still caps the sum.
  HeadroomDtPolicy policy(5000, 1.0, /*headroom_bytes=*/3000);
  const std::size_t a = policy.RegisterQueue(0);
  const std::size_t b = policy.RegisterQueue(0);
  EXPECT_EQ(policy.LimitBytes(a), 3000u);
  EXPECT_TRUE(policy.TryReserve(a, 3000));
  EXPECT_FALSE(policy.TryReserve(b, 3000));
  EXPECT_TRUE(policy.TryReserve(b, 2000));
}

// --------------------------- randomized accounting --------------------------

// Seeded reserve/release churn against an independent per-queue ledger. The
// invariants are policy-agnostic: the base class owns the books, so they
// must hold for every Admit() implementation.
void SoakPolicy(BufferPolicy& policy, std::uint64_t seed) {
  constexpr std::size_t kQueues = 8;
  std::vector<std::size_t> ids;
  std::vector<std::uint64_t> ledger(kQueues, 0);
  for (std::size_t q = 0; q < kQueues; ++q) {
    ids.push_back(policy.RegisterQueue(static_cast<std::uint8_t>(q % 3)));
  }
  Rng rng(seed);
  std::uint64_t admitted = 0;
  std::uint64_t refused = 0;
  for (int step = 0; step < 5000; ++step) {
    const std::size_t q = rng.UniformInt(kQueues);
    const auto bytes = static_cast<std::uint32_t>(64 + rng.UniformInt(1437));
    if (rng.UniformInt(2) == 0) {
      if (policy.TryReserve(ids[q], bytes)) {
        ledger[q] += bytes;
        ++admitted;
      } else {
        ++refused;
      }
    } else if (ledger[q] >= bytes) {
      policy.Release(ids[q], bytes);
      ledger[q] -= bytes;
    }
    ASSERT_LE(policy.used_bytes(), policy.total_bytes()) << "step " << step;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kQueues; ++i) {
      ASSERT_EQ(policy.queue_bytes(ids[i]), ledger[i]) << "step " << step;
      sum += ledger[i];
    }
    ASSERT_EQ(policy.used_bytes(), sum) << "step " << step;
  }
  // The pool must have been small enough for refusals to exercise Admit().
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(refused, 0u);
  // Releasing every ledgered byte zeroes the books.
  for (std::size_t q = 0; q < kQueues; ++q) {
    while (ledger[q] > 0) {
      const auto chunk =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(ledger[q], kPkt));
      policy.Release(ids[q], chunk);
      ledger[q] -= chunk;
    }
  }
  EXPECT_EQ(policy.used_bytes(), 0u);
}

TEST(BufferPolicyPropertyTest, AccountingInvariantsHoldForEveryPolicy) {
  for (const std::uint64_t seed : {1ull, 7ull, 0xdecafull}) {
    {
      StaticSplitPolicy policy(40'000, 5000);
      SoakPolicy(policy, seed);
    }
    {
      DynamicThresholdPolicy policy(40'000, 1.0, {0.5, 1.0, 2.0});
      SoakPolicy(policy, seed);
    }
    {
      HeadroomDtPolicy policy(40'000, 1.0, 2 * kPkt, {0.5, 1.0, 2.0});
      SoakPolicy(policy, seed);
    }
  }
}

// --------------------------------- factory ----------------------------------

TEST(MakeBufferPolicyTest, BuildsEachKindWithFallbackSizing) {
  BufferPolicyConfig config;
  EXPECT_EQ(MakeBufferPolicy(config, 8, kPkt), nullptr);  // kNone

  config.kind = BufferPolicyKind::kStatic;
  std::unique_ptr<BufferPolicy> policy = MakeBufferPolicy(config, 8, 10'000);
  ASSERT_NE(policy, nullptr);
  EXPECT_STREQ(policy->name(), "static");
  // total_bytes == 0 means the legacy silicon rearranged: queue_count
  // per-port buffers pooled, and the static slice is the per-port buffer.
  EXPECT_EQ(policy->total_bytes(), 8u * 10'000u);
  EXPECT_EQ(static_cast<StaticSplitPolicy&>(*policy).per_queue_bytes(),
            10'000u);

  config.kind = BufferPolicyKind::kDynamicThreshold;
  config.total_bytes = 123'456;
  config.alpha = 2.0;
  policy = MakeBufferPolicy(config, 8, 10'000);
  ASSERT_NE(policy, nullptr);
  EXPECT_STREQ(policy->name(), "dt");
  EXPECT_EQ(policy->total_bytes(), 123'456u);  // explicit pool wins
  EXPECT_DOUBLE_EQ(
      static_cast<DynamicThresholdPolicy&>(*policy).default_alpha(), 2.0);

  config.kind = BufferPolicyKind::kDtHeadroom;
  policy = MakeBufferPolicy(config, 8, 10'000);
  ASSERT_NE(policy, nullptr);
  EXPECT_STREQ(policy->name(), "dt-headroom");
  // headroom_bytes == 0 defaults to one full packet.
  EXPECT_EQ(static_cast<HeadroomDtPolicy&>(*policy).headroom_bytes(), 1500u);
}

// Pool kinds are read back from a config record by name. "none" is the
// record left out, so a buffer_policy record cannot name it.
TEST(MakeBufferPolicyTest, KindNamesRoundTrip) {
  const auto read = [](const char* name, BufferPolicyKind* kind) {
    const Json record =
        Json::Object()
            .Set("topology", Json::Str("dumbbell"))
            .Set("buffer_policy", Json::Object().Set("kind", Json::Str(name)));
    ExperimentConfig config;
    if (!ExperimentConfigFromJson(record, &config)) return false;
    *kind = std::get<DumbbellExperimentConfig>(config).buffer_policy.kind;
    return true;
  };
  for (const BufferPolicyKind kind :
       {BufferPolicyKind::kStatic, BufferPolicyKind::kDynamicThreshold,
        BufferPolicyKind::kDtHeadroom}) {
    BufferPolicyKind parsed = BufferPolicyKind::kNone;
    ASSERT_TRUE(read(BufferPolicyKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  BufferPolicyKind ignored;
  EXPECT_FALSE(read(BufferPolicyKindName(BufferPolicyKind::kNone), &ignored));
  EXPECT_FALSE(read("bogus", &ignored));
}

}  // namespace
}  // namespace ecnsharp
