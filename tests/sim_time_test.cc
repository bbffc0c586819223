#include "sim/time.h"

#include <gtest/gtest.h>

#include "sim/data_rate.h"

namespace ecnsharp {
namespace {

TEST(TimeTest, FactoriesAgree) {
  EXPECT_EQ(Time::Microseconds(1), Time::Nanoseconds(1000));
  EXPECT_EQ(Time::Milliseconds(1), Time::Microseconds(1000));
  EXPECT_EQ(Time::Seconds(1), Time::Milliseconds(1000));
  EXPECT_EQ(Time::FromSeconds(1.5), Time::Milliseconds(1500));
  EXPECT_EQ(Time::FromMicroseconds(2.5), Time::Nanoseconds(2500));
}

TEST(TimeTest, Arithmetic) {
  const Time a = Time::Microseconds(10);
  const Time b = Time::Microseconds(4);
  EXPECT_EQ(a + b, Time::Microseconds(14));
  EXPECT_EQ(a - b, Time::Microseconds(6));
  EXPECT_EQ(a * 3, Time::Microseconds(30));
  EXPECT_EQ(3 * a, Time::Microseconds(30));
  EXPECT_EQ(a / 2, Time::Microseconds(5));
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_EQ(a * 0.5, Time::Microseconds(5));
}

TEST(TimeTest, CompoundAssignment) {
  Time t = Time::Microseconds(1);
  t += Time::Microseconds(2);
  EXPECT_EQ(t, Time::Microseconds(3));
  t -= Time::Microseconds(5);
  EXPECT_EQ(t, Time::Microseconds(-2));
  EXPECT_TRUE(t.IsNegative());
}

TEST(TimeTest, Comparisons) {
  EXPECT_LT(Time::Microseconds(1), Time::Microseconds(2));
  EXPECT_GE(Time::Milliseconds(1), Time::Microseconds(1000));
  EXPECT_TRUE(Time::Zero().IsZero());
  EXPECT_TRUE(Time::Nanoseconds(1).IsPositive());
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(Time::Milliseconds(1500).ToSeconds(), 1.5);
  EXPECT_DOUBLE_EQ(Time::Microseconds(2).ToMicroseconds(), 2.0);
  EXPECT_DOUBLE_EQ(Time::Nanoseconds(500).ToMicroseconds(), 0.5);
}

TEST(TimeTest, ToStringPicksUnit) {
  EXPECT_EQ(Time::Nanoseconds(5).ToString(), "5ns");
  EXPECT_EQ(Time::Microseconds(137).ToString(), "137.000us");
  EXPECT_EQ(Time::Milliseconds(2).ToString(), "2.000ms");
  EXPECT_EQ(Time::Seconds(3).ToString(), "3.000s");
}

TEST(DataRateTest, TransmissionTime) {
  const DataRate r = DataRate::GigabitsPerSecond(10);
  // 1500 bytes at 10 Gbps = 1.2 us.
  EXPECT_EQ(r.TransmissionTime(1500), Time::Nanoseconds(1200));
  EXPECT_EQ(r.TransmissionTime(0), Time::Zero());
}

TEST(DataRateTest, BytesIn) {
  const DataRate r = DataRate::GigabitsPerSecond(10);
  EXPECT_EQ(r.BytesIn(Time::Microseconds(1)), 1250);
  EXPECT_EQ(r.BytesIn(Time::Seconds(1)), 1250000000);
}

TEST(DataRateTest, Scaling) {
  const DataRate r = DataRate::GigabitsPerSecond(10) * 0.5;
  EXPECT_EQ(r.bps(), 5000000000LL);
  EXPECT_DOUBLE_EQ(r.ToGbps(), 5.0);
  EXPECT_EQ(DataRate::GigabitsPerSecond(2.5).bps(), 2'500'000'000);
}

}  // namespace
}  // namespace ecnsharp
