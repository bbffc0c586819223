// Link data-rate representation and serialization-time arithmetic.
#ifndef ECNSHARP_SIM_DATA_RATE_H_
#define ECNSHARP_SIM_DATA_RATE_H_

#include <cstdint>
#include <compare>

#include "sim/time.h"

namespace ecnsharp {

// A transmission rate in bits per second. Provides the only two operations a
// packet simulator needs: the time to serialize N bytes, and the number of
// bytes transferred in a duration.
class DataRate {
 public:
  constexpr DataRate() = default;

  static constexpr DataRate BitsPerSecond(std::int64_t v) { return DataRate(v); }
  static constexpr DataRate MegabitsPerSecond(std::int64_t v) {
    return DataRate(v * 1000 * 1000);
  }
  // Fractional rates (2.5 Gbps) are kept, rounded to the nearest bps.
  static constexpr DataRate GigabitsPerSecond(double v) {
    const double bps = v * 1e9;
    return DataRate(static_cast<std::int64_t>(bps < 0 ? bps - 0.5 : bps + 0.5));
  }

  // The largest rate config readers accept: far above any modelled link,
  // far below where bps() would overflow.
  static constexpr double kMaxGbps = 1e6;

  constexpr std::int64_t bps() const { return bps_; }
  constexpr double ToGbps() const { return static_cast<double>(bps_) * 1e-9; }

  // Time to put `bytes` on the wire at this rate.
  constexpr Time TransmissionTime(std::int64_t bytes) const {
    // bytes * 8 * 1e9 / bps, computed to avoid overflow for realistic inputs
    // (bytes < 2^40, bps up to 400G).
    const double ns = static_cast<double>(bytes) * 8.0 * 1e9 /
                      static_cast<double>(bps_);
    return Time::Nanoseconds(static_cast<std::int64_t>(ns));
  }

  // Bytes transferred in `t` at this rate (rounded down).
  constexpr std::int64_t BytesIn(Time t) const {
    const double bytes =
        static_cast<double>(bps_) * t.ToSeconds() / 8.0;
    return static_cast<std::int64_t>(bytes);
  }

  friend constexpr auto operator<=>(DataRate, DataRate) = default;
  friend constexpr DataRate operator*(DataRate r, double k) {
    return DataRate(static_cast<std::int64_t>(static_cast<double>(r.bps_) * k));
  }

 private:
  explicit constexpr DataRate(std::int64_t bps) : bps_(bps) {}
  std::int64_t bps_ = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SIM_DATA_RATE_H_
