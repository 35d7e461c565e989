// Simulated-time primitives. All timestamps in the simulator, control
// plane, and measurement campaign are nanoseconds since the simulation
// epoch. Wall-clock is never consulted: runs are fully deterministic.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace sciera {

// Nanoseconds since simulation epoch.
using SimTime = std::int64_t;
// Nanosecond duration.
using Duration = std::int64_t;

constexpr Duration kNanosecond = 1;
constexpr Duration kMicrosecond = 1'000 * kNanosecond;
constexpr Duration kMillisecond = 1'000 * kMicrosecond;
constexpr Duration kSecond = 1'000 * kMillisecond;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;
constexpr Duration kDay = 24 * kHour;

// Unix time, in seconds, at sim time 0. Beacons are timestamped with it
// and border routers check hop-field expiry against it.
constexpr std::uint32_t kUnixEpochAtSimZero = 1'700'000'000;

constexpr double to_ms(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}
constexpr double to_seconds(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}
constexpr Duration from_ms(double ms) {
  return static_cast<Duration>(ms * static_cast<double>(kMillisecond));
}

// Renders "12d 03:04:05.678" style timestamps for logs and charts.
[[nodiscard]] inline std::string format_time(SimTime t) {
  const std::int64_t total_ms = t / kMillisecond;
  const std::int64_t ms = total_ms % 1000;
  const std::int64_t s = (total_ms / 1000) % 60;
  const std::int64_t m = (total_ms / 60'000) % 60;
  const std::int64_t h = (total_ms / 3'600'000) % 24;
  const std::int64_t d = total_ms / 86'400'000;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lldd %02lld:%02lld:%02lld.%03lld",
                static_cast<long long>(d), static_cast<long long>(h),
                static_cast<long long>(m), static_cast<long long>(s),
                static_cast<long long>(ms));
  return buf;
}

}  // namespace sciera
