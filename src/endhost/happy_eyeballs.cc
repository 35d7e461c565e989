#include "endhost/happy_eyeballs.h"

#include <cmath>

namespace sciera::endhost {

HappyEyeballs::HappyEyeballs(controlplane::ScionNetwork& net,
                             bgp::BgpNetwork& bgp, Config config)
    : net_(net), bgp_(bgp), config_(config) {}

namespace {

// Give up on a transport whose handshake takes longer than this.
constexpr Duration kAttemptTimeout = 2 * kSecond;

// Local RTT sampler (propagation + hop-scaled log-normal jitter); the
// measurement module has a richer version, but endhost cannot depend on it.
Duration sample(Duration base, std::size_t hops, double sigma, Rng& rng) {
  const double scaled =
      sigma * std::sqrt(static_cast<double>(std::max<std::size_t>(hops, 1)));
  return static_cast<Duration>(static_cast<double>(base) *
                               rng.lognormal_median(1.0, scaled));
}

}  // namespace

std::optional<Duration> HappyEyeballs::scion_handshake(IsdAs src, IsdAs dst,
                                                       Rng& rng) const {
  if (!config_.scion_enabled) return std::nullopt;
  for (const auto& path : net_.paths(src, dst)) {
    if (!net_.path_usable(path)) continue;
    // 1-RTT handshake over the chosen path.
    return sample(path.static_rtt, path.as_sequence.size(), 0.02, rng);
  }
  return std::nullopt;
}

std::optional<Duration> HappyEyeballs::ip_handshake(IsdAs src, IsdAs dst,
                                                    bool v6, Rng& rng) const {
  const auto rtt = bgp_.rtt(src, dst);
  if (!rtt) return std::nullopt;
  const auto* route = bgp_.route(src, dst);
  Duration handshake = sample(*rtt, route->as_path.size(), 0.03, rng);
  // Dual-stack deployments routinely see slightly different v6 behaviour;
  // model a small extra setup cost and occasional brokenness.
  if (v6) {
    if (rng.chance(0.05)) return std::nullopt;  // broken v6 path
    handshake += from_ms(rng.uniform(0.0, 3.0));
  }
  return handshake;
}

Result<DialResult> HappyEyeballs::dial(IsdAs src, IsdAs dst, Rng& rng) {
  struct Candidate {
    Transport transport;
    Duration start_offset;
    std::optional<Duration> handshake;
  };
  std::vector<Candidate> candidates;
  Duration offset = 0;
  if (config_.scion_enabled) {
    candidates.push_back({Transport::kScion, offset,
                          scion_handshake(src, dst, rng)});
    offset += config_.attempt_delay;
  }
  if (config_.ipv6_enabled) {
    candidates.push_back({Transport::kIpv6, offset,
                          ip_handshake(src, dst, true, rng)});
    offset += config_.attempt_delay;
  }
  candidates.push_back({Transport::kIpv4, offset,
                        ip_handshake(src, dst, false, rng)});

  DialResult result;
  std::optional<Duration> best_completion;
  for (const auto& candidate : candidates) {
    ++result.attempts_started;
    if (!candidate.handshake) continue;
    if (*candidate.handshake > kAttemptTimeout) continue;
    const Duration completion = candidate.start_offset + *candidate.handshake;
    if (!best_completion || completion < *best_completion) {
      best_completion = completion;
      result.chosen = candidate.transport;
      result.connect_time = completion;
      result.first_rtt = *candidate.handshake;
    }
  }
  if (!best_completion) {
    return Error{Errc::kUnreachable,
                 "no transport reached " + dst.to_string()};
  }
  return result;
}

}  // namespace sciera::endhost
