// Happy Eyeballs with SCION as a third option (Section 4.2.2): "Adding
// SCION as a third option to this library would immediately enable all
// applications using it to communicate through SCION, if available and
// supported by the destination." Races connection attempts over SCION,
// IPv6 and IPv4 with the RFC 8305 staggered start, preferring SCION when
// it answers within the stagger budget.
#pragma once

#include "bgp/bgp.h"
#include "endhost/daemon.h"

namespace sciera::endhost {

enum class Transport : std::uint8_t { kScion, kIpv6, kIpv4 };

struct DialResult {
  Transport chosen = Transport::kIpv4;
  Duration connect_time = 0;   // time until the winning handshake completed
  Duration first_rtt = 0;      // RTT of the winning transport
  int attempts_started = 0;
};

class HappyEyeballs {
 public:
  struct Config {
    // RFC 8305 "Connection Attempt Delay" between staggered starts;
    // preference order is SCION, IPv6, IPv4.
    Duration attempt_delay = 250 * kMillisecond;
    bool scion_enabled = true;
    bool ipv6_enabled = true;
  };

  HappyEyeballs(controlplane::ScionNetwork& net, bgp::BgpNetwork& bgp,
                Config config);
  HappyEyeballs(controlplane::ScionNetwork& net, bgp::BgpNetwork& bgp)
      : HappyEyeballs(net, bgp, Config{}) {}

  // Simulated dial: starts staggered attempts and returns the transport
  // that completes its handshake first. SCION availability requires a
  // usable path; v6/v4 require BGP reachability (v6 modelled as the same
  // route with a small extra setup cost, as dual-stack deployments see).
  [[nodiscard]] Result<DialResult> dial(IsdAs src, IsdAs dst, Rng& rng);

 private:
  struct Attempt {
    Transport transport;
    SimTime start = 0;
    std::optional<Duration> handshake;  // nullopt: transport unavailable
  };

  [[nodiscard]] std::optional<Duration> scion_handshake(IsdAs src, IsdAs dst,
                                                        Rng& rng) const;
  [[nodiscard]] std::optional<Duration> ip_handshake(IsdAs src, IsdAs dst,
                                                     bool v6, Rng& rng) const;

  controlplane::ScionNetwork& net_;
  bgp::BgpNetwork& bgp_;
  Config config_;
};

}  // namespace sciera::endhost
