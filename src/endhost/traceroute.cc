#include "endhost/traceroute.h"

namespace sciera::endhost {
namespace {

constexpr Duration kProbeTimeout = 3 * kSecond;
constexpr std::uint16_t kIdentifier = 0x7EAC;  // SCMP echo identifier

}  // namespace

std::vector<TracerouteHop> Traceroute::run(const dataplane::Address& dst,
                                           const controlplane::Path& path) {
  std::vector<TracerouteHop> hops;
  auto& sim = stack_.network().sim();

  struct Response {
    bool received = false;
    IsdAs origin;
    bool echo_reply = false;
    SimTime at = 0;
  };
  Response response;

  stack_.set_scmp_receiver([&response](const dataplane::ScionPacket& packet,
                                       const dataplane::ScmpMessage& message,
                                       SimTime arrival) {
    if (message.type == dataplane::ScmpType::kHopLimitExceeded) {
      response.received = true;
      response.origin = IsdAs::from_packed(message.origin_ia);
      response.echo_reply = false;
      response.at = arrival;
    } else if (message.type == dataplane::ScmpType::kEchoReply) {
      response.received = true;
      response.origin = packet.src.ia;
      response.echo_reply = true;
      response.at = arrival;
    }
  });

  // The number of forwarding ASes is one less than the AS count; the
  // destination answers the final echo itself.
  const int max_hops = static_cast<int>(path.as_sequence.size()) + 1;
  for (int ttl = 1; ttl <= max_hops; ++ttl) {
    response = Response{};
    dataplane::ScionPacket probe;
    probe.dst = dst;
    probe.next_hdr = dataplane::kProtoScmp;
    probe.hop_limit = static_cast<std::uint8_t>(ttl);
    probe.path = path.dataplane_path;
    probe.payload = dataplane::make_echo_request(
                        kIdentifier, static_cast<std::uint16_t>(ttl))
                        .serialize();
    const SimTime sent = sim.now();
    if (!stack_.send(std::move(probe)).ok()) break;
    const SimTime deadline = sent + kProbeTimeout;
    while (!response.received && sim.now() < deadline) {
      sim.run_for(10 * kMillisecond);
    }

    TracerouteHop hop;
    hop.position = ttl;
    if (!response.received) {
      hop.timed_out = true;
      hops.push_back(hop);
      continue;
    }
    hop.ia = response.origin;
    hop.rtt = response.at - sent;
    hop.is_destination = response.echo_reply;
    hops.push_back(hop);
    if (hop.is_destination) break;
  }

  stack_.set_scmp_receiver({});
  return hops;
}

}  // namespace sciera::endhost
