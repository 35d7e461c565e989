// SCION-IP Gateway (SIG): IP-to-SCION-to-IP packet-level translation —
// what every productive use case ran before native applications existed
// (abstract, §1), and the heart of Appendix B's Edge (non-AS) model: a
// site plugs a SIG appliance in and its unmodified IP hosts transparently
// communicate over SCION.
//
// Two SIGs pair up through traffic rules mapping remote IP prefixes to the
// remote SIG's SCION address; legacy IPv4 packets are encapsulated whole
// into SCION/UDP and released on the far side.
#pragma once

#include <memory>

#include "endhost/daemon.h"
#include "endhost/dispatcher.h"
#include "endhost/policy.h"

namespace sciera::sig {

// A legacy IPv4 packet as the SIG sees it.
struct IpPacket {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint8_t protocol = 17;
  Bytes payload;

  [[nodiscard]] Bytes serialize() const;
  static Result<IpPacket> parse(BytesView bytes);

  friend bool operator==(const IpPacket&, const IpPacket&) = default;
};

struct IpPrefix {
  std::uint32_t address = 0;
  int length = 24;

  [[nodiscard]] bool contains(std::uint32_t ip) const {
    if (length <= 0) return true;
    const std::uint32_t mask =
        length >= 32 ? 0xFFFFFFFFu : ~((1u << (32 - length)) - 1);
    return (ip & mask) == (address & mask);
  }
};

class ScionIpGateway {
 public:
  // Registry cells, registered at construction.
  struct Metrics {
    obs::Counter* encapsulated = nullptr;
    obs::Counter* decapsulated = nullptr;
    obs::Counter* no_rule = nullptr;
    obs::Counter* send_failures = nullptr;
  };

  // The handler receiving decapsulated IP packets for the local LAN.
  using IpDelivery = std::function<void(const IpPacket& packet, SimTime)>;

  // The SIG binds a well-known port on its host stack and uses a daemon
  // for paths (Edge model: the appliance carries the whole stack).
  ScionIpGateway(controlplane::ScionNetwork& net, dataplane::Address addr,
                 IpDelivery delivery);

  // Traffic rule: IP packets for `prefix` tunnel to the SIG at `remote`.
  void add_rule(IpPrefix prefix, dataplane::Address remote);

  // Path policy applied to tunnel traffic (e.g. geofencing). Every remote
  // AS is ranked again on its next send.
  void set_policy(endhost::PathPolicy policy) {
    selector_.set_policy(std::move(policy));
  }

  // Entry point from the legacy LAN side.
  Status send_ip(const IpPacket& packet);

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] const dataplane::Address& address() const {
    return stack_.address();
  }

  static constexpr std::uint16_t kSigPort = 30256;

 private:
  void on_tunnel_packet(const dataplane::ScionPacket& packet,
                        const dataplane::UdpDatagram& datagram,
                        SimTime arrival);

  controlplane::ScionNetwork& net_;
  endhost::HostStack stack_;
  endhost::Daemon daemon_;
  endhost::PathSelector selector_;
  IpDelivery delivery_;
  std::vector<std::pair<IpPrefix, dataplane::Address>> rules_;
  Metrics metrics_;
};

}  // namespace sciera::sig
