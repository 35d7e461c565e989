#include "sig/sig.h"

namespace sciera::sig {

Bytes IpPacket::serialize() const {
  Writer w;
  w.u32(src_ip);
  w.u32(dst_ip);
  w.u8(protocol);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  return std::move(w).take();
}

Result<IpPacket> IpPacket::parse(BytesView bytes) {
  Reader r{bytes};
  auto src = r.u32();
  auto dst = r.u32();
  auto proto = r.u8();
  auto len = r.u32();
  if (!src || !dst || !proto || !len) {
    return Error{Errc::kParseError, "truncated IP header"};
  }
  auto payload = r.raw(*len);
  if (!payload) return payload.error();
  IpPacket packet;
  packet.src_ip = *src;
  packet.dst_ip = *dst;
  packet.protocol = *proto;
  packet.payload = std::move(payload).value();
  return packet;
}

ScionIpGateway::ScionIpGateway(controlplane::ScionNetwork& net,
                               dataplane::Address addr, IpDelivery delivery)
    : net_(net),
      stack_(net, addr),
      daemon_(net, addr.ia),
      delivery_(std::move(delivery)) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{
      {"sig", registry.instance_label("sig", addr.to_string())}};
  metrics_.encapsulated =
      &registry.counter("sciera_sig_encapsulated_total", base);
  metrics_.decapsulated =
      &registry.counter("sciera_sig_decapsulated_total", base);
  const auto dropped = [&](const char* reason) {
    obs::Labels labels = base;
    labels.emplace_back("reason", reason);
    return &registry.counter("sciera_sig_dropped_total", labels);
  };
  metrics_.no_rule = dropped("no_rule");
  metrics_.send_failures = dropped("send_failure");
  (void)stack_.bind(kSigPort,
                    [this](const dataplane::ScionPacket& packet,
                           const dataplane::UdpDatagram& datagram,
                           SimTime arrival) {
                      on_tunnel_packet(packet, datagram, arrival);
                    });
}

void ScionIpGateway::add_rule(IpPrefix prefix, dataplane::Address remote) {
  rules_.emplace_back(prefix, remote);
}

Status ScionIpGateway::send_ip(const IpPacket& packet) {
  const dataplane::Address* remote = nullptr;
  for (const auto& [prefix, sig] : rules_) {
    if (prefix.contains(packet.dst_ip)) {
      remote = &sig;
      break;
    }
  }
  if (remote == nullptr) {
    metrics_.no_rule->inc();
    return Error{Errc::kNotFound, "no SIG traffic rule for destination"};
  }

  dataplane::ScionPacket tunnel;
  tunnel.dst = *remote;
  tunnel.next_hdr = dataplane::kProtoUdp;
  if (remote->ia != stack_.address().ia) {
    // `chosen` points into the set: hold the set until the path is copied.
    const controlplane::PathSet set = daemon_.path_set(remote->ia);
    const controlplane::Path* chosen = selector_.first(
        remote->ia, set, [this](const controlplane::Path& path) {
          return daemon_.path_alive(path) && net_.path_usable(path);
        });
    if (chosen == nullptr) {
      metrics_.send_failures->inc();
      return Error{Errc::kUnreachable,
                   "no usable path to remote SIG " + remote->to_string()};
    }
    tunnel.path = chosen->dataplane_path;
  } else {
    tunnel.path_type = dataplane::PathType::kEmpty;
  }
  dataplane::UdpDatagram datagram;
  datagram.src_port = kSigPort;
  datagram.dst_port = kSigPort;
  datagram.data = packet.serialize();
  tunnel.payload = datagram.serialize();
  const auto status = stack_.send(std::move(tunnel));
  if (!status.ok()) {
    metrics_.send_failures->inc();
    return status;
  }
  metrics_.encapsulated->inc();
  return {};
}

void ScionIpGateway::on_tunnel_packet(const dataplane::ScionPacket&,
                                      const dataplane::UdpDatagram& datagram,
                                      SimTime arrival) {
  auto packet = IpPacket::parse(datagram.data);
  if (!packet) return;
  metrics_.decapsulated->inc();
  if (delivery_) delivery_(packet.value(), arrival);
}

}  // namespace sciera::sig
