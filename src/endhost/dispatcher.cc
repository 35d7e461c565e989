#include "endhost/dispatcher.h"

#include "endhost/lightning_filter.h"

namespace sciera::endhost {
namespace {

// Per-socket kernel path capacity with RSS (per application).
constexpr double kDispatcherlessPps = 1'800'000;
// Local delivery hop (unix domain socket / loopback).
constexpr Duration kLocalHop = 30 * kMicrosecond;
// The ephemeral port range (the IANA dynamic range).
constexpr std::uint16_t kFirstEphemeralPort = 32768;
constexpr std::size_t kEphemeralPorts = 65536 - kFirstEphemeralPort;

}  // namespace

HostStack::HostStack(controlplane::ScionNetwork& net, dataplane::Address addr,
                     Config config)
    : net_(net), addr_(addr), config_(config) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{
      {"host", registry.instance_label("host", addr.to_string())}};
  metrics_.delivered = &registry.counter("sciera_host_delivered_total", base);
  const auto dropped = [&](const char* reason) {
    obs::Labels labels = base;
    labels.emplace_back("reason", reason);
    return &registry.counter("sciera_host_dropped_total", labels);
  };
  metrics_.dropped_no_port = dropped("no_port");
  metrics_.dropped_overload = dropped("overload");
  metrics_.dropped_filtered = dropped("filtered");
  const auto status = net_.register_host(
      addr_, [this](dataplane::ScionPacket& packet, SimTime arrival) {
        on_local_delivery(packet, arrival);
      });
  (void)status;
}

HostStack::~HostStack() { net_.unregister_host(addr_); }

Result<std::uint16_t> HostStack::bind(std::uint16_t port, Receiver receiver) {
  if (port == 0) {
    for (std::size_t tried = 0; port == 0; ++tried) {
      if (tried == kEphemeralPorts) {
        return Error{Errc::kResourceExhausted, "no free ephemeral port"};
      }
      const std::uint16_t candidate = next_ephemeral_;
      next_ephemeral_ = candidate == 65535
                            ? kFirstEphemeralPort
                            : static_cast<std::uint16_t>(candidate + 1);
      if (!ports_.contains(candidate)) port = candidate;
    }
  }
  if (ports_.contains(port)) {
    return Error{Errc::kResourceExhausted,
                 "port " + std::to_string(port) + " already bound"};
  }
  ports_.emplace(port,
                 std::make_shared<const Receiver>(std::move(receiver)));
  return port;
}

void HostStack::unbind(std::uint16_t port) { ports_.erase(port); }

Status HostStack::send(dataplane::ScionPacket packet) {
  packet.src = addr_;
  return net_.send_from_host(packet);
}

std::optional<Duration> HostStack::dispatcher_delay(SimTime now) {
  // Single shared server: each packet occupies the dispatcher for
  // 1/pps seconds; the backlog beyond the queue bound is dropped.
  const auto service =
      static_cast<Duration>(static_cast<double>(kSecond) /
                            config_.dispatcher_pps);
  const SimTime start = std::max(now, dispatcher_free_at_);
  const auto backlog = static_cast<std::size_t>((start - now) / service);
  if (backlog > config_.dispatcher_queue) return std::nullopt;
  dispatcher_free_at_ = start + service;
  return (start + service) - now;
}

void HostStack::on_local_delivery(dataplane::ScionPacket& packet,
                                  SimTime arrival) {
  if (packet.next_hdr == dataplane::kProtoScmp) {
    if (!scmp_receiver_) return;
    auto message = dataplane::ScmpMessage::parse(packet.payload);
    if (!message) return;
    auto receiver = scmp_receiver_;
    net_.sim().schedule_after(
        kLocalHop,
        [receiver, packet, message = std::move(message).value(),
         &sim = net_.sim()] { receiver(packet, message, sim.now()); });
    return;
  }
  if (packet.next_hdr != dataplane::kProtoUdp) return;
  const auto datagram = dataplane::UdpDatagramView::parse(packet.payload);
  if (!datagram) {
    metrics_.dropped_no_port->inc();
    return;
  }
  // In-path LightningFilter: unauthenticated traffic is shed here, before
  // it can consume the (shared, finite) dispatcher queue below.
  if (filter_ != nullptr &&
      filter_->check(packet.src.ia, datagram->data, arrival) !=
          LightningFilter::Verdict::kAccept) {
    metrics_.dropped_filtered->inc();
    return;
  }
  const auto it = ports_.find(datagram->dst_port);
  if (it == ports_.end()) {
    metrics_.dropped_no_port->inc();
    return;
  }

  Duration extra = kLocalHop;
  if (config_.mode == HostMode::kDispatcher) {
    const auto queued = dispatcher_delay(arrival);
    if (!queued) {
      metrics_.dropped_overload->inc();
      return;
    }
    extra += *queued;
  } else {
    extra += static_cast<Duration>(static_cast<double>(kSecond) /
                                   kDispatcherlessPps);
  }

  metrics_.delivered->inc();
  // Parked in the network's pool, not in this stack: the event captures
  // no `this`, so a stack destroyed or a port unbound with deliveries
  // pending leaves them valid, each holding its receiver.
  auto& parked = net_.parked_datagrams();
  const std::uint32_t slot = parked.acquire();
  dataplane::ParkedDatagram& delivery = parked[slot];
  delivery.datagram.src_port = datagram->src_port;
  delivery.datagram.dst_port = datagram->dst_port;
  // The view points into the packet's payload: copy before the swap.
  delivery.datagram.data.assign(datagram->data.begin(), datagram->data.end());
  delivery.receiver = it->second;
  delivery.arrival = net_.sim().now() + extra;
  std::swap(delivery.packet, packet);
  net_.sim().schedule_after(extra, [pool = &parked, slot] {
    dataplane::ParkedDatagram& parked_delivery = (*pool)[slot];
    (*parked_delivery.receiver)(parked_delivery.packet,
                                parked_delivery.datagram,
                                parked_delivery.arrival);
    parked_delivery.receiver.reset();
    pool->release(slot);
  });
}

}  // namespace sciera::endhost
