#include "endhost/dispatcher.h"

#include "endhost/lightning_filter.h"

namespace sciera::endhost {

HostStack::HostStack(controlplane::ScionNetwork& net, dataplane::Address addr,
                     Config config)
    : net_(net), addr_(addr), config_(config) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{
      {"host", registry.instance_label("host", addr.to_string())}};
  delivered_ = &registry.counter("sciera_host_delivered_total", base);
  const auto dropped = [&](const char* reason) {
    obs::Labels labels = base;
    labels.emplace_back("reason", reason);
    return &registry.counter("sciera_host_dropped_total", labels);
  };
  dropped_no_port_ = dropped("no_port");
  dropped_overload_ = dropped("overload");
  dropped_filtered_ = dropped("filtered");
  const auto status = net_.register_host(
      addr_, [this](const dataplane::ScionPacket& packet, SimTime arrival) {
        on_local_delivery(packet, arrival);
      });
  (void)status;
}

HostStack::Stats HostStack::stats() const {
  return Stats{delivered_->value(), dropped_no_port_->value(),
               dropped_overload_->value(), dropped_filtered_->value()};
}

HostStack::~HostStack() { net_.unregister_host(addr_); }

Result<std::uint16_t> HostStack::bind(std::uint16_t port, Receiver receiver) {
  if (port == 0) {
    while (ports_.contains(next_ephemeral_)) ++next_ephemeral_;
    port = next_ephemeral_++;
  }
  if (ports_.contains(port)) {
    return Error{Errc::kResourceExhausted,
                 "port " + std::to_string(port) + " already bound"};
  }
  ports_.emplace(port, std::move(receiver));
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

void HostStack::on_local_delivery(const dataplane::ScionPacket& packet,
                                  SimTime arrival) {
  if (packet.next_hdr == dataplane::kProtoScmp) {
    if (!scmp_receiver_) return;
    auto message = dataplane::ScmpMessage::parse(packet.payload);
    if (!message) return;
    auto receiver = scmp_receiver_;
    net_.sim().schedule_after(
        config_.local_hop,
        [receiver, packet, message = std::move(message).value(),
         &sim = net_.sim()] { receiver(packet, message, sim.now()); });
    return;
  }
  if (packet.next_hdr != dataplane::kProtoUdp) return;
  auto datagram = dataplane::UdpDatagram::parse(packet.payload);
  if (!datagram) {
    dropped_no_port_->inc();
    return;
  }
  // In-path LightningFilter: unauthenticated traffic is shed here, before
  // it can consume the (shared, finite) dispatcher queue below.
  if (filter_ != nullptr &&
      filter_->check(packet.src.ia, datagram->data, arrival) !=
          LightningFilter::Verdict::kAccept) {
    dropped_filtered_->inc();
    return;
  }
  const auto it = ports_.find(datagram->dst_port);
  if (it == ports_.end()) {
    dropped_no_port_->inc();
    return;
  }

  Duration extra = config_.local_hop;
  if (config_.mode == HostMode::kDispatcher) {
    const auto queued = dispatcher_delay(arrival);
    if (!queued) {
      dropped_overload_->inc();
      return;
    }
    extra += *queued;
  } else {
    extra += static_cast<Duration>(static_cast<double>(kSecond) /
                                   config_.dispatcherless_pps);
  }

  delivered_->inc();
  Receiver& receiver = it->second;
  auto dg = std::move(datagram).value();
  net_.sim().schedule_after(extra, [receiver, packet, dg, &sim = net_.sim()] {
    receiver(packet, dg, sim.now());
  });
}

}  // namespace sciera::endhost
