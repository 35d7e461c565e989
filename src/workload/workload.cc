#include "workload/workload.h"

#include <algorithm>
#include <string>

namespace sciera::workload {

namespace {
// Placement list for host attachment: the configured restriction when
// present, otherwise every AS of the topology in its canonical order.
std::vector<IsdAs> placement_ases(const controlplane::ScionNetwork& net,
                                  const WorkloadConfig& config) {
  if (!config.ases.empty()) return config.ases;
  std::vector<IsdAs> all;
  all.reserve(net.topology().ases().size());
  for (const auto& as_info : net.topology().ases()) all.push_back(as_info.ia);
  return all;
}
}  // namespace

Result<std::unique_ptr<TrafficMatrix>> TrafficMatrix::Builder::build() const {
  if (net_ == nullptr) {
    return Error{Errc::kInvalidArgument,
                 "TrafficMatrix::Builder requires net()"};
  }
  if (net_->topology().ases().empty()) {
    return Error{Errc::kInvalidArgument,
                 "workload needs a topology with ASes"};
  }
  if (config_.hosts < 2) {
    return Error{Errc::kInvalidArgument,
                 "workload needs at least two hosts, got " +
                     std::to_string(config_.hosts)};
  }
  if (config_.flows == 0) {
    return Error{Errc::kInvalidArgument,
                 "workload needs at least one flow (zero-flow matrix)"};
  }
  if (config_.packets_per_flow == 0) {
    return Error{Errc::kInvalidArgument,
                 "workload needs at least one packet per flow"};
  }
  if (config_.mean_interval <= 0) {
    return Error{Errc::kInvalidArgument,
                 "workload mean_interval must be positive, got " +
                     std::to_string(config_.mean_interval)};
  }
  if (config_.start_window < 0) {
    return Error{Errc::kInvalidArgument,
                 "workload start_window must be non-negative, got " +
                     std::to_string(config_.start_window)};
  }
  for (const IsdAs ia : config_.ases) {
    if (net_->topology().find_as(ia) == nullptr) {
      return Error{Errc::kNotFound,
                   "workload placement names unknown AS " + ia.to_string()};
    }
  }
  if ((config_.seal_payloads || config_.install_filters) &&
      config_.filter_secret.empty()) {
    return Error{Errc::kInvalidArgument,
                 "workload sealing/filtering requires a filter_secret"};
  }
  return std::make_unique<TrafficMatrix>(*net_, config_);
}

TrafficMatrix::TrafficMatrix(controlplane::ScionNetwork& net,
                             WorkloadConfig config)
    : net_(net), config_(std::move(config)), rng_(config_.seed, "workload") {}

TrafficMatrix::~TrafficMatrix() = default;

Status TrafficMatrix::launch() {
  const std::vector<IsdAs> ases = placement_ases(net_, config_);
  if (ases.empty()) {
    return Error{Errc::kInvalidArgument, "workload needs a topology with ASes"};
  }
  for (const IsdAs ia : ases) {
    if (net_.topology().find_as(ia) == nullptr) {
      return Error{Errc::kNotFound,
                   "workload placement names unknown AS " + ia.to_string()};
    }
  }
  if (config_.hosts < 2) {
    return Error{Errc::kInvalidArgument, "workload needs at least two hosts"};
  }
  if ((config_.seal_payloads || config_.install_filters) &&
      config_.filter_secret.empty()) {
    return Error{Errc::kInvalidArgument,
                 "workload sealing/filtering requires a filter_secret"};
  }
  payload_.assign(config_.payload_bytes, kLegitMarker);

  hosts_.reserve(config_.hosts);
  for (std::size_t i = 0; i < config_.hosts; ++i) {
    Host host;
    host.address = {ases[i % ases.size()],
                    static_cast<std::uint32_t>(0x0B000000 + i)};
    host.daemon = std::make_unique<endhost::Daemon>(net_, host.address.ia,
                                                    config_.daemon);
    if (config_.install_filters) {
      host.filter = std::make_unique<endhost::LightningFilter>(
          config_.filter_secret, config_.filter);
    }
    auto ctx = endhost::PanContext::Builder{}
                   .net(net_)
                   .address(host.address)
                   .daemon(*host.daemon)
                   .stack_config(config_.stack)
                   .build(rng_.fork("host-" + std::to_string(i)));
    if (!ctx) return ctx.error();
    host.ctx = std::move(ctx).value();
    if (host.filter) host.ctx->stack().set_ingress_filter(host.filter.get());
    host.send_payload = payload_;
    if (config_.seal_payloads) {
      // One key schedule per host, at launch; every send reuses the tag.
      const endhost::LightningSealer sealer(config_.filter_secret,
                                            host.address.ia);
      const Bytes tag = sealer.seal(payload_);
      host.send_payload.insert(host.send_payload.end(), tag.begin(),
                               tag.end());
    }
    auto socket = endhost::PanSocket::open(
        *host.ctx, kWorkloadPort,
        [this, i](const dataplane::Address& from, std::uint16_t,
                  const Bytes& data, SimTime at) {
          // Classify by marker byte: attack/surge traffic that reached the
          // socket is routed to the foreign observer and never counts as
          // legitimate delivery. Legacy payloads are entirely
          // marker-filled, so pre-attack schedules are unchanged.
          const std::uint8_t marker = data.empty() ? kLegitMarker
                                                   : data.front();
          if (marker != kLegitMarker) {
            if (on_foreign_delivery_) on_foreign_delivery_(marker, i, at);
            return;
          }
          ++report_.packets_delivered;
          if (on_delivery_) on_delivery_(from, i, at);
        });
    if (!socket) return socket.error();
    host.socket = std::move(socket).value();
    hosts_.push_back(std::move(host));
  }

  flows_.reserve(config_.flows);
  for (std::size_t i = 0; i < config_.flows; ++i) {
    Flow flow;
    flow.src = rng_.next_below(hosts_.size());
    flow.dst = rng_.next_below(hosts_.size() - 1);
    if (flow.dst >= flow.src) ++flow.dst;  // never self-talk
    flows_.push_back(flow);
  }
  for (const Flow& flow : flows_) schedule_flow(flow);
  return {};
}

void TrafficMatrix::schedule_flow(const Flow& flow) {
  auto& sim = net_.sim();
  endhost::PanSocket* socket = hosts_[flow.src].socket.get();
  // hosts_ never reallocates after launch(), so the payload pointer is
  // stable for the lifetime of the scheduled sends.
  const Bytes* payload = &hosts_[flow.src].send_payload;
  const dataplane::Address to = hosts_[flow.dst].address;
  SimTime t = sim.now() +
              static_cast<Duration>(rng_.uniform(
                  0.0, static_cast<double>(config_.start_window)));
  for (std::size_t k = 0; k < config_.packets_per_flow; ++k) {
    t += 1 + static_cast<Duration>(rng_.exponential(
                 static_cast<double>(config_.mean_interval)));
    sim.schedule(t, [this, socket, to, payload] {
      auto receipt = socket->send_to(to, kWorkloadPort, *payload);
      if (!receipt.ok()) {
        ++report_.send_failures;
        return;
      }
      ++report_.packets_sent;
      if (receipt->failover) ++report_.failover_sends;
    });
  }
}

endhost::LightningFilter::Stats TrafficMatrix::filter_stats() const {
  endhost::LightningFilter::Stats total;
  for (const Host& host : hosts_) {
    if (!host.filter) continue;
    const auto stats = host.filter->stats();
    total.accepted += stats.accepted;
    total.dropped_rule += stats.dropped_rule;
    total.dropped_auth += stats.dropped_auth;
    total.dropped_rate += stats.dropped_rate;
    total.dropped_overflow += stats.dropped_overflow;
  }
  return total;
}

endhost::HostStack::Stats TrafficMatrix::stack_stats() const {
  endhost::HostStack::Stats total;
  for (const Host& host : hosts_) {
    if (!host.ctx) continue;
    const auto stats = host.ctx->stack().stats();
    total.delivered += stats.delivered;
    total.dropped_no_port += stats.dropped_no_port;
    total.dropped_overload += stats.dropped_overload;
    total.dropped_filtered += stats.dropped_filtered;
  }
  return total;
}

}  // namespace sciera::workload
