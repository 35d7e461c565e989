#include "endhost/pan.h"

namespace sciera::endhost {

const char* stack_mode_name(StackMode mode) {
  switch (mode) {
    case StackMode::kDaemonDependent: return "daemon-dependent";
    case StackMode::kBootstrapperDependent: return "bootstrapper-dependent";
    case StackMode::kStandalone: return "standalone";
  }
  return "?";
}

PanContext::PanContext(Environment env, StackMode mode)
    : env_(std::move(env)), mode_(mode) {
  stack_ = std::make_unique<HostStack>(*env_.net, env_.address,
                                       env_.stack_config);
}

Result<std::unique_ptr<PanContext>> PanContext::Builder::build(Rng rng) {
  if (env_.net == nullptr) {
    return Error{Errc::kInvalidArgument, "no network in host environment"};
  }
  if (env_.net->topology().find_as(env_.address.ia) == nullptr) {
    return Error{Errc::kInvalidArgument,
                 "host address " + env_.address.to_string() +
                     " names an AS outside the topology"};
  }
  if (env_.daemon != nullptr && env_.daemon->isd_as() != env_.address.ia) {
    return Error{Errc::kInvalidArgument,
                 "daemon serves " + env_.daemon->isd_as().to_string() +
                     " but host address is in " + env_.address.ia.to_string()};
  }
  // Automatic fallback chain (Section 4.2.1).
  StackMode mode;
  if (env_.daemon != nullptr) {
    mode = StackMode::kDaemonDependent;
  } else if (env_.bootstrapper_state != nullptr) {
    mode = StackMode::kBootstrapperDependent;
  } else {
    mode = StackMode::kStandalone;
  }
  auto ctx =
      std::unique_ptr<PanContext>(new PanContext(std::move(env_), mode));
  if (mode == StackMode::kStandalone) {
    if (ctx->env_.bootstrap_server == nullptr) {
      return Error{Errc::kUnreachable,
                   "standalone mode needs a reachable bootstrap server"};
    }
    Bootstrapper bootstrapper{ctx->env_.network_env, linux_profile()};
    auto result = bootstrapper.run(*ctx->env_.bootstrap_server, rng,
                                   ctx->env_.net->sim().now());
    if (!result) return result.error();
    ctx->bootstrap_time_ = result->timings.total();
    ctx->own_bootstrap_ = std::move(result).value();
  }
  return ctx;
}

std::vector<controlplane::Path> PanContext::paths(IsdAs dst,
                                                  const PathPolicy& policy) {
  const controlplane::PathSet set = path_set(dst);
  std::vector<controlplane::Path> live;
  for (const controlplane::Path& path : *set) {
    if (path_alive(path)) live.push_back(path);
  }
  return policy.apply(std::move(live));
}

controlplane::PathSet PanContext::path_set(IsdAs dst) {
  if (mode_ == StackMode::kDaemonDependent) return env_.daemon->path_set(dst);
  // Without a daemon the library talks to the replicated control service
  // itself (first-available failover) and applies its private liveness
  // table. An AS without a service has no paths to offer.
  prune_quarantine();
  auto* services = env_.net->control_service_set(env_.address.ia);
  return services == nullptr ? controlplane::no_paths()
                             : services->lookup_paths_now(dst);
}

bool PanContext::path_alive(const controlplane::Path& path) const {
  if (mode_ == StackMode::kDaemonDependent) {
    return env_.daemon->path_alive(path);
  }
  const auto it = down_until_.find(path.fingerprint());
  return it == down_until_.end() || env_.net->sim().now() >= it->second;
}

void PanContext::prune_quarantine() {
  const SimTime now = env_.net->sim().now();
  std::erase_if(down_until_,
                [now](const auto& entry) { return now >= entry.second; });
}

std::size_t PanContext::quarantined() const {
  return mode_ == StackMode::kDaemonDependent ? env_.daemon->quarantined()
                                              : down_until_.size();
}

void PanContext::report_path_down(std::string fingerprint) {
  if (mode_ == StackMode::kDaemonDependent) {
    env_.daemon->report_path_down(fingerprint);
  } else {
    prune_quarantine();
    down_until_[fingerprint] = env_.net->sim().now() + 90 * kSecond;
  }
  // A pinned path must not survive its own down report: otherwise the pin
  // silently resurrects the dead path as soon as its link flaps back up,
  // overriding the liveness table the report just updated.
  for (PanSocket* socket : sockets_) socket->unpin_fingerprint(fingerprint);
}

void PanContext::register_socket(PanSocket* socket) {
  sockets_.push_back(socket);
}

void PanContext::unregister_socket(PanSocket* socket) {
  std::erase(sockets_, socket);
}

Result<Duration> PanContext::handle_network_change(Rng& rng) {
  switch (mode_) {
    case StackMode::kDaemonDependent:
      // The shared daemon re-bootstraps once for every app: free here.
      env_.daemon->flush_cache();
      return Duration{0};
    case StackMode::kBootstrapperDependent:
      // The shared bootstrapper refreshes its state: apps only flush.
      return Duration{0};
    case StackMode::kStandalone: {
      // Each application must detect the change and re-bootstrap itself —
      // the inefficiency Section 4.2.1 calls out.
      if (env_.bootstrap_server == nullptr) {
        return Error{Errc::kUnreachable, "no bootstrap server"};
      }
      Bootstrapper bootstrapper{env_.network_env, linux_profile()};
      auto result = bootstrapper.run(*env_.bootstrap_server, rng,
                                     env_.net->sim().now());
      if (!result) return result.error();
      bootstrap_time_ = result->timings.total();
      own_bootstrap_ = std::move(result).value();
      return bootstrap_time_;
    }
  }
  return Error{Errc::kInternal, "unreachable"};
}

PanSocket::PanSocket(PanContext& ctx, std::uint16_t port)
    : ctx_(ctx), port_(port) {}

Result<std::unique_ptr<PanSocket>> PanSocket::open(PanContext& ctx,
                                                   std::uint16_t port,
                                                   Handler handler) {
  auto bound = ctx.stack().bind(
      port, [handler = std::move(handler)](
                const dataplane::ScionPacket& packet,
                const dataplane::UdpDatagram& datagram, SimTime arrival) {
        handler(packet.src, datagram.src_port, datagram.data, arrival);
      });
  if (!bound) return bound.error();
  auto socket = std::unique_ptr<PanSocket>(new PanSocket(ctx, bound.value()));
  ctx.register_socket(socket.get());
  return socket;
}

PanSocket::~PanSocket() {
  ctx_.unregister_socket(this);
  ctx_.stack().unbind(port_);
}

Status PanSocket::select_path(IsdAs dst, std::size_t index) {
  const auto options = ctx_.paths(dst, selector_.policy());
  if (index >= options.size()) {
    return Error{Errc::kNotFound,
                 "path index " + std::to_string(index) + " out of range (" +
                     std::to_string(options.size()) + " paths)"};
  }
  pinned_[dst] = options[index];
  return {};
}

Result<PanSocket::ResolvedPath> PanSocket::resolve_path(IsdAs dst) {
  const auto pin = pinned_.find(dst);
  if (pin != pinned_.end() && ctx_.network().path_usable(pin->second)) {
    return ResolvedPath{&pin->second, nullptr, false};
  }
  ResolvedPath resolved;
  resolved.set = ctx_.path_set(dst);
  resolved.path = selector_.first(
      dst, resolved.set, [this](const controlplane::Path& path) {
        return ctx_.path_alive(path) && ctx_.network().path_usable(path);
      });
  if (resolved.path == nullptr) {
    return Error{Errc::kUnreachable, "no usable path to " + dst.to_string()};
  }
  // A substitution only counts as failover when a pin existed and was
  // skipped; the everyday no-pin case is just path selection.
  resolved.failover = pin != pinned_.end();
  return resolved;
}

Result<controlplane::Path> PanSocket::current_path(IsdAs dst) {
  auto resolved = resolve_path(dst);
  if (!resolved) return resolved.error();
  return *resolved->path;
}

void PanSocket::unpin_fingerprint(std::string fingerprint) {
  std::erase_if(pinned_, [&fingerprint](const auto& entry) {
    return entry.second.fingerprint() == fingerprint;
  });
}

Result<SendReceipt> PanSocket::send_to(const dataplane::Address& dst,
                                       std::uint16_t dst_port, BytesView data) {
  SendReceipt receipt;
  receipt.mode = ctx_.mode();
  dataplane::ScionPacket packet;
  packet.dst = dst;
  packet.next_hdr = dataplane::kProtoUdp;
  if (dst.ia == ctx_.local_address().ia) {
    // Intra-AS: empty path, plain IP underlay.
    packet.path_type = dataplane::PathType::kEmpty;
  } else {
    auto resolved = resolve_path(dst.ia);
    if (!resolved) return resolved.error();
    receipt.path_fingerprint = resolved->path->fingerprint();
    receipt.failover = resolved->failover;
    packet.path = resolved->path->dataplane_path;
  }
  dataplane::UdpDatagram datagram;
  datagram.src_port = port_;
  datagram.dst_port = dst_port;
  datagram.data = Bytes{data.begin(), data.end()};
  packet.payload = datagram.serialize();
  receipt.bytes_queued = packet.wire_size();
  if (auto status = ctx_.stack().send(std::move(packet)); !status.ok()) {
    return status.error();
  }
  return receipt;
}

}  // namespace sciera::endhost
