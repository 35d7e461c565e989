#include "dataplane/router.h"

#include <algorithm>

#include "common/check.h"
#include "dataplane/frame_pool.h"
#include "common/log.h"
#include "common/strings.h"
#include "obs/flight_recorder.h"

namespace sciera::dataplane {
namespace {

IfaceId effective_ingress(const InfoField& info, const HopField& hop) {
  return info.construction_dir ? hop.cons_ingress : hop.cons_egress;
}

IfaceId effective_egress(const InfoField& info, const HopField& hop) {
  return info.construction_dir ? hop.cons_egress : hop.cons_ingress;
}

const char* scmp_type_name(ScmpType type) {
  switch (type) {
    case ScmpType::kDestinationUnreachable: return "dest_unreachable";
    case ScmpType::kPacketTooBig: return "packet_too_big";
    case ScmpType::kHopLimitExceeded: return "hop_limit_exceeded";
    case ScmpType::kParameterProblem: return "parameter_problem";
    case ScmpType::kExternalInterfaceDown: return "external_iface_down";
    case ScmpType::kInternalConnectivityDown: return "internal_down";
    case ScmpType::kEchoRequest: return "echo_request";
    case ScmpType::kEchoReply: return "echo_reply";
  }
  return "unknown";
}

}  // namespace

BorderRouter::BorderRouter(simnet::Simulator& sim, IsdAs ia, FwdKey fwd_key,
                           Config config)
    : Node("br-" + ia.to_string()),
      sim_(sim),
      ia_(ia),
      config_(config),
      verifier_(fwd_key, config.mac) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{
      {"router", registry.instance_label("router", ia.to_string())}};
  const auto counter = [&](const char* name) {
    return &registry.counter(name, base);
  };
  const auto dropped = [&](const char* reason) {
    obs::Labels labels = base;
    labels.emplace_back("reason", reason);
    return &registry.counter("sciera_router_dropped_total", labels);
  };
  metrics_.forwarded = counter("sciera_router_forwarded_total");
  metrics_.delivered = counter("sciera_router_delivered_total");
  metrics_.injected = counter("sciera_router_injected_total");
  metrics_.echo_replies = counter("sciera_router_echo_replies_total");
  metrics_.scmp_errors_sent = counter("sciera_router_scmp_errors_total");
  metrics_.drop_mac = dropped("mac");
  metrics_.drop_expired = dropped("expired");
  metrics_.drop_bad_ingress = dropped("bad_ingress");
  metrics_.drop_no_route = dropped("no_route");
  metrics_.drop_malformed = dropped("malformed");
  metrics_.drop_offline = dropped("offline");
  metrics_.crashes = counter("sciera_router_crashes_total");
  metrics_.batches = counter("sciera_router_batches_total");
  metrics_.batch_packets = counter("sciera_router_batch_packets_total");
  metrics_.mac_cache_hits = counter("sciera_router_mac_cache_hits_total");
  metrics_.mac_cache_misses = counter("sciera_router_mac_cache_misses_total");
  const auto admission_dropped = [&](const char* klass) {
    obs::Labels labels = base;
    labels.emplace_back("class", klass);
    return &registry.counter("sciera_router_admission_dropped_total", labels);
  };
  metrics_.admission_dropped_data = admission_dropped("data");
  metrics_.admission_dropped_control = admission_dropped("control");
  metrics_.scmp_suppressed = &registry.counter(
      "sciera_scmp_suppressed_total", base);
  verifier_.set_cache_counters(metrics_.mac_cache_hits,
                               metrics_.mac_cache_misses);
  data_bucket_ = TokenBucket{config_.admission.data_burst, 0};
  control_bucket_ = TokenBucket{config_.admission.control_burst, 0};
}

void BorderRouter::crash() {
  if (!online_) return;
  online_ = false;
  metrics_.crashes->inc();
  obs::FlightRecorder::global().record(
      obs::TraceType::kChaosInject, sim_.now(), sim_.executed_events(),
      name(), "router crash");
}

BorderRouter::Stats BorderRouter::stats() const {
  return Stats{metrics_.forwarded->value(),
               metrics_.delivered->value(),
               metrics_.injected->value(),
               metrics_.echo_replies->value(),
               metrics_.drop_mac->value(),
               metrics_.drop_expired->value(),
               metrics_.drop_bad_ingress->value(),
               metrics_.drop_no_route->value(),
               metrics_.drop_malformed->value(),
               metrics_.drop_offline->value(),
               metrics_.scmp_errors_sent->value(),
               metrics_.crashes->value(),
               metrics_.batches->value(),
               metrics_.batch_packets->value(),
               metrics_.mac_cache_hits->value(),
               metrics_.mac_cache_misses->value(),
               metrics_.admission_dropped_data->value(),
               metrics_.admission_dropped_control->value(),
               metrics_.scmp_suppressed->value()};
}

bool BorderRouter::take_token(TokenBucket& bucket, double pps, double burst,
                              SimTime now) {
  const double elapsed =
      static_cast<double>(now - bucket.last) / static_cast<double>(kSecond);
  bucket.tokens = std::min(burst, bucket.tokens + elapsed * pps);
  bucket.last = now;
  if (bucket.tokens < 1.0) return false;
  // Bucket levels never reach a digest, and every update happens in the
  // router's deterministic per-packet order.
  // NOLINTNEXTLINE(float-accumulation) drop decision, not digest state
  bucket.tokens -= 1.0;
  return true;
}

bool BorderRouter::admit(const ScionPacket& packet) {
  const bool control = packet.next_hdr == kProtoScmp;
  const Config::Admission& adm = config_.admission;
  const double pps = control ? adm.control_pps : adm.data_pps;
  if (pps <= 0) return true;  // class unlimited — the legacy default
  TokenBucket& bucket = control ? control_bucket_ : data_bucket_;
  const double burst = control ? adm.control_burst : adm.data_burst;
  if (take_token(bucket, pps, burst, sim_.now())) return true;
  (control ? metrics_.admission_dropped_control
           : metrics_.admission_dropped_data)->inc();
  return false;
}

bool BorderRouter::scmp_budget_ok(IsdAs offender) {
  const std::uint64_t packed = offender.packed();
  const auto slot =
      static_cast<std::size_t>((packed * 0x9E3779B97F4A7C15ULL) >> 58);
  ScmpSlot& entry = scmp_slots_[slot];
  if (!entry.used || entry.ia != packed) {
    entry = ScmpSlot{packed, TokenBucket{config_.scmp_burst, sim_.now()},
                     true};
  }
  return take_token(entry.bucket, config_.scmp_rate_pps, config_.scmp_burst,
                    sim_.now());
}

void BorderRouter::attach_iface(IfaceId iface, simnet::Link* link, int side) {
  ifaces_[iface] = IfaceBinding{link, side};
}

std::uint32_t BorderRouter::now_unix() const {
  return config_.unix_epoch +
         static_cast<std::uint32_t>(sim_.now() / kSecond);
}

Status BorderRouter::inject(const ScionPacket& packet) {
  if (!online_) {
    metrics_.drop_offline->inc();
    return Error{Errc::kUnreachable,
                 "border router " + ia_.to_string() + " is down"};
  }
  if (packet.path_type == PathType::kEmpty) {
    if (packet.dst.ia != ia_) {
      return Error{Errc::kInvalidArgument,
                   "empty path can only reach the local AS"};
    }
    metrics_.injected->inc();
    deliver_local(packet);
    return {};
  }
  if (auto status = packet.path.validate(); !status.ok()) return status;
  metrics_.injected->inc();
  // process() consumes its packet in place; the caller keeps theirs.
  ScionPacket working = packet;
  process(working, /*arrival_iface=*/0, /*from_local=*/true);
  return {};
}

void BorderRouter::receive(const simnet::MessagePtr& message,
                           const simnet::Arrival& arrival) {
  if (!online_) {
    // A crashed router is a silent blackhole: no SCMP, no forwarding —
    // the failure mode end hosts can only detect by timeout.
    metrics_.drop_offline->inc();
    return;
  }
  const auto* frame = dynamic_cast<const UnderlayFrame*>(message.get());
  if (frame == nullptr) {
    metrics_.drop_malformed->inc();
    return;
  }
  auto packet = ScionPacket::parse(frame->scion_bytes);
  if (!packet) {
    metrics_.drop_malformed->inc();
    log_debug("router") << name() << " drops malformed packet: "
                        << packet.error().to_string();
    return;
  }
  if (!admit(packet.value())) return;
  process(packet.value(), arrival.local_iface, /*from_local=*/false);
}

void BorderRouter::receive_batch(std::span<const simnet::MessagePtr> batch,
                                 const simnet::Arrival& arrival) {
  if (!config_.batched) {
    // Scalar referee mode: one receive() per frame, in order — exactly
    // the pre-batching behavior the equivalence suite compares against.
    Node::receive_batch(batch, arrival);
    return;
  }
  if (!online_) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      metrics_.drop_offline->inc();
    }
    return;
  }
  metrics_.batches->inc();
  // Stage 1: parse every frame of the tick into reused scratch slots —
  // a single pass over the frame-pool arena the batch lives in, with no
  // per-packet allocation once the scratch is warm.
  if (batch_scratch_.size() < batch.size()) {
    batch_scratch_.resize(batch.size());
  }
  batch_ok_.assign(batch.size(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto* frame = dynamic_cast<const UnderlayFrame*>(batch[i].get());
    if (frame == nullptr) {
      metrics_.drop_malformed->inc();
      continue;
    }
    auto status = ScionPacket::parse_into(frame->scion_bytes, batch_scratch_[i]);
    if (!status.ok()) {
      metrics_.drop_malformed->inc();
      log_debug("router") << name() << " drops malformed packet: "
                          << status.error().to_string();
      continue;
    }
    batch_ok_[i] = 1;
  }
  // Stage 2: hop validation → MAC check → forward, in arrival order.
  // Parsing schedules no events, so this staged order produces the same
  // event schedule the scalar parse/process interleaving does.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch_ok_[i] == 0) continue;
    if (!admit(batch_scratch_[i])) continue;
    metrics_.batch_packets->inc();
    process(batch_scratch_[i], arrival.local_iface, /*from_local=*/false);
  }
}

Result<IfaceId> BorderRouter::process_current_hop(ScionPacket& packet,
                                                  IfaceId arrival_iface,
                                                  bool from_local) {
  ScionPath& path = packet.path;
  if (path.at_end()) {
    return Error{Errc::kParseError, "path pointer past the end"};
  }
  // Structural invariant validate() must have established before a packet
  // reaches the forwarding engine; a violation means a packet bypassed
  // validate() or advance() corrupted the info pointer.
  SCIERA_DCHECK(path.curr_inf < path.num_segments(),
                "dataplane.path_inf_bounds");
  InfoField& info = path.current_info();
  const HopField& hop = path.current_hop();

  // beta handling: against construction direction, un-chain first.
  // Peering hop fields never touch the accumulator (see HopField::peering).
  if (!info.construction_dir && !hop.peering) {
    info.seg_id = chain_beta(info.seg_id, hop.mac);
  }
  const std::uint16_t beta = info.seg_id;

  if (hop_expired(hop, info.timestamp, now_unix())) {
    metrics_.drop_expired->inc();
    return Error{Errc::kExpired, "hop field expired"};
  }
  if (!verifier_.verify(beta, info.timestamp, hop)) {
    metrics_.drop_mac->inc();
    return Error{Errc::kVerificationFailed, "hop field MAC mismatch"};
  }
  if (!from_local) {
    const IfaceId expect_in = effective_ingress(info, hop);
    if (expect_in != 0 && expect_in != arrival_iface) {
      metrics_.drop_bad_ingress->inc();
      count_violation("dataplane.bad_ingress");
      return Error{Errc::kVerificationFailed, "wrong ingress interface"};
    }
  }

  // Chain forward when moving along construction direction.
  if (info.construction_dir && !hop.peering) {
    info.seg_id = chain_beta(info.seg_id, hop.mac);
  }
  return effective_egress(info, hop);
}

void BorderRouter::process(ScionPacket& packet, IfaceId arrival_iface,
                           bool from_local) {
  for (;;) {
    auto egress = process_current_hop(packet, arrival_iface, from_local);
    if (!egress) {
      log_debug("router") << name() << " drop: " << egress.error().to_string();
      return;
    }
    ScionPath& path = packet.path;
    const bool last_segment = path.curr_inf + 1u >= path.num_segments();

    // Segment crossovers: when the current hop is the last of its segment
    // and more segments follow, the *same* AS opens the next segment
    // (up/core/down joins and shortcuts). The one exception is a peering
    // exit: the segment boundary is crossed over the peering link, so the
    // packet is forwarded and the neighbor processes the next segment.
    if (path.at_segment_end() && !last_segment) {
      const bool peering_exit = path.current_info().peering &&
                                path.current_hop().peering && *egress != 0;
      if (!peering_exit) {
        path.advance();
        arrival_iface = 0;
        from_local = true;  // intra-AS handover, no ingress check
        continue;
      }
    }

    // Delivery: the hop just processed is the final one of the path (its
    // effective egress is 0 for full segments, or non-zero when the path
    // was cut mid-segment at an on-path destination — Section 2's
    // "shortcuts" also end this way on the return direction).
    const bool last_hop = path.curr_hf + 1u >= path.num_hops();
    if (*egress == 0 || last_hop) {
      // End of path: must be addressed to this AS.
      if (packet.dst.ia != ia_) {
        metrics_.drop_no_route->inc();
        return;
      }
      if (config_.answer_scmp_echo && packet.next_hdr == kProtoScmp) {
        if (auto msg = ScmpMessage::parse(packet.payload);
            msg.ok() && msg->type == ScmpType::kEchoRequest) {
          answer_echo(packet);
          return;
        }
      }
      deliver_local(packet);
      return;
    }

    // TTL-style hop limit: expires at the AS where it reaches zero, which
    // is what the traceroute utility drives.
    if (packet.hop_limit == 0 || --packet.hop_limit == 0) {
      std::uint16_t id = 0, seq = 0;
      if (packet.next_hdr == kProtoScmp) {
        if (auto msg = ScmpMessage::parse(packet.payload); msg.ok()) {
          if (msg->is_error()) return;  // never answer errors with errors
          id = msg->identifier;
          seq = msg->sequence;
        }
      }
      metrics_.scmp_errors_sent->inc();
      // Position the pointer past this AS's hop as forward() would have.
      ScionPacket expired = packet;
      expired.path.advance();
      send_scmp_error(expired, make_hop_limit_exceeded(ia_, id, seq));
      return;
    }

    path.advance();
    forward(packet, *egress);
    return;
  }
}

void BorderRouter::deliver_local(const ScionPacket& packet) {
  metrics_.delivered->inc();
  if (!local_delivery_) return;
  auto delivery = local_delivery_;
  // The endpoint handoff copies the packet (it outlives the scratch slot
  // it may live in); the forwarding fast path never takes this branch
  // for transit traffic, so the copy is off the hot path.
  sim_.schedule_after(config_.intra_as_delay, [delivery, packet, &sim = sim_] {
    delivery(packet, sim.now());
  });
}

void BorderRouter::forward(const ScionPacket& packet, IfaceId egress) {
  const auto it = ifaces_.find(egress);
  if (it == ifaces_.end()) {
    metrics_.drop_no_route->inc();
    return;
  }
  if (!it->second.link->is_up()) {
    // Data-plane failure: tell the source (SCMP ExternalInterfaceDown).
    metrics_.scmp_errors_sent->inc();
    send_scmp_error(packet, make_external_iface_down(ia_, egress));
    return;
  }
  auto frame = FramePool::global().acquire();
  if (auto status = packet.serialize_into(frame->scion_bytes); !status.ok()) {
    metrics_.drop_malformed->inc();
    return;
  }
  metrics_.forwarded->inc();
  obs::FlightRecorder::global().record(
      obs::TraceType::kPacketHop, sim_.now(), sim_.executed_events(), name(),
      strformat("egress=%u", static_cast<unsigned>(egress)));
  it->second.link->send(it->second.side, frame);
}

void BorderRouter::answer_echo(const ScionPacket& request) {
  auto msg = ScmpMessage::parse(request.payload);
  if (!msg) return;
  ScionPacket reply = reverse_packet(request);
  reply.payload = make_echo_reply(msg.value()).serialize();
  metrics_.echo_replies->inc();
  // The reply's first hop names this AS; process it as a local injection.
  process(reply, /*arrival_iface=*/0, /*from_local=*/true);
}

void BorderRouter::send_scmp_error(const ScionPacket& offending,
                                   ScmpMessage error) {
  if (offending.next_hdr == kProtoScmp) {
    // Never answer SCMP errors with SCMP errors; echo requests are fine to
    // answer but errors about errors would loop.
    if (auto msg = ScmpMessage::parse(offending.payload);
        msg.ok() && msg->is_error()) {
      return;
    }
  }
  // Per-offender error budget: a flood tripping errors at line rate must
  // not amplify into an SCMP storm on the reverse path. stats().
  // scmp_errors_sent counts generation attempts; scmp_suppressed the
  // subset this budget dropped.
  if (config_.scmp_rate_pps > 0 && !scmp_budget_ok(offending.src.ia)) {
    metrics_.scmp_suppressed->inc();
    return;
  }
  obs::FlightRecorder::global().record(
      obs::TraceType::kScmpEmitted, sim_.now(), sim_.executed_events(), name(),
      scmp_type_name(error.type));
  ScionPacket reply = reverse_packet(offending);
  // The offending packet's pointer already advanced past this AS's hop;
  // position the reverse pointer on this AS's hop so the reply starts here.
  const std::size_t total = reply.path.num_hops();
  const std::size_t orig_hf = offending.path.curr_hf;
  if (orig_hf == 0 || orig_hf > total) return;
  reply.path.curr_hf = static_cast<std::uint8_t>(total - orig_hf);
  reply.path.curr_inf =
      static_cast<std::uint8_t>(reply.path.segment_of(reply.path.curr_hf));
  reply.next_hdr = kProtoScmp;
  reply.payload = error.serialize();
  process(reply, /*arrival_iface=*/0, /*from_local=*/true);
}

ScionPacket reverse_packet(const ScionPacket& packet) {
  ScionPacket reply;
  reply.traffic_class = packet.traffic_class;
  reply.flow_id = packet.flow_id;
  reply.next_hdr = packet.next_hdr;
  reply.path_type = packet.path_type;
  reply.dst = packet.src;
  reply.src = packet.dst;
  reply.path = packet.path.reversed();
  return reply;
}

}  // namespace sciera::dataplane
