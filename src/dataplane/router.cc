#include "dataplane/router.h"

#include <algorithm>

#include "common/check.h"
#include "dataplane/frame_pool.h"

namespace sciera::dataplane {
namespace {

// Time to cross the intra-AS fabric to a local host.
constexpr Duration kIntraAsDelay = 300 * kMicrosecond;

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

BorderRouter::Metrics BorderRouter::register_metrics(IsdAs ia) {
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
  Metrics metrics;
  metrics.forwarded = counter("sciera_router_forwarded_total");
  metrics.delivered = counter("sciera_router_delivered_total");
  metrics.injected = counter("sciera_router_injected_total");
  metrics.echo_replies = counter("sciera_router_echo_replies_total");
  metrics.scmp_errors_sent = counter("sciera_router_scmp_errors_total");
  metrics.drop_mac = dropped("mac");
  metrics.drop_expired = dropped("expired");
  metrics.drop_bad_ingress = dropped("bad_ingress");
  metrics.drop_no_route = dropped("no_route");
  metrics.drop_malformed = dropped("malformed");
  metrics.drop_offline = dropped("offline");
  metrics.crashes = counter("sciera_router_crashes_total");
  metrics.batches = counter("sciera_router_batches_total");
  metrics.batch_packets = counter("sciera_router_batch_packets_total");
  metrics.mac_cache_hits = counter("sciera_router_mac_cache_hits_total");
  metrics.mac_cache_misses = counter("sciera_router_mac_cache_misses_total");
  const auto admission_dropped = [&](const char* klass) {
    obs::Labels labels = base;
    labels.emplace_back("class", klass);
    return &registry.counter("sciera_router_admission_dropped_total", labels);
  };
  metrics.admission_dropped_data = admission_dropped("data");
  metrics.admission_dropped_control = admission_dropped("control");
  metrics.scmp_suppressed = &registry.counter(
      "sciera_scmp_suppressed_total", base);
  return metrics;
}

BorderRouter::BorderRouter(simnet::Simulator& sim, IsdAs ia, FwdKey fwd_key,
                           Config config)
    : Node("br-" + ia.to_string()),
      sim_(sim),
      ia_(ia),
      config_(config),
      metrics_(register_metrics(ia)),
      verifier_(fwd_key, *metrics_.mac_cache_hits, *metrics_.mac_cache_misses),
      trace_subject_(sim.recorder().intern(name())),
      data_bucket_{config_.admission.data_burst, 0} {}

void BorderRouter::crash() {
  if (!online_) return;
  online_ = false;
  metrics_.crashes->inc();
  sim_.trace(obs::TraceType::kChaosInject, trace_subject_,
             obs::TraceDetail::kRouterCrash);
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
  const Config::Admission& adm = config_.admission;
  // SCMP bypasses admission; data is unlimited at 0 pps, the default.
  if (packet.next_hdr == kProtoScmp || adm.data_pps <= 0) return true;
  if (take_token(data_bucket_, adm.data_pps, adm.data_burst, sim_.now())) {
    return true;
  }
  metrics_.admission_dropped_data->inc();
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
  return kUnixEpochAtSimZero +
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
    inject_scratch_ = packet;
    deliver_local(inject_scratch_);
    return {};
  }
  if (auto status = packet.path.validate(); !status.ok()) return status;
  metrics_.injected->inc();
  // process() consumes its packet in place; the caller keeps theirs.
  inject_scratch_ = packet;
  process(inject_scratch_, /*arrival_iface=*/0, /*from_local=*/true);
  return {};
}

void BorderRouter::receive(const simnet::Frame& frame,
                           const simnet::Arrival& arrival) {
  if (!online_) {
    // A crashed router is a silent blackhole: no SCMP, no forwarding —
    // the failure mode end hosts can only detect by timeout.
    metrics_.drop_offline->inc();
    return;
  }
  auto packet = ScionPacket::parse(frame.bytes);
  if (!packet) {
    metrics_.drop_malformed->inc();
    return;
  }
  if (!admit(packet.value())) return;
  process(packet.value(), arrival.local_iface, /*from_local=*/false);
}

void BorderRouter::receive_batch(std::span<const simnet::FramePtr> batch,
                                 const simnet::Arrival& arrival) {
  if (!config_.batched) {
    // Scalar referee mode: one receive() per frame, in order — exactly
    // the pre-batching behavior the equivalence suite compares against.
    for (const simnet::FramePtr& frame : batch) receive(*frame, arrival);
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
    if (!ScionPacket::parse_into(batch[i]->bytes, batch_scratch_[i]).ok()) {
      metrics_.drop_malformed->inc();
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
    if (!egress) return;
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
      // Echo requests to this AS are answered at the border, the usual
      // responder for infrastructure pings.
      if (packet.next_hdr == kProtoScmp) {
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

void BorderRouter::deliver_local(ScionPacket& packet) {
  metrics_.delivered->inc();
  if (!local_delivery_) return;
  // Every packet delivered in this AS passes here. It outlives the
  // scratch it was processed in, so it is swapped into a parked slot,
  // not copied; the event carries only the slot's index.
  const std::uint32_t slot = parked_.acquire();
  std::swap(parked_[slot], packet);
  sim_.schedule_after(kIntraAsDelay, [this, slot] {
    local_delivery_(parked_[slot], sim_.now());
    parked_.release(slot);
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
  if (auto status = packet.serialize_into(frame->bytes); !status.ok()) {
    metrics_.drop_malformed->inc();
    return;
  }
  metrics_.forwarded->inc();
  sim_.trace(obs::TraceType::kPacketHop, trace_subject_,
             obs::TraceDetail::kEgress, egress);
  it->second.link->send(it->second.side, std::move(frame));
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
  // not amplify into an SCMP storm on the reverse path. The
  // scmp_errors_sent cell counts generation attempts; scmp_suppressed the
  // subset this budget dropped.
  if (config_.scmp_rate_pps > 0 && !scmp_budget_ok(offending.src.ia)) {
    metrics_.scmp_suppressed->inc();
    return;
  }
  sim_.trace(obs::TraceType::kScmpEmitted, trace_subject_,
             obs::TraceDetail::kText,
             sim_.recorder().intern(scmp_type_name(error.type)));
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
