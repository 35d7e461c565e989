#include "controlplane/control_plane.h"

#include "common/log.h"
#include "obs/flight_recorder.h"

namespace sciera::controlplane {

ScionNetwork::ScionNetwork(topology::Topology topo, Options options)
    : topo_(std::move(topo)),
      options_(options),
      sim_(options_.scheduler),
      rng_(options.seed, "network") {
  auto& registry = obs::MetricsRegistry::global();
  metrics_label_ = registry.instance_label("network", "net");
  sim_.enable_metrics(metrics_label_);
  const obs::Labels base{{"network", metrics_label_}};
  beaconing_runs_ = &registry.counter("sciera_beaconing_runs_total", base);
  const auto segs = [&](const char* type) {
    obs::Labels labels = base;
    labels.emplace_back("type", type);
    return &registry.gauge("sciera_beaconing_segments", labels);
  };
  segments_up_ = segs("up");
  segments_core_ = segs("core");
  segments_down_ = segs("down");
  if (options_.healing.enabled) {
    healing_sweeps_ = &registry.counter("sciera_healing_sweeps_total", base);
    segments_expired_ =
        &registry.counter("sciera_segments_expired_total", base);
    segments_revoked_ =
        &registry.counter("sciera_segments_revoked_total", base);
    // Last measured reconvergence in ms; -1 until the first link-state
    // triggered sweep completes. (The registry holds integers, so the
    // metric is milliseconds rather than the fractional-seconds name the
    // literature uses — see DESIGN.md §10.)
    reconverge_ms_ = &registry.gauge("sciera_reconverge_ms", base);
    reconverge_ms_->set(-1);
  }

  // --- PKI: one IsdPki per ISD, enrolling every member AS.
  for (Isd isd : topo_.isds()) {
    auto cores = topo_.core_ases(isd);
    pkis_.emplace(isd, std::make_unique<cppki::IsdPki>(
                           isd, cores, sim_.now(), options_.trc_validity,
                           options_.seed ^ isd));
  }
  for (const auto& as_info : topo_.ases()) {
    const auto status = pkis_.at(as_info.ia.isd())->enroll(as_info.ia, 0);
    if (!status.ok()) {
      log_error("scion-net") << "enroll failed: " << status.error().to_string();
    }
  }

  // --- Forwarding keys: derived from per-AS master secrets.
  for (const auto& as_info : topo_.ases()) {
    Rng key_rng = rng_.fork("fwdkey-" + as_info.ia.to_string());
    Bytes secret(32);
    for (auto& b : secret) b = static_cast<std::uint8_t>(key_rng.next_u64());
    fwd_keys_.emplace(as_info.ia, dataplane::derive_fwd_key(secret));
  }

  build_data_plane();
  run_beaconing();
  start_healing();
}

void ScionNetwork::build_data_plane() {
  for (const auto& as_info : topo_.ases()) {
    routers_.emplace(as_info.ia,
                     std::make_unique<dataplane::BorderRouter>(
                         sim_, as_info.ia, fwd_keys_.at(as_info.ia),
                         options_.router));
  }
  for (const auto& link_info : topo_.links()) {
    simnet::LinkConfig cfg;
    cfg.propagation_delay = link_info.delay;
    cfg.bandwidth_bps = link_info.bandwidth_bps;
    cfg.jitter_sigma = options_.link_jitter_sigma;
    cfg.loss_probability = options_.link_loss_probability;
    cfg.encap_overhead_bytes = topology::encap_overhead(link_info.encap);
    auto link = std::make_unique<simnet::Link>(
        sim_, cfg, rng_.fork("link-" + link_info.label));
    link->set_label(link_info.label);
    link->attach(0, routers_.at(link_info.a).get(), link_info.a_iface);
    link->attach(1, routers_.at(link_info.b).get(), link_info.b_iface);
    routers_.at(link_info.a)->attach_iface(link_info.a_iface, link.get(), 0);
    routers_.at(link_info.b)->attach_iface(link_info.b_iface, link.get(), 1);
    links_.push_back(std::move(link));
  }
  for (const auto& as_info : topo_.ases()) {
    const IsdAs ia = as_info.ia;
    routers_.at(ia)->set_local_delivery(
        [this, ia](const dataplane::ScionPacket& packet, SimTime arrival) {
          dispatch_local(ia, packet, arrival);
        });
  }
}

void ScionNetwork::run_beaconing() {
  if (options_.healing.enabled) {
    // With healing on, a manual run is just an extra sweep of the same
    // machinery (live-link filter, expiry stamping, delta accounting).
    healing_sweep();
    return;
  }
  segments_ = beacon_with(options_.beaconing);
  for (auto& [ia, service] : services_) service->flush_caches();
  beaconing_runs_->inc();
  publish_segment_gauges();
  obs::FlightRecorder::global().record(
      obs::TraceType::kBeaconOriginated, sim_.now(), sim_.executed_events(),
      metrics_label_, "beaconing sweep",
      static_cast<std::int64_t>(segments_.size()));
}

void ScionNetwork::publish_segment_gauges() {
  segments_up_->set(static_cast<std::int64_t>(segments_.count(SegType::kUp)));
  segments_core_->set(
      static_cast<std::int64_t>(segments_.count(SegType::kCore)));
  segments_down_->set(
      static_cast<std::int64_t>(segments_.count(SegType::kDown)));
}

void ScionNetwork::start_healing() {
  if (!options_.healing.enabled) return;
  // Every link transition feeds the detection pipeline; detection delay
  // models keepalive/SCMP latency between the physical event and the
  // control plane noticing it.
  for (auto& link : links_) {
    link->set_on_state_change(
        [this](bool, SimTime at) { on_link_state_change(at); });
  }
  sim_.schedule_after(options_.healing.refresh_interval,
                      [this] { healing_tick(); });
}

void ScionNetwork::on_link_state_change(SimTime at) {
  if (!change_pending_) {
    // Coalesce a burst of transitions into one reconvergence episode,
    // clocked from the earliest change.
    change_pending_ = true;
    earliest_change_at_ = at;
  }
  sim_.schedule_after(options_.healing.detection_delay, [this] {
    // A sweep between scheduling and firing already absorbed this change.
    if (change_pending_) healing_sweep();
  });
}

void ScionNetwork::healing_tick() {
  healing_sweep();
  sim_.schedule_after(options_.healing.refresh_interval,
                      [this] { healing_tick(); });
}

void ScionNetwork::healing_sweep() {
  const auto link_up = [this](topology::LinkId id) {
    return id < links_.size() && links_[id]->is_up();
  };
  BeaconingOptions beacon_options = options_.beaconing;
  beacon_options.link_filter = link_up;
  const SegmentStore fresh = beacon_with(beacon_options);
  const SimTime now = sim_.now();
  const RefreshDelta delta = segments_.refresh(
      fresh, now, now + options_.healing.segment_lifetime, link_up);
  for (auto& [ia, service] : services_) service->flush_caches();
  beaconing_runs_->inc();
  healing_sweeps_->inc();
  segments_expired_->inc(delta.expired);
  segments_revoked_->inc(delta.revoked);
  publish_segment_gauges();
  // A pending link-state change settles only once the detection delay has
  // elapsed: a periodic sweep that lands at the very instant of the cut
  // may already revoke segments (re-origination over a dead circuit fails
  // immediately), but the control plane cannot claim to have *detected*
  // the event before its detection latency has passed.
  if (change_pending_ &&
      now >= earliest_change_at_ + options_.healing.detection_delay) {
    change_pending_ = false;
    const Duration took = now - earliest_change_at_;
    last_reconverge_ = took;
    if (took > max_reconverge_) max_reconverge_ = took;
    reconverge_ms_->set(took / kMillisecond);
  }
  obs::FlightRecorder::global().record(
      obs::TraceType::kBeaconOriginated, now, sim_.executed_events(),
      metrics_label_, "healing sweep",
      static_cast<std::int64_t>(segments_.size()));
}

HealingSnapshot ScionNetwork::healing_snapshot() const {
  HealingSnapshot snap;
  snap.sweeps = healing_sweeps_ != nullptr ? healing_sweeps_->value() : 0;
  snap.segments_expired =
      segments_expired_ != nullptr ? segments_expired_->value() : 0;
  snap.segments_revoked =
      segments_revoked_ != nullptr ? segments_revoked_->value() : 0;
  snap.last_reconverge = last_reconverge_;
  snap.max_reconverge = max_reconverge_;
  return snap;
}

SegmentStore ScionNetwork::beacon_with(const BeaconingOptions& options) const {
  std::map<Isd, cppki::IsdPki*> pki_view;
  for (const auto& [isd, pki] : pkis_) pki_view.emplace(isd, pki.get());
  Beaconing beaconing{topo_, pki_view, fwd_keys_};
  return beaconing.run(options);
}

cppki::IsdPki* ScionNetwork::pki(Isd isd) {
  const auto it = pkis_.find(isd);
  return it == pkis_.end() ? nullptr : it->second.get();
}

std::vector<Path> ScionNetwork::paths(IsdAs src, IsdAs dst,
                                      const CombinatorOptions& options) const {
  Combinator combinator{topo_, segments_};
  return combinator.combine(src, dst, options);
}

ControlService* ScionNetwork::control_service(IsdAs ia) {
  auto* set = control_service_set(ia);
  return set == nullptr ? nullptr : set->primary();
}

ControlServiceSet* ScionNetwork::control_service_set(IsdAs ia) {
  auto it = services_.find(ia);
  if (it == services_.end()) {
    if (topo_.find_as(ia) == nullptr) return nullptr;
    const auto* trc = &pkis_.at(ia.isd())->trc();
    const std::size_t replicas =
        options_.control_replicas < 1 ? 1 : options_.control_replicas;
    auto set = std::make_unique<ControlServiceSet>(sim_, ia, topo_, segments_,
                                                   trc, replicas);
    it = services_.emplace(ia, std::move(set)).first;
  }
  return it->second.get();
}

dataplane::BorderRouter* ScionNetwork::router(IsdAs ia) {
  const auto it = routers_.find(ia);
  return it == routers_.end() ? nullptr : it->second.get();
}

simnet::Link* ScionNetwork::link(topology::LinkId id) {
  return id < links_.size() ? links_[id].get() : nullptr;
}

simnet::Link* ScionNetwork::link(std::string_view label) {
  const auto* info = topo_.find_link_by_label(label);
  return info == nullptr ? nullptr : links_[info->id].get();
}

void ScionNetwork::set_link_up(std::string_view label, bool up) {
  if (auto* l = link(label)) l->set_up(up);
}

bool ScionNetwork::path_usable(const Path& path) const {
  for (topology::LinkId id : path.links) {
    if (id >= links_.size() || !links_[id]->is_up()) return false;
  }
  return true;
}

Status ScionNetwork::register_host(const dataplane::Address& addr,
                                   HostHandler handler) {
  if (topo_.find_as(addr.ia) == nullptr) {
    return Error{Errc::kNotFound, "unknown AS " + addr.ia.to_string()};
  }
  hosts_[{addr.ia.packed(), addr.host}] = std::move(handler);
  return {};
}

void ScionNetwork::unregister_host(const dataplane::Address& addr) {
  hosts_.erase({addr.ia.packed(), addr.host});
}

Status ScionNetwork::send_from_host(const dataplane::ScionPacket& packet) {
  auto* br = router(packet.src.ia);
  if (br == nullptr) {
    return Error{Errc::kNotFound, "no router for " + packet.src.ia.to_string()};
  }
  return br->inject(packet);
}

void ScionNetwork::dispatch_local(IsdAs ia,
                                  const dataplane::ScionPacket& packet,
                                  SimTime arrival) {
  const auto it = hosts_.find({packet.dst.ia.packed(), packet.dst.host});
  if (it == hosts_.end()) {
    log_debug("scion-net") << "no host " << packet.dst.to_string() << " in "
                           << ia.to_string();
    return;
  }
  it->second(packet, arrival);
}

std::size_t ScionNetwork::renew_certificates() {
  std::size_t renewed = 0;
  for (auto& [isd, pki] : pkis_) renewed += pki->renew_expiring(sim_.now());
  return renewed;
}

}  // namespace sciera::controlplane
