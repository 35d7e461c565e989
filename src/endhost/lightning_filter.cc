#include "endhost/lightning_filter.h"

#include <algorithm>

#include "crypto/hmac.h"

namespace sciera::endhost {

crypto::Aes128::Key lightning_key(BytesView filter_secret, IsdAs src) {
  Writer w;
  w.str("lightning-drkey-v1");
  w.u64(src.packed());
  Bytes input{filter_secret.begin(), filter_secret.end()};
  const Bytes label = std::move(w).take();
  const auto digest = crypto::hmac_sha256(input, label);
  crypto::Aes128::Key key{};
  std::copy_n(digest.begin(), key.size(), key.begin());
  return key;
}

LightningSealer::LightningSealer(BytesView filter_secret, IsdAs src)
    : src_(src),
      // NOLINTNEXTLINE(percall-keyschedule) once per sealer, not per packet
      cmac_(lightning_key(filter_secret, src)) {}

Bytes LightningSealer::seal(BytesView payload) const {
  const auto mac = cmac_.compute(payload);
  return Bytes{mac.begin(), mac.end()};
}

LightningFilter::LightningFilter(BytesView filter_secret, Config config)
    : secret_(filter_secret.begin(), filter_secret.end()),
      config_(std::move(config)) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{
      {"filter", registry.instance_label("lightning_filter", "lf")}};
  metrics_.accepted = &registry.counter("sciera_filter_accepted_total", base);
  const auto dropped = [&](const char* reason) {
    obs::Labels labels = base;
    labels.emplace_back("reason", reason);
    return &registry.counter("sciera_filter_dropped_total", labels);
  };
  metrics_.dropped_rule = dropped("rule");
  metrics_.dropped_auth = dropped("auth");
  metrics_.dropped_rate = dropped("rate");
  metrics_.dropped_overflow = dropped("overflow");
}

crypto::Aes128::Key LightningFilter::key_for(IsdAs src) const {
  return lightning_key(secret_, src);
}

Bytes LightningFilter::make_authenticator(IsdAs src, BytesView payload) const {
  return LightningSealer{secret_, src}.seal(payload);
}

bool LightningFilter::reclaim(SimTime now) {
  if (now < earliest_idle_) return false;  // nothing can be idle yet
  // Two ordered passes: first the sources that never authenticated (a
  // spoofed flood's residue), then any idle source. Ordered iteration so
  // which entry goes first is a pure function of the table's contents.
  bool freed = false;
  for (const bool authenticated_too : {false, true}) {
    for (auto it = sources_.begin(); it != sources_.end();) {
      const bool idle = it->second.last_seen + config_.idle_timeout <= now;
      if (idle && (authenticated_too || !it->second.authenticated)) {
        it = sources_.erase(it);
        freed = true;
      } else {
        ++it;
      }
    }
    if (freed) return true;
  }
  // Nothing was idle: every entry turns idle later, the first of them at
  // the least last_seen + idle_timeout.
  earliest_idle_ = std::numeric_limits<SimTime>::max();
  for (const auto& [key, state] : sources_) {
    earliest_idle_ =
        std::min(earliest_idle_, state.last_seen + config_.idle_timeout);
  }
  return false;
}

void LightningFilter::touch(SourceState& state, SimTime now) {
  state.last_seen = now;
  // A clock that steps backwards can make this entry the earliest.
  earliest_idle_ = std::min(earliest_idle_, now + config_.idle_timeout);
}

LightningFilter::SourceState* LightningFilter::source_state(IsdAs src,
                                                            SimTime now) {
  const std::uint64_t key = src.packed();
  const auto it = sources_.find(key);
  if (it != sources_.end()) {
    touch(it->second, now);
    return &it->second;
  }
  if (config_.max_sources > 0 && sources_.size() >= config_.max_sources &&
      !reclaim(now)) {
    return nullptr;  // table full of live sources: overflow drop
  }
  // Admission of a new source AS is the one place the key schedule runs:
  // bounded by max_sources, never per packet.
  auto inserted = sources_.emplace(
      key,
      // NOLINTNEXTLINE(percall-keyschedule) once per admitted source AS
      SourceState{crypto::AesCmac{key_for(src)}, Bucket{}, now, false});
  SourceState& state = inserted.first->second;
  touch(state, now);
  return &state;
}

LightningFilter::Verdict LightningFilter::check(
    const dataplane::ScionPacket& packet, SimTime now) {
  return check(packet.src.ia, packet.payload, now);
}

LightningFilter::Verdict LightningFilter::check(IsdAs src, BytesView payload,
                                                SimTime now) {
  // AS-level allow rule — no per-source state for rule-dropped traffic.
  if (!config_.allowed_sources.empty() &&
      std::find(config_.allowed_sources.begin(),
                config_.allowed_sources.end(),
                src) == config_.allowed_sources.end()) {
    metrics_.dropped_rule->inc();
    return Verdict::kDropRule;
  }
  SourceState* state = source_state(src, now);
  if (state == nullptr) {
    metrics_.dropped_overflow->inc();
    return Verdict::kDropOverflow;
  }
  // Authentication: payload must end with a valid 16-byte CMAC, verified
  // against the cached per-source context.
  if (config_.require_auth) {
    if (payload.size() < 16) {
      metrics_.dropped_auth->inc();
      return Verdict::kDropAuth;
    }
    const BytesView body{payload.data(), payload.size() - 16};
    const BytesView tag{payload.data() + payload.size() - 16, 16};
    if (!state->cmac.verify(body, tag)) {
      metrics_.dropped_auth->inc();
      return Verdict::kDropAuth;
    }
    state->authenticated = true;
  }
  // Per-source rate limit (token bucket).
  if (config_.rate_pps > 0) {
    Bucket& bucket = state->bucket;
    const double elapsed =
        static_cast<double>(now - bucket.last) / static_cast<double>(kSecond);
    bucket.tokens = std::min(config_.burst,
                             bucket.tokens + elapsed * config_.rate_pps);
    bucket.last = now;
    if (bucket.tokens < 1.0) {
      metrics_.dropped_rate->inc();
      return Verdict::kDropRate;
    }
    bucket.tokens -= 1.0;
  }
  metrics_.accepted->inc();
  return Verdict::kAccept;
}

double LightningFilter::throughput_bps(std::size_t packet_bytes,
                                       bool rss) const {
  constexpr int kCores = 8;
  constexpr double kPerCorePps = 3'000'000;  // DPDK per-core CMAC check rate
  const double cores = rss ? kCores : 1;
  return kPerCorePps * cores * static_cast<double>(packet_bytes) * 8.0;
}

}  // namespace sciera::endhost
