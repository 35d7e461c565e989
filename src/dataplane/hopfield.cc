#include "dataplane/hopfield.h"

#include <map>

#include "common/check.h"
#include "crypto/hmac.h"

namespace sciera::dataplane {
namespace {

// One 16-byte input block, zero padded: beta | ts | exp | in | out.
std::array<std::uint8_t, 16> mac_input_block(std::uint16_t beta,
                                             std::uint32_t timestamp,
                                             const HopField& hop) {
  std::array<std::uint8_t, 16> block{};
  block[0] = static_cast<std::uint8_t>(beta >> 8);
  block[1] = static_cast<std::uint8_t>(beta);
  for (int i = 0; i < 4; ++i) {
    block[2 + i] = static_cast<std::uint8_t>(timestamp >> (24 - 8 * i));
  }
  block[6] = hop.exp_time;
  block[7] = static_cast<std::uint8_t>(hop.cons_ingress >> 8);
  block[8] = static_cast<std::uint8_t>(hop.cons_ingress);
  block[9] = static_cast<std::uint8_t>(hop.cons_egress >> 8);
  block[10] = static_cast<std::uint8_t>(hop.cons_egress);
  // The peering flag changes chaining semantics, so it must be covered.
  block[11] = hop.peering ? 1 : 0;
  return block;
}

Mac6 truncate_mac(const crypto::AesCmac::Mac& full) {
  Mac6 mac{};
  std::copy_n(full.begin(), mac.size(), mac.begin());
  return mac;
}

// FNV-1a over the input block — the cache index. Any fixed hash works;
// FNV keeps slot choice identical across runs and platforms.
std::size_t block_slot(const std::array<std::uint8_t, 16>& block,
                       std::size_t mask) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : block) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h) & mask;
}

// Per-key contexts backing the free-function entry points (beacon
// construction, tests). Ordered by key bytes for deterministic lifetime;
// bounded by clear-on-full — cardinality is one key per AS, far below
// the cap, so the clear is a safety valve, not a steady-state event.
crypto::AesCmac& context_for(const FwdKey& key) {
  static std::map<FwdKey, crypto::AesCmac> contexts;
  constexpr std::size_t kMaxContexts = 1024;
  auto it = contexts.find(key);
  if (it == contexts.end()) {
    if (contexts.size() >= kMaxContexts) contexts.clear();
    // The fix: one key schedule per distinct key, where this previously
    // ran once per packet.
    it = contexts
             .emplace(key,
                      crypto::AesCmac{key})  // NOLINT(percall-keyschedule) fill-once per key, not per packet
             .first;
  }
  return it->second;
}

}  // namespace

FwdKey derive_fwd_key(BytesView as_master_secret) {
  const auto digest =
      crypto::derive_key(as_master_secret, "scion-forwarding-key-v1");
  FwdKey key{};
  SCIERA_CHECK(digest.size() >= key.size(), "dataplane.fwd_key_derivation");
  std::copy_n(digest.begin(), key.size(), key.begin());
  return key;
}

HopVerifier::HopVerifier(const FwdKey& key, Config config,
                         obs::Counter& hits, obs::Counter& misses)
    : key_(key), config_(config), cmac_(key), hits_(hits), misses_(misses) {
  if (config_.cache_entries > 0) {
    SCIERA_CHECK((config_.cache_entries & (config_.cache_entries - 1)) == 0,
                 "dataplane.mac_cache_pow2");
    cache_.resize(config_.cache_entries);
  }
}

void HopVerifier::rekey(const FwdKey& key) {
  key_ = key;
  cmac_ = crypto::AesCmac{key};  // NOLINT(percall-keyschedule) one schedule per rollover
  for (CacheEntry& entry : cache_) entry.valid = false;
}

Mac6 HopVerifier::compute(std::uint16_t beta, std::uint32_t timestamp,
                          const HopField& hop) {
  const auto block = mac_input_block(beta, timestamp, hop);
  if (cache_.empty()) return truncate_mac(cmac_.compute(block));
  CacheEntry& entry = cache_[block_slot(block, cache_.size() - 1)];
  if (entry.valid && entry.block == block) {
    hits_.inc();
    return entry.mac;
  }
  misses_.inc();
  entry.block = block;
  entry.mac = truncate_mac(cmac_.compute(block));
  entry.valid = true;
  return entry.mac;
}

bool HopVerifier::verify(std::uint16_t beta, std::uint32_t timestamp,
                         const HopField& hop) {
  const Mac6 expected = compute(beta, timestamp, hop);
  const bool ok = crypto::constant_time_equal(
      BytesView{expected.data(), expected.size()},
      BytesView{hop.mac.data(), hop.mac.size()});
  // Adversary-driven, so non-fatal — but audited: campaigns compare this
  // counter against router drop stats to prove the MAC chain held.
  if (!ok) count_violation("dataplane.hop_mac_mismatch");
  return ok;
}

Mac6 compute_hop_mac(const FwdKey& key, std::uint16_t beta,
                     std::uint32_t timestamp, const HopField& hop) {
  return truncate_mac(
      context_for(key).compute(mac_input_block(beta, timestamp, hop)));
}

bool verify_hop_mac(const FwdKey& key, std::uint16_t beta,
                    std::uint32_t timestamp, const HopField& hop) {
  const Mac6 expected = compute_hop_mac(key, beta, timestamp, hop);
  const bool ok = crypto::constant_time_equal(
      BytesView{expected.data(), expected.size()},
      BytesView{hop.mac.data(), hop.mac.size()});
  if (!ok) count_violation("dataplane.hop_mac_mismatch");
  return ok;
}

std::uint16_t chain_beta(std::uint16_t beta, const Mac6& mac) {
  return beta ^ static_cast<std::uint16_t>((mac[0] << 8) | mac[1]);
}

bool hop_expired(const HopField& hop, std::uint32_t segment_ts,
                 std::uint32_t now_unix) {
  const std::uint32_t ttl =
      (static_cast<std::uint32_t>(hop.exp_time) + 1) * 86400 / 256;
  return now_unix > segment_ts + ttl;
}

}  // namespace sciera::dataplane
