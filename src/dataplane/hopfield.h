// Hop-field MAC computation and chaining (the SCION data-plane security
// core). Each AS derives a forwarding key from its master secret; border
// routers verify every packet's current hop field with one AES-CMAC — an
// "efficient symmetric cryptographic operation" (Section 2).
//
// Chaining: beta_{i+1} = beta_i XOR mac_i[0:2]. A segment's info field
// carries the accumulator (seg_id); traversal against construction
// direction first un-chains (XOR) and then verifies, traversal along
// construction direction verifies and then chains.
//
// Fast path: the AES key schedule plus CMAC subkey derivation is the
// expensive part of a hop MAC, and the forwarding key changes once per
// AS lifetime, not once per packet. HopVerifier keeps the expanded
// context per key; the free functions below route through a bounded
// per-key context cache so control-plane callers (beaconing) get the
// same reuse without holding a verifier. RouterFastPath.* in
// tests/router_alloc_test.cc holds a warm router to exactly zero key
// schedules and zero allocations per batch.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/cmac.h"
#include "dataplane/packet.h"
#include "obs/metrics.h"

namespace sciera::dataplane {

using FwdKey = crypto::Aes128::Key;

// Derives an AS forwarding key from a master secret.
[[nodiscard]] FwdKey derive_fwd_key(BytesView as_master_secret);

// Cached hop-MAC context for one forwarding key. The AES key schedule
// and CMAC subkeys are derived once at construction (or rekey()) and
// reused for every packet; on top sits an optional direct-mapped cache
// of finished MACs keyed by the 16-byte MAC input block. Each lookup
// counts once, into the hit and miss cells its owner hands the
// constructor (the border router's registry counters).
//
// Determinism contract: the cache is pure memoization of a
// deterministic function — a hit returns the bit-identical MAC a miss
// would compute, so caching is invisible to drop decisions and to the
// schedule digest. Eviction is overwrite-on-index-collision: strictly
// size-bounded, no clocks, no recency ordering, identical across runs.
class HopVerifier {
 public:
  struct Config {
    // Direct-mapped MAC-cache slots (power of two; 0 disables caching).
    std::size_t cache_entries = 1024;
  };

  HopVerifier(const FwdKey& key, Config config, obs::Counter& hits,
              obs::Counter& misses);
  HopVerifier(const FwdKey& key, obs::Counter& hits, obs::Counter& misses)
      : HopVerifier(key, Config{}, hits, misses) {}

  // Key rollover: one fresh schedule, and every cached MAC is dropped —
  // entries minted under the old key must not survive the new one.
  void rekey(const FwdKey& key);

  [[nodiscard]] const FwdKey& key() const { return key_; }

  // MAC over (beta, timestamp, exp_time, cons_ingress, cons_egress).
  [[nodiscard]] Mac6 compute(std::uint16_t beta, std::uint32_t timestamp,
                             const HopField& hop);

  // compute() + constant-time compare against hop.mac; counts the
  // dataplane.hop_mac_mismatch violation on failure.
  [[nodiscard]] bool verify(std::uint16_t beta, std::uint32_t timestamp,
                            const HopField& hop);

 private:
  struct CacheEntry {
    std::array<std::uint8_t, 16> block{};
    Mac6 mac{};
    bool valid = false;
  };

  FwdKey key_;
  Config config_;
  crypto::AesCmac cmac_;
  std::vector<CacheEntry> cache_;
  obs::Counter& hits_;
  obs::Counter& misses_;
};

// MAC over (beta, timestamp, exp_time, cons_ingress, cons_egress).
// Routed through a process-wide per-key context cache: one key schedule
// per distinct key, not per call.
[[nodiscard]] Mac6 compute_hop_mac(const FwdKey& key, std::uint16_t beta,
                                   std::uint32_t timestamp,
                                   const HopField& hop);

[[nodiscard]] bool verify_hop_mac(const FwdKey& key, std::uint16_t beta,
                                  std::uint32_t timestamp,
                                  const HopField& hop);

// beta update applied when moving past a hop in construction direction.
[[nodiscard]] std::uint16_t chain_beta(std::uint16_t beta, const Mac6& mac);

// Hop-field expiry: exp_time encodes a relative expiry of
// (exp_time + 1) * 24h/256 after the segment timestamp.
[[nodiscard]] bool hop_expired(const HopField& hop, std::uint32_t segment_ts,
                               std::uint32_t now_unix);

}  // namespace sciera::dataplane
