// LightningFilter (Sections 4.7.1, 4.9): the line-rate SCION firewall in
// front of a Science-DMZ transfer node. It authenticates SCION traffic
// with per-source-AS symmetric keys (DRKey-style derivation from the
// filter's secret), enforces AS-level allow rules and per-AS rate limits,
// and — because each packet check is one CMAC — scales linearly over
// cores with RSS, unlike a single-queue appliance.
//
// Fast path: the per-source verification context (AES key schedule +
// CMAC subkeys) is derived once when a source AS first appears and cached
// in the bounded per-source table, mirroring the border router's
// HopVerifier — steady-state checks run zero key schedules
// (crypto::Aes128::key_schedules_run() is the exactness probe). The
// table is capped: a spoofed-source flood that fabricates source ASes
// can fill it, after which idle entries are reclaimed and — when nothing
// is reclaimable — new sources are dropped with kDropOverflow before any
// crypto runs.
#pragma once

#include <limits>
#include <map>
#include <optional>

#include "common/time.h"
#include "crypto/cmac.h"
#include "dataplane/packet.h"
#include "obs/metrics.h"

namespace sciera::endhost {

// DRKey-style per-source-AS key derived from a deployment's filter
// secret. The sender-side helper (LightningSealer) and the filter derive
// the same key; in the real system the sender fetches it via DRKey.
[[nodiscard]] crypto::Aes128::Key lightning_key(BytesView filter_secret,
                                                IsdAs src);

// Sender-side authenticator context: one key schedule at construction,
// zero per-packet. Hosts that seal every payload (the attack-soak
// workload) hold one sealer per source AS.
class LightningSealer {
 public:
  LightningSealer(BytesView filter_secret, IsdAs src);

  [[nodiscard]] IsdAs source() const { return src_; }
  // 16-byte authenticator over `payload`; the sender appends it.
  [[nodiscard]] Bytes seal(BytesView payload) const;

 private:
  IsdAs src_;
  crypto::AesCmac cmac_;
};

class LightningFilter {
 public:
  struct Config {
    bool require_auth = true;
    // Default-deny when rules are present; empty rules = allow all.
    std::vector<IsdAs> allowed_sources;
    // Per-source-AS token bucket (packets/second, burst).
    double rate_pps = 0;  // 0 = unlimited
    double burst = 1000;
    // Bound on the per-source state table (cached verification context +
    // token bucket per source AS). 0 = unbounded (legacy behaviour).
    std::size_t max_sources = 4096;
    // A source idle this long is reclaimable when the table is full.
    Duration idle_timeout = 10 * kSecond;
  };

  enum class Verdict { kAccept, kDropRule, kDropAuth, kDropRate,
                       kDropOverflow };

  LightningFilter(BytesView filter_secret, Config config);
  LightningFilter(BytesView filter_secret)
      : LightningFilter(filter_secret, Config{}) {}

  // Registry cells, one per verdict, registered at construction.
  struct Metrics {
    obs::Counter* accepted = nullptr;
    obs::Counter* dropped_rule = nullptr;
    obs::Counter* dropped_auth = nullptr;
    obs::Counter* dropped_rate = nullptr;
    obs::Counter* dropped_overflow = nullptr;
  };

  // DRKey-style key for a source AS (== lightning_key(secret, src)).
  [[nodiscard]] crypto::Aes128::Key key_for(IsdAs src) const;

  // Authenticator a sender attaches to its payload. Convenience for
  // tests/examples; per-packet senders hold a LightningSealer instead.
  [[nodiscard]] Bytes make_authenticator(IsdAs src, BytesView payload) const;

  // Checks one packet whose payload ends with a 16-byte authenticator.
  Verdict check(const dataplane::ScionPacket& packet, SimTime now);
  // In-path form: checks an L4 payload (UDP datagram data) from `src`
  // ending with a 16-byte authenticator. The host stack calls this in
  // front of the dispatcher/port demux.
  Verdict check(IsdAs src, BytesView payload, SimTime now);

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  // Live per-source table size (bounded by Config::max_sources).
  [[nodiscard]] std::size_t source_count() const { return sources_.size(); }

  // Aggregate filtering throughput in bit/s for a packet size, with or
  // without RSS spreading flows across cores (the Section 4.8 contrast).
  [[nodiscard]] double throughput_bps(std::size_t packet_bytes,
                                      bool rss) const;

 private:
  struct Bucket {
    double tokens = 0;
    SimTime last = 0;
  };
  // Everything the filter keeps per source AS: the cached CMAC
  // verification context (the expensive part — one key schedule at
  // admission, zero afterwards), the rate bucket, and reclamation
  // bookkeeping.
  struct SourceState {
    crypto::AesCmac cmac;
    Bucket bucket;
    SimTime last_seen = 0;
    // A source that never produced a valid authenticator is reclaimed
    // first — spoofed flood residue before paying customers.
    bool authenticated = false;
  };

  // Looks up (or admits) the per-source state. Returns nullptr when the
  // table is full and nothing is reclaimable — the kDropOverflow path,
  // taken before any key derivation runs.
  [[nodiscard]] SourceState* source_state(IsdAs src, SimTime now);
  // Erases idle entries (never-authenticated first); returns true if at
  // least one slot was freed.
  bool reclaim(SimTime now);
  // Records that a source was seen at `now`.
  void touch(SourceState& state, SimTime now);

  Bytes secret_;
  Config config_;
  Metrics metrics_;
  // Ordered by packed ISD-AS: reclamation sweeps iterate, and hash order
  // must not leak into which source is reclaimed first.
  std::map<std::uint64_t, SourceState> sources_;
  // A lower bound on the earliest time any entry turns idle (the least
  // last_seen + idle_timeout), so a full table under a flood of unseen
  // sources is not walked before anything can be reclaimed. Every touch
  // lowers it when needed, and a walk that frees nothing makes it exact.
  SimTime earliest_idle_ = std::numeric_limits<SimTime>::max();
};

}  // namespace sciera::endhost
