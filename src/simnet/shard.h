// Shard identity for the parallel simulation core. The network partitions
// along its natural isolation boundaries — per-AS or per-ISD, exactly the
// structure the SCION architecture already draws — and every partition
// ("shard") owns a private event queue. A `Domain` names the shard an
// event belongs to; `ShardMap` is the deterministic IsdAs -> Domain
// assignment the control plane builds once at construction.
//
// Determinism contract: the partition is a pure function of the *set* of
// ASes (sorted before assignment) and the shard count, never of container
// iteration order or pointer values, so the same topology always yields
// the same shard layout and therefore the same per-shard event schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/isd_as.h"

namespace sciera::simnet {

using ShardId = std::uint32_t;

// A scheduling domain: either one shard of the partitioned network, the
// global domain (control-plane machinery that spans shards: chaos
// injection, healing sweeps, beacon timers), or "current" — whatever
// domain the presently executing event belongs to (global when no event
// is executing). Plain value type; pass by value.
class Domain {
 public:
  static constexpr ShardId kGlobalId = 0xFFFFFFFFu;
  static constexpr ShardId kCurrentId = 0xFFFFFFFEu;

  constexpr Domain() = default;  // global

  [[nodiscard]] static constexpr Domain global() { return Domain{kGlobalId}; }
  [[nodiscard]] static constexpr Domain shard(ShardId id) {
    return Domain{id};
  }
  [[nodiscard]] static constexpr Domain current() {
    return Domain{kCurrentId};
  }

  [[nodiscard]] constexpr bool is_global() const { return id_ == kGlobalId; }
  [[nodiscard]] constexpr bool is_current() const { return id_ == kCurrentId; }
  [[nodiscard]] constexpr bool is_shard() const {
    return id_ < kCurrentId;
  }
  // Valid only when is_shard().
  [[nodiscard]] constexpr ShardId id() const { return id_; }

  friend constexpr bool operator==(Domain, Domain) = default;

 private:
  explicit constexpr Domain(ShardId id) : id_(id) {}
  ShardId id_ = kGlobalId;
};

// How the AS set folds into shards. kPerAs spreads individual ASes
// round-robin (finest grain, best load balance); kPerIsd keeps each
// isolation domain intact on one shard (intra-ISD links never cross a
// shard boundary, so only long-haul inter-ISD latency bounds the
// synchronization window).
enum class ShardPolicy : std::uint8_t { kPerAs, kPerIsd };

// Deterministic IsdAs -> Domain partition. Built once from the topology's
// AS list; lookups are binary searches over a sorted table.
class ShardMap {
 public:
  // Single-shard map: every AS lands on shard 0.
  ShardMap() = default;

  // Partitions `ases` (deduplicated, sorted internally) into
  // min(shard_count, #keys) shards under `policy`. A shard_count of 0 is
  // treated as 1.
  ShardMap(std::vector<IsdAs> ases, std::size_t shard_count,
           ShardPolicy policy);

  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  [[nodiscard]] ShardPolicy policy() const { return policy_; }

  // Domain of an AS. Unknown ASes map to the global domain — they were
  // not part of the partition, so no shard owns their events.
  [[nodiscard]] Domain domain_of(IsdAs ia) const;

 private:
  std::vector<std::pair<IsdAs, ShardId>> table_;  // sorted by IsdAs
  std::size_t shard_count_ = 1;
  ShardPolicy policy_ = ShardPolicy::kPerAs;
};

}  // namespace sciera::simnet
