#include "workload/attack.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "endhost/lightning_filter.h"

namespace sciera::workload {

namespace {
// Source port stamped on hostile datagrams; victims demux on dst_port
// only, so the value is cosmetic but keeps the wire format honest.
constexpr std::uint16_t kAttackSrcPort = 51000;
// Fabricated ISD for spoofed-source floods — outside every topology this
// repo builds, so spoofed state can never alias a real AS's.
constexpr std::uint64_t kSpoofedIsd = 42;
}  // namespace

AttackMatrix::AttackMatrix(controlplane::ScionNetwork& net,
                           TrafficMatrix& victims, AttackConfig config)
    : net_(net),
      victims_(victims),
      config_(std::move(config)),
      rng_(config_.seed, "attack-matrix") {}

Status AttackMatrix::validate(const AttackBurst& burst) const {
  if (net_.topology().find_as(burst.source) == nullptr) {
    return Error{Errc::kNotFound,
                 "attack burst origin AS " + burst.source.to_string() +
                     " is not in the topology"};
  }
  if (burst.pps <= 0) {
    return Error{Errc::kInvalidArgument,
                 "attack burst rate must be positive, got " +
                     std::to_string(burst.pps)};
  }
  if (burst.duration <= 0) {
    return Error{Errc::kInvalidArgument,
                 "attack burst duration must be positive, got " +
                     std::to_string(burst.duration)};
  }
  if (burst.kind == AttackKind::kFlashCrowd && config_.filter_secret.empty()) {
    return Error{Errc::kInvalidArgument,
                 "flash-crowd burst needs a filter_secret to seal with"};
  }
  return {};
}

Status AttackMatrix::launch(const AttackBurst& burst) {
  if (auto status = validate(burst); !status.ok()) return status;
  // Victims: every workload host outside the origin AS (intra-AS floods
  // would bypass the inter-domain path the attack is meant to traverse).
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < victims_.host_count(); ++i) {
    if (victims_.host_address(i).ia != burst.source) pool.push_back(i);
  }
  if (pool.empty()) {
    return Error{Errc::kInvalidArgument,
                 "attack burst from " + burst.source.to_string() +
                     " has no victims outside the origin AS"};
  }
  dataplane::BorderRouter* router = net_.router(burst.source);
  if (router == nullptr) {
    return Error{Errc::kNotFound, "attack burst origin AS " +
                                      burst.source.to_string() +
                                      " has no border router"};
  }

  // Each burst draws from its own forked stream, keyed by launch ordinal:
  // replaying the same armed plan replays the same packet schedule.
  Rng rng = rng_.fork("burst-" + std::to_string(bursts_.size()));
  const bool surge = burst.kind == AttackKind::kFlashCrowd;

  // The payload is built once per burst: marker-filled body plus a
  // 16-byte authenticator — valid (sealed per origin AS) for a surge,
  // all-zero (never verifies) for a flood. Zero per-send crypto.
  Bytes data(std::max<std::size_t>(config_.payload_bytes, 1),
             surge ? kSurgeMarker : kAttackMarker);
  if (surge) {
    const endhost::LightningSealer sealer(config_.filter_secret,
                                          burst.source);
    const Bytes tag = sealer.seal(data);
    data.insert(data.end(), tag.begin(), tag.end());
  } else {
    data.insert(data.end(), 16, std::uint8_t{0});
  }

  auto& sim = net_.sim();
  Burst& b = bursts_.emplace_back();
  b.kind = burst.kind;
  b.source = burst.source;
  b.router = router;
  b.pool = std::move(pool);
  b.mean_gap = static_cast<double>(kSecond) / burst.pps;
  b.end = sim.now() + burst.duration;
  b.rng = rng;
  b.at = sim.now();
  b.packet.payload =
      dataplane::UdpDatagram{kAttackSrcPort, kWorkloadPort, std::move(data)}
          .serialize();

  // Walk the whole schedule once to count the sends, resolving each
  // victim AS's path on first sight — the network state the compromised
  // sender sees when it starts flooding. Then rewind and reserve one
  // sequence number per send.
  std::uint64_t sends = 0;
  while (draw_send(b, &report_.send_failures)) ++sends;
  b.rng = rng;
  b.at = sim.now();
  b.first_seq = sim.reserve_sequence(sends);
  if (draw_send(b)) place(b);
  return {};
}

bool AttackMatrix::draw_send(Burst& burst, std::uint64_t* no_path) {
  for (;;) {
    burst.at +=
        1 + static_cast<Duration>(burst.rng.exponential(burst.mean_gap));
    if (burst.at >= burst.end) return false;
    const dataplane::Address& dst = victims_.host_address(
        burst.pool[burst.rng.next_below(burst.pool.size())]);
    auto it = burst.path_by_as.find(dst.ia);
    if (it == burst.path_by_as.end()) {
      auto paths = net_.paths(burst.source, dst.ia);
      std::optional<dataplane::ScionPath> path;
      if (!paths.empty()) path = std::move(paths.front().dataplane_path);
      it = burst.path_by_as.emplace(dst.ia, std::move(path)).first;
    }
    if (it->second) {
      burst.packet.dst = dst;
      burst.packet.path = *it->second;
      return true;
    }
    if (no_path != nullptr) ++*no_path;
  }
}

void AttackMatrix::place(Burst& burst) {
  net_.sim().schedule_reserved(burst.at, burst.first_seq + burst.sent,
                               [this, &burst] { fire(burst); });
}

void AttackMatrix::fire(Burst& burst) {
  dataplane::ScionPacket& packet = burst.packet;
  switch (burst.kind) {
    case AttackKind::kForgedFlood:
    case AttackKind::kFlashCrowd:
      // Compromised hosts inside the origin AS, a small rotating fleet.
      packet.src = {burst.source,
                    static_cast<std::uint32_t>(0xAA000000 + burst.sent % 64)};
      break;
    case AttackKind::kSpoofedFlood:
      // Fabricated origin AS per packet: routers never validate the
      // source address, so each one lands as a fresh "source AS" at the
      // victim's filter — the table-exhaustion vector.
      packet.src = {IsdAs::from_packed((kSpoofedIsd << 48) | burst.sent),
                    0xAA000001};
      break;
  }
  ++burst.sent;
  if (!burst.router->inject(packet).ok()) {
    ++report_.send_failures;
  } else {
    ++(burst.kind == AttackKind::kFlashCrowd ? report_.surge_sent
                                             : report_.attack_sent);
  }
  if (draw_send(burst)) place(burst);
}

}  // namespace sciera::workload
