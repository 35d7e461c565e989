#include "workload/attack.h"

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
  Rng rng = rng_.fork("burst-" + std::to_string(bursts_launched_++));
  const bool surge = burst.kind == AttackKind::kFlashCrowd;

  // The payload is built once per burst: marker-filled body plus a
  // 16-byte authenticator — valid (sealed per origin AS) for a surge,
  // all-zero (never verifies) for a flood. Zero per-send crypto.
  Bytes data(config_.payload_bytes, surge ? kSurgeMarker : kAttackMarker);
  if (data.empty()) data.push_back(surge ? kSurgeMarker : kAttackMarker);
  if (surge) {
    const endhost::LightningSealer sealer(config_.filter_secret,
                                          burst.source);
    const Bytes tag = sealer.seal(data);
    data.insert(data.end(), tag.begin(), tag.end());
  } else {
    data.insert(data.end(), 16, std::uint8_t{0});
  }

  auto& sim = net_.sim();
  const SimTime start = sim.now();
  const SimTime end = start + burst.duration;
  const double mean = static_cast<double>(kSecond) / burst.pps;
  // Paths are resolved once per victim AS at launch time — the network
  // state the compromised sender would see when it starts flooding.
  std::map<IsdAs, dataplane::ScionPath> path_by_as;
  std::uint64_t sequence = 0;
  SimTime t = start;
  for (;;) {
    t += 1 + static_cast<Duration>(rng.exponential(mean));
    if (t >= end) break;
    const std::size_t victim = pool[rng.next_below(pool.size())];
    const dataplane::Address dst = victims_.host_address(victim);
    auto it = path_by_as.find(dst.ia);
    if (it == path_by_as.end()) {
      auto paths = net_.paths(burst.source, dst.ia);
      if (paths.empty()) {
        ++report_.send_failures;
        continue;
      }
      it = path_by_as.emplace(dst.ia, paths.front().dataplane_path).first;
    }
    dataplane::ScionPacket packet;
    packet.dst = dst;
    packet.path = it->second;
    packet.payload =
        dataplane::UdpDatagram{kAttackSrcPort, kWorkloadPort, data}
            .serialize();
    switch (burst.kind) {
      case AttackKind::kForgedFlood:
      case AttackKind::kFlashCrowd:
        // Compromised hosts inside the origin AS, a small rotating fleet.
        packet.src = {burst.source,
                      static_cast<std::uint32_t>(0xAA000000 + sequence % 64)};
        break;
      case AttackKind::kSpoofedFlood:
        // Fabricated origin AS per packet: routers never validate the
        // source address, so each one lands as a fresh "source AS" at the
        // victim's filter — the table-exhaustion vector.
        packet.src = {IsdAs::from_packed((kSpoofedIsd << 48) | sequence),
                      0xAA000001};
        break;
    }
    ++sequence;
    schedule_send(t, router, std::move(packet), surge);
  }
  return {};
}

void AttackMatrix::schedule_send(SimTime at, dataplane::BorderRouter* router,
                                 dataplane::ScionPacket packet, bool surge) {
  net_.sim().schedule(at, [this, router, packet = std::move(packet), surge] {
    if (!router->inject(packet).ok()) {
      ++report_.send_failures;
      return;
    }
    ++(surge ? report_.surge_sent : report_.attack_sent);
  });
}

}  // namespace sciera::workload
