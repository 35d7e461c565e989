// Deterministic adversarial traffic generator: the hostile counterpart of
// TrafficMatrix. An AttackMatrix aims bursts of attack traffic at the
// workload's hosts — forged-MAC floods from a compromised AS, spoofed-
// source floods that fabricate source ASes, and legitimate flash-crowd
// surges that carry valid authenticators — so the chaos soak can measure
// how much legitimate delivery survives while defenses absorb the rest.
//
// Every burst is armed through the chaos engine like any other fault:
// validated up front, scheduled from one forked Rng stream, and replayed
// byte-identically for a given seed. Attack sends are injected at the
// origin AS's border router, exactly where a compromised host fleet would
// sit.
//
// Traffic classes are told apart end to end by the first payload byte:
// legitimate workload packets carry kLegitMarker, flash-crowd surges
// kSurgeMarker (valid authenticator), floods kAttackMarker (garbage
// authenticator). The markers let one delivery callback split legitimate
// from hostile traffic without any side channel.
#pragma once

#include <map>

#include "controlplane/control_plane.h"
#include "workload/workload.h"

namespace sciera::workload {

// Flash-crowd surges authenticate like legitimate senders; floods carry
// deliberately invalid authenticators (all-zero tags).
inline constexpr std::uint8_t kSurgeMarker = 0xB5;
inline constexpr std::uint8_t kAttackMarker = 0xE1;

enum class AttackKind {
  kForgedFlood,   // compromised AS, real path, forged authenticators
  kSpoofedFlood,  // fabricated source ASes (filter-table exhaustion)
  kFlashCrowd,    // legitimate surge: valid authenticators, surge marker
};

[[nodiscard]] const char* attack_kind_name(AttackKind kind);

// One burst of hostile traffic, launched at the chaos event's fire time
// and lasting `duration` from there.
struct AttackBurst {
  AttackKind kind = AttackKind::kForgedFlood;
  // Origin: the compromised AS the traffic is injected at (and, for
  // forged/flash bursts, the source AS stamped on the packets).
  IsdAs source;
  double pps = 1000;
  Duration duration = kSecond;
};

struct AttackConfig {
  std::uint64_t seed = 0xA77AC;
  std::size_t payload_bytes = 256;
  // Secret the flash-crowd sealers derive their per-AS keys from; must
  // match the victims' filters for a surge to authenticate.
  Bytes filter_secret;
};

struct AttackReport {  // value snapshot, safe to copy around
  std::uint64_t attack_sent = 0;
  std::uint64_t attack_delivered = 0;  // floods that reached a socket
  std::uint64_t surge_sent = 0;
  std::uint64_t surge_delivered = 0;
  std::uint64_t send_failures = 0;
};

class AttackMatrix {
 public:
  // Victims are the workload's hosts; the matrix resolves their addresses
  // (and the paths toward them) lazily at burst-launch time, after the
  // victim fleet is attached.
  AttackMatrix(controlplane::ScionNetwork& net, TrafficMatrix& victims,
               AttackConfig config);

  // Arm-time validation: a burst that names an AS the topology does not
  // contain, a non-positive rate/duration, or a flash crowd without a
  // filter secret is rejected before the soak starts.
  [[nodiscard]] Status validate(const AttackBurst& burst) const;

  // Schedules every send of the burst from sim.now() onward. Called from
  // the chaos engine's apply path.
  Status launch(const AttackBurst& burst);

  // Wired to TrafficMatrix::set_on_foreign_delivery: counts hostile
  // traffic that made it through to an application socket.
  void note_delivery(std::uint8_t marker) {
    if (marker == kSurgeMarker) {
      ++report_.surge_delivered;
    } else {
      ++report_.attack_delivered;
    }
  }

  [[nodiscard]] AttackReport report() const { return report_; }

 private:
  // One scheduled hostile send: the packet is fully built at burst-launch
  // time so the send event itself is injection only.
  void schedule_send(SimTime at, dataplane::BorderRouter* router,
                     dataplane::ScionPacket packet, bool surge);

  controlplane::ScionNetwork& net_;
  TrafficMatrix& victims_;
  AttackConfig config_;
  Rng rng_;
  std::size_t bursts_launched_ = 0;
  AttackReport report_;
};

}  // namespace sciera::workload
