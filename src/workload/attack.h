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
// A burst keeps one pending send, not one per packet. Launch walks the
// burst's whole schedule once to count its sends and reserves that many
// consecutive scheduler sequence numbers (Simulator::reserve_sequence).
// Each send then redraws the next one from a copy of the burst's Rng and
// places it at its reserved (time, sequence) — where scheduling every
// send at launch would have put it — so the executed schedule is the
// same. A burst's state is O(victim ASes), whatever its length.
//
// Traffic classes are told apart end to end by the first payload byte:
// legitimate workload packets carry kLegitMarker, flash-crowd surges
// kSurgeMarker (valid authenticator), floods kAttackMarker (garbage
// authenticator). The markers let one delivery callback split legitimate
// from hostile traffic without any side channel.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

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
  // Pending sends hold the matrix's address and its bursts'.
  AttackMatrix(const AttackMatrix&) = delete;
  AttackMatrix& operator=(const AttackMatrix&) = delete;

  // Arm-time validation: a burst that names an AS the topology does not
  // contain, a non-positive rate/duration, or a flash crowd without a
  // filter secret is rejected before the soak starts.
  [[nodiscard]] Status validate(const AttackBurst& burst) const;

  // Starts the burst at sim.now(): reserves a sequence number for each of
  // its sends and schedules the first. Called from the chaos engine's
  // apply path.
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
  // A launched burst and its cursor, the pending send.
  struct Burst {
    AttackKind kind = AttackKind::kForgedFlood;
    IsdAs source;
    dataplane::BorderRouter* router = nullptr;
    // Victim host indices: every workload host outside the origin AS.
    std::vector<std::size_t> pool;
    // Paths resolved once per victim AS at launch (nullopt: no path; its
    // sends are skipped).
    std::map<IsdAs, std::optional<dataplane::ScionPath>> path_by_as;
    double mean_gap = 0;  // ns between sends
    SimTime end = 0;
    Rng rng;
    std::uint64_t first_seq = 0;  // reserved number of the first send
    std::uint64_t sent = 0;       // sends fired so far
    SimTime at = 0;               // the pending send's time
    // The pending send: draw_send() sets its destination and path, fire()
    // its source. The serialised UDP payload is the same for every send.
    dataplane::ScionPacket packet;
  };

  // Advances the cursor to the burst's next send; false once it falls past
  // the burst's end. A draw whose victim AS has no path is skipped and
  // counted in `*no_path` if given (launch counts them; replays do not).
  bool draw_send(Burst& burst, std::uint64_t* no_path = nullptr);
  // Injects the pending send and places the next one.
  void fire(Burst& burst);
  void place(Burst& burst);

  controlplane::ScionNetwork& net_;
  TrafficMatrix& victims_;
  AttackConfig config_;
  Rng rng_;
  std::deque<Burst> bursts_;  // stable addresses for the pending sends
  AttackReport report_;
};

}  // namespace sciera::workload
