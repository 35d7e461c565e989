// Trust Root Configuration (TRC): the per-ISD trust anchor defined by the
// core ASes (Section 2). A TRC names the ISD's core ASes, root CA keys and
// voting keys, and the update policy (quorum). Updates are validated by
// "TRC chaining" (Section 4.1.2): a new TRC must carry a quorum of votes
// signed with the *previous* TRC's voting keys.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/isd_as.h"
#include "common/result.h"
#include "common/time.h"
#include "crypto/ed25519.h"

namespace sciera::cppki {

struct TrcVersion {
  std::uint32_t base = 1;
  std::uint32_t serial = 1;

  friend constexpr auto operator<=>(const TrcVersion&, const TrcVersion&) = default;
  [[nodiscard]] std::string to_string() const {
    return std::to_string(base) + "." + std::to_string(serial);
  }
};

struct TrcRootEntry {
  IsdAs as;                                  // a core AS
  crypto::Ed25519::PublicKey voting_key{};   // signs TRC updates
  crypto::Ed25519::PublicKey root_ca_key{};  // signs CA certificates
};

struct TrcVote {
  IsdAs voter;
  crypto::Ed25519::Signature signature{};
};

struct Trc {
  Isd isd = 0;
  TrcVersion version;
  SimTime valid_from = 0;
  SimTime valid_until = 0;
  std::uint32_t voting_quorum = 1;
  std::vector<TrcRootEntry> roots;
  std::vector<TrcVote> votes;

  [[nodiscard]] Bytes signing_payload() const;
  [[nodiscard]] const TrcRootEntry* root_for(IsdAs as) const;
  [[nodiscard]] bool covers(SimTime now) const {
    return now >= valid_from && now < valid_until;
  }

  // Validates this TRC as an update of `previous` (same ISD, serial + 1,
  // quorum of votes verifying under the previous TRC's voting keys).
  [[nodiscard]] Status verify_update(const Trc& previous) const;

  // Validates a base TRC: self-consistent and self-signed by a quorum of
  // its own voting keys. The *authenticity* of a base TRC still has to be
  // established out of band (Section 4.1.2).
  [[nodiscard]] Status verify_base() const;
};

// Per-host / per-AS store of TRCs, newest-first per ISD, enforcing the
// chaining rule on insertion.
class TrustStore {
 public:
  // Installs a base TRC obtained out of band.
  Status anchor(Trc trc);
  // Installs an update; must chain from the latest TRC for its ISD.
  Status update(Trc trc);

  [[nodiscard]] const Trc* latest(Isd isd) const;
  [[nodiscard]] const std::vector<Trc>* chain(Isd isd) const;

 private:
  struct IsdChain {
    Isd isd;
    std::vector<Trc> trcs;  // oldest first
  };
  std::vector<IsdChain> chains_;

  IsdChain* find(Isd isd);
};

}  // namespace sciera::cppki
