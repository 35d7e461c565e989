// The open-source SCION CA of Section 4.5 (smallstep analogue): fully
// automated issuance and renewal of short-lived AS certificates, so that
// both the open-source and the commercial control-plane stacks in one ISD
// interoperate. Also bundles IsdPki, which stands up the whole trust
// hierarchy for an ISD: voting keys, base TRC, CA certs, AS certs.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cppki/certificate.h"
#include "cppki/trc.h"
#include "obs/metrics.h"

namespace sciera::cppki {

// Default AS-certificate lifetime: "typically just a few days" (§4.5).
inline constexpr Duration kDefaultAsCertValidity = 3 * kDay;
// Renew when less than a third of the lifetime remains.
inline constexpr Duration kRenewalMargin = kDefaultAsCertValidity / 3;

class CertificateAuthority {
 public:
  // Registry cells, registered at construction.
  struct Metrics {
    obs::Counter* issued = nullptr;
    obs::Counter* renewed = nullptr;
    obs::Counter* rejected = nullptr;
  };

  // A CA is itself a core AS holding a root-signed CA certificate.
  CertificateAuthority(IsdAs ca_as, crypto::KeyPair ca_key,
                       Certificate ca_cert);

  // Issues (or renews) a short-lived AS certificate. Re-issuance for a
  // subject the CA has seen before counts as a renewal.
  Result<Certificate> issue(IsdAs subject,
                            const crypto::Ed25519::PublicKey& subject_key,
                            SimTime now,
                            Duration validity = kDefaultAsCertValidity);

  [[nodiscard]] const Certificate& ca_certificate() const { return ca_cert_; }
  [[nodiscard]] IsdAs ca_as() const { return ca_as_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

 private:
  IsdAs ca_as_;
  crypto::KeyPair ca_key_;
  Certificate ca_cert_;
  std::uint64_t next_serial_ = 1;
  std::unordered_map<IsdAs, std::uint64_t> issued_to_;
  Metrics metrics_;
};

// Verifies the full chain AS cert -> CA cert -> TRC root key.
[[nodiscard]] Status verify_chain(const Certificate& as_cert,
                                  const Certificate& ca_cert, const Trc& trc,
                                  SimTime now);

// The credentials of one AS inside an ISD PKI.
struct AsCredentials {
  crypto::KeyPair signing_key;   // control-plane signing (PCBs, topology)
  Certificate as_cert;           // short-lived, CA-signed
  Certificate ca_cert;           // the issuing CA's certificate
};

// Builds and operates a complete single-ISD PKI: base TRC voted by the
// core ASes, one CA per designated CA AS, and AS certificates for every
// member. Renewal is fully automated (renew_expiring).
class IsdPki {
 public:
  IsdPki(Isd isd, std::vector<IsdAs> core_ases, SimTime now,
         Duration trc_validity, std::uint64_t key_seed);

  [[nodiscard]] const Trc& trc() const { return trc_; }
  [[nodiscard]] Isd isd() const { return isd_; }

  // Enrolls an AS: generates its signing key and issues its first cert.
  Status enroll(IsdAs as, SimTime now);

  [[nodiscard]] const AsCredentials* credentials(IsdAs as) const;

  // Automated renewal sweep (the SCION Orchestrator behaviour of §4.4/4.5):
  // every certificate within the renewal margin gets re-issued. Returns
  // the number of certificates renewed.
  std::size_t renew_expiring(SimTime now);

  // Produces a TRC update (serial+1) signed by a quorum of voting keys;
  // callers feed it to TrustStores via update().
  [[nodiscard]] Trc make_trc_update(SimTime now, Duration validity);

  [[nodiscard]] const CertificateAuthority& ca() const { return *ca_; }
  // Signs a payload with an AS's signing key (for PCB/topology signing).
  [[nodiscard]] Result<crypto::Ed25519::Signature> sign_as(
      IsdAs as, BytesView payload) const;

 private:
  Isd isd_;
  Trc trc_;
  std::unordered_map<IsdAs, crypto::KeyPair> voting_keys_;  // lookup-only
  crypto::KeyPair root_key_;  // shared ISD root (held by the first CA AS)
  std::unique_ptr<CertificateAuthority> ca_;
  // Ordered: renew_expiring walks the membership, and each re-issue draws
  // the CA's next serial — hash order would tie serial assignment to the
  // enrollment sequence instead of the AS identifier.
  std::map<IsdAs, AsCredentials> members_;
  std::uint64_t key_seed_;
  std::uint64_t key_counter_ = 0;

  crypto::KeyPair next_key(std::string_view label);
};

}  // namespace sciera::cppki
