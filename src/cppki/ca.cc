#include "cppki/ca.h"

#include "common/rng.h"

namespace sciera::cppki {

CertificateAuthority::CertificateAuthority(IsdAs ca_as, crypto::KeyPair ca_key,
                                           Certificate ca_cert)
    : ca_as_(ca_as), ca_key_(ca_key), ca_cert_(std::move(ca_cert)) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{
      {"ca", registry.instance_label("ca", ca_as_.to_string())}};
  metrics_.issued = &registry.counter("sciera_ca_issued_total", base);
  metrics_.renewed = &registry.counter("sciera_ca_renewed_total", base);
  metrics_.rejected = &registry.counter("sciera_ca_rejected_total", base);
}

Result<Certificate> CertificateAuthority::issue(
    IsdAs subject, const crypto::Ed25519::PublicKey& subject_key, SimTime now,
    Duration validity) {
  if (subject.isd() != ca_as_.isd()) {
    metrics_.rejected->inc();
    return Error{Errc::kInvalidArgument,
                 "CA for ISD " + std::to_string(ca_as_.isd()) +
                     " cannot certify " + subject.to_string()};
  }
  if (validity <= 0) {
    metrics_.rejected->inc();
    return Error{Errc::kInvalidArgument, "non-positive validity"};
  }
  if (!ca_cert_.covers(now)) {
    metrics_.rejected->inc();
    return Error{Errc::kExpired, "CA certificate expired"};
  }
  Certificate cert;
  cert.type = CertType::kAs;
  cert.subject = subject;
  cert.issuer = ca_as_;
  cert.serial = next_serial_++;
  cert.subject_key = subject_key;
  cert.valid_from = now;
  cert.valid_until = now + validity;
  sign_certificate(cert, ca_key_);

  if (auto [it, inserted] = issued_to_.try_emplace(subject, 1); !inserted) {
    ++it->second;
    metrics_.renewed->inc();
  } else {
    metrics_.issued->inc();
  }
  return cert;
}

Status verify_chain(const Certificate& as_cert, const Certificate& ca_cert,
                    const Trc& trc, SimTime now) {
  if (as_cert.type != CertType::kAs || ca_cert.type != CertType::kCa) {
    return Error{Errc::kVerificationFailed, "certificate types out of order"};
  }
  if (as_cert.issuer != ca_cert.subject) {
    return Error{Errc::kVerificationFailed,
                 "AS certificate issuer does not match CA certificate"};
  }
  const auto* root = trc.root_for(ca_cert.issuer);
  if (root == nullptr) {
    return Error{Errc::kVerificationFailed,
                 "CA certificate issuer " + ca_cert.issuer.to_string() +
                     " is not a TRC root"};
  }
  if (!trc.covers(now)) {
    return Error{Errc::kExpired, "TRC not valid now"};
  }
  if (auto status = ca_cert.verify(root->root_ca_key, now); !status.ok()) {
    return status;
  }
  return as_cert.verify(ca_cert.subject_key, now);
}

crypto::KeyPair IsdPki::next_key(std::string_view label) {
  Rng rng{key_seed_ + (key_counter_++) * 0x9E37'79B9, label};
  crypto::Ed25519::Seed seed{};
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return crypto::KeyPair::from_seed(seed);
}

IsdPki::IsdPki(Isd isd, std::vector<IsdAs> core_ases, SimTime now,
               Duration trc_validity, std::uint64_t key_seed)
    : isd_(isd), key_seed_(key_seed) {
  root_key_ = next_key("root-ca");

  trc_.isd = isd;
  trc_.version = TrcVersion{1, 1};
  trc_.valid_from = now;
  trc_.valid_until = now + trc_validity;
  trc_.voting_quorum =
      static_cast<std::uint32_t>(core_ases.size() / 2 + 1);
  for (IsdAs core : core_ases) {
    auto voting = next_key("voting");
    voting_keys_.emplace(core, voting);
    trc_.roots.push_back(TrcRootEntry{core, voting.pub(), root_key_.pub()});
  }
  // All core ASes self-sign the base TRC.
  const Bytes payload = trc_.signing_payload();
  for (IsdAs core : core_ases) {
    trc_.votes.push_back(
        TrcVote{core, crypto::Ed25519::sign(voting_keys_.at(core), payload)});
  }

  // Stand up the CA at the first core AS (the "designated CA AS", §4.5),
  // holding a root-signed CA certificate.
  const IsdAs ca_as = core_ases.front();
  auto ca_key = next_key("ca");
  Certificate ca_cert;
  ca_cert.type = CertType::kCa;
  ca_cert.subject = ca_as;
  ca_cert.issuer = ca_as;  // root entry lives at the same core AS
  ca_cert.serial = 1;
  ca_cert.subject_key = ca_key.pub();
  ca_cert.valid_from = now;
  ca_cert.valid_until = now + trc_validity;
  sign_certificate(ca_cert, root_key_);
  ca_ = std::make_unique<CertificateAuthority>(ca_as, ca_key, ca_cert);
}

Status IsdPki::enroll(IsdAs as, SimTime now) {
  if (as.isd() != isd_) {
    return Error{Errc::kInvalidArgument,
                 as.to_string() + " is outside ISD " + std::to_string(isd_)};
  }
  if (members_.contains(as)) {
    return Error{Errc::kInvalidArgument, as.to_string() + " already enrolled"};
  }
  AsCredentials creds;
  creds.signing_key = next_key("as-signing");
  auto cert = ca_->issue(as, creds.signing_key.pub(), now);
  if (!cert) return cert.error();
  creds.as_cert = std::move(cert).value();
  creds.ca_cert = ca_->ca_certificate();
  members_.emplace(as, std::move(creds));
  return {};
}

const AsCredentials* IsdPki::credentials(IsdAs as) const {
  const auto it = members_.find(as);
  return it == members_.end() ? nullptr : &it->second;
}

std::size_t IsdPki::renew_expiring(SimTime now) {
  std::size_t renewed = 0;
  for (auto& [as, creds] : members_) {
    if (creds.as_cert.valid_until - now <= kRenewalMargin) {
      auto cert = ca_->issue(as, creds.signing_key.pub(), now);
      if (cert) {
        creds.as_cert = std::move(cert).value();
        ++renewed;
      }
    }
  }
  return renewed;
}

Trc IsdPki::make_trc_update(SimTime now, Duration validity) {
  Trc next = trc_;
  next.version.serial += 1;
  next.valid_from = now;
  next.valid_until = now + validity;
  next.votes.clear();
  const Bytes payload = next.signing_payload();
  for (const auto& root : trc_.roots) {
    next.votes.push_back(TrcVote{
        root.as,
        crypto::Ed25519::sign(voting_keys_.at(root.as), payload)});
  }
  trc_ = next;
  return next;
}

Result<crypto::Ed25519::Signature> IsdPki::sign_as(IsdAs as,
                                                   BytesView payload) const {
  const auto it = members_.find(as);
  if (it == members_.end()) {
    return Error{Errc::kNotFound, as.to_string() + " not enrolled"};
  }
  return crypto::Ed25519::sign(it->second.signing_key, payload);
}

}  // namespace sciera::cppki
