#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cppki/ca.h"
#include "cppki/certificate.h"
#include "cppki/trc.h"
#include "topology/sciera_net.h"

namespace sciera::cppki {
namespace {

namespace a = topology::ases;

crypto::KeyPair make_key(int tag) {
  crypto::Ed25519::Seed seed{};
  seed[0] = static_cast<std::uint8_t>(tag);
  seed[1] = static_cast<std::uint8_t>(tag >> 8);
  return crypto::KeyPair::from_seed(seed);
}

Certificate make_cert(CertType type, IsdAs subject, IsdAs issuer,
                      const crypto::KeyPair& subject_key, SimTime from,
                      SimTime until) {
  Certificate cert;
  cert.type = type;
  cert.subject = subject;
  cert.issuer = issuer;
  cert.serial = 7;
  cert.subject_key = subject_key.pub();
  cert.valid_from = from;
  cert.valid_until = until;
  return cert;
}

TEST(Certificate, SignAndVerify) {
  const auto issuer_key = make_key(1);
  const auto subject_key = make_key(2);
  auto cert = make_cert(CertType::kAs, a::uva(), a::geant(), subject_key, 0,
                        3 * kDay);
  sign_certificate(cert, issuer_key);
  EXPECT_TRUE(cert.verify(issuer_key.pub(), kDay).ok());
}

TEST(Certificate, RejectsWrongIssuerKey) {
  const auto issuer_key = make_key(1);
  const auto other_key = make_key(3);
  auto cert = make_cert(CertType::kAs, a::uva(), a::geant(), make_key(2), 0,
                        3 * kDay);
  sign_certificate(cert, issuer_key);
  const auto status = cert.verify(other_key.pub(), kDay);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::kVerificationFailed);
}

TEST(Certificate, RejectsExpired) {
  const auto issuer_key = make_key(1);
  auto cert = make_cert(CertType::kAs, a::uva(), a::geant(), make_key(2), 0,
                        3 * kDay);
  sign_certificate(cert, issuer_key);
  const auto status = cert.verify(issuer_key.pub(), 4 * kDay);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::kExpired);
}

TEST(Certificate, RejectsTamperedFields) {
  const auto issuer_key = make_key(1);
  auto cert = make_cert(CertType::kAs, a::uva(), a::geant(), make_key(2), 0,
                        3 * kDay);
  sign_certificate(cert, issuer_key);
  cert.subject = a::princeton();  // tamper after signing
  EXPECT_FALSE(cert.verify(issuer_key.pub(), kDay).ok());
}

TEST(Certificate, RejectsEmptyValidity) {
  const auto issuer_key = make_key(1);
  auto cert = make_cert(CertType::kAs, a::uva(), a::geant(), make_key(2),
                        2 * kDay, 2 * kDay);
  sign_certificate(cert, issuer_key);
  EXPECT_FALSE(cert.verify(issuer_key.pub(), kDay).ok());
}

class PkiFixture : public ::testing::Test {
 protected:
  PkiFixture()
      : pki_(71, {a::geant(), a::bridges(), a::kisti_dj()}, 0, 365 * kDay,
             1234) {}
  IsdPki pki_;
};

TEST_F(PkiFixture, BaseTrcVerifies) {
  EXPECT_TRUE(pki_.trc().verify_base().ok());
  EXPECT_EQ(pki_.trc().isd, 71);
  EXPECT_EQ(pki_.trc().roots.size(), 3u);
  EXPECT_EQ(pki_.trc().voting_quorum, 2u);
}

TEST_F(PkiFixture, EnrollIssuesVerifiableChain) {
  ASSERT_TRUE(pki_.enroll(a::uva(), kDay).ok());
  const auto* creds = pki_.credentials(a::uva());
  ASSERT_NE(creds, nullptr);
  EXPECT_TRUE(
      verify_chain(creds->as_cert, creds->ca_cert, pki_.trc(), kDay).ok());
}

TEST_F(PkiFixture, EnrollRejectsForeignIsd) {
  EXPECT_FALSE(pki_.enroll(a::eth(), 0).ok());  // 64-2:0:9
}

TEST_F(PkiFixture, EnrollRejectsDuplicates) {
  ASSERT_TRUE(pki_.enroll(a::uva(), 0).ok());
  EXPECT_FALSE(pki_.enroll(a::uva(), 0).ok());
}

TEST_F(PkiFixture, ShortLivedCertsExpireWithoutRenewal) {
  ASSERT_TRUE(pki_.enroll(a::uva(), 0).ok());
  const auto* creds = pki_.credentials(a::uva());
  // At day 4 the 3-day cert has lapsed.
  const auto status =
      verify_chain(creds->as_cert, creds->ca_cert, pki_.trc(), 4 * kDay);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::kExpired);
}

TEST_F(PkiFixture, AutomatedRenewalKeepsCertsFresh) {
  ASSERT_TRUE(pki_.enroll(a::uva(), 0).ok());
  ASSERT_TRUE(pki_.enroll(a::princeton(), 0).ok());
  // Simulate the orchestrator's daily renewal sweep for a month.
  for (SimTime now = 0; now <= 30 * kDay; now += kDay) {
    pki_.renew_expiring(now);
    const auto* creds = pki_.credentials(a::uva());
    EXPECT_TRUE(
        verify_chain(creds->as_cert, creds->ca_cert, pki_.trc(), now).ok())
        << "day " << now / kDay;
  }
  EXPECT_GT(pki_.ca().metrics().renewed->value(), 10u);
}

TEST_F(PkiFixture, RenewalOnlyTouchesExpiring) {
  ASSERT_TRUE(pki_.enroll(a::uva(), 0).ok());
  EXPECT_EQ(pki_.renew_expiring(0), 0u);  // brand new, no renewal needed
  EXPECT_EQ(pki_.renew_expiring(2 * kDay + kHour), 1u);
}

TEST_F(PkiFixture, TrcUpdateChainsIntoTrustStore) {
  TrustStore store;
  ASSERT_TRUE(store.anchor(pki_.trc()).ok());
  const Trc updated = pki_.make_trc_update(10 * kDay, 365 * kDay);
  EXPECT_TRUE(store.update(updated).ok());
  EXPECT_EQ(store.latest(71)->version.serial, 2u);
  EXPECT_EQ(store.chain(71)->size(), 2u);
}

TEST_F(PkiFixture, TrustStoreRejectsSerialSkips) {
  TrustStore store;
  ASSERT_TRUE(store.anchor(pki_.trc()).ok());
  Trc skipped = pki_.make_trc_update(10 * kDay, 365 * kDay);
  skipped.version.serial = 5;
  EXPECT_FALSE(store.update(skipped).ok());
}

TEST_F(PkiFixture, TrustStoreRejectsForgedUpdate) {
  TrustStore store;
  ASSERT_TRUE(store.anchor(pki_.trc()).ok());
  // An attacker fabricates an update with its own keys.
  Trc forged = pki_.trc();
  forged.version.serial += 1;
  const auto attacker = make_key(66);
  forged.roots[0].voting_key = attacker.pub();
  forged.votes.clear();
  const Bytes payload = forged.signing_payload();
  forged.votes.push_back(
      TrcVote{forged.roots[0].as, crypto::Ed25519::sign(attacker, payload)});
  EXPECT_FALSE(store.update(forged).ok());
}

TEST_F(PkiFixture, TrustStoreRejectsUnanchoredIsd) {
  TrustStore store;
  EXPECT_FALSE(store.update(pki_.trc()).ok());
  EXPECT_EQ(store.latest(71), nullptr);
}

TEST(Trc, BaseTrcQuorumEnforced) {
  IsdPki pki{64, {a::switch64()}, 0, 365 * kDay, 9};
  Trc trc = pki.trc();
  trc.votes.clear();  // strip signatures
  EXPECT_FALSE(trc.verify_base().ok());
}

TEST(Trc, DuplicateVotesDontCountTwice) {
  IsdPki pki{71, {a::geant(), a::bridges()}, 0, 365 * kDay, 5};
  Trc trc = pki.trc();  // quorum 2
  ASSERT_EQ(trc.votes.size(), 2u);
  trc.votes[1] = trc.votes[0];  // same voter twice
  EXPECT_FALSE(trc.verify_base().ok());
}

TEST(Ca, RefusesCrossIsdSubjects) {
  IsdPki pki{71, {a::geant()}, 0, 365 * kDay, 10};
  ASSERT_TRUE(pki.enroll(a::uva(), 0).ok());
  // ca() is GEANT's CA for ISD 71; an ISD-64 subject must be refused.
  auto& ca = const_cast<CertificateAuthority&>(pki.ca());
  const auto key = make_key(12);
  EXPECT_FALSE(ca.issue(a::eth(), key.pub(), 0).ok());
}

TEST(Ca, ChainFailsWithWrongTrc) {
  IsdPki pki71{71, {a::geant()}, 0, 365 * kDay, 11};
  IsdPki pki64{64, {a::switch64()}, 0, 365 * kDay, 12};
  ASSERT_TRUE(pki71.enroll(a::uva(), 0).ok());
  const auto* creds = pki71.credentials(a::uva());
  EXPECT_TRUE(verify_chain(creds->as_cert, creds->ca_cert, pki71.trc(), 0).ok());
  EXPECT_FALSE(verify_chain(creds->as_cert, creds->ca_cert, pki64.trc(), 0).ok());
}

TEST(Ca, SignAsProducesVerifiableControlPlaneSignatures) {
  IsdPki pki{71, {a::geant()}, 0, 365 * kDay, 13};
  ASSERT_TRUE(pki.enroll(a::sidn(), 0).ok());
  const Bytes payload = bytes_of("pcb-entry");
  auto sig = pki.sign_as(a::sidn(), payload);
  ASSERT_TRUE(sig.ok());
  const auto* creds = pki.credentials(a::sidn());
  EXPECT_TRUE(crypto::Ed25519::verify(creds->as_cert.subject_key, payload,
                                      sig.value()));
  EXPECT_FALSE(pki.sign_as(a::uva(), payload).ok());  // not enrolled
}

// Perturbed-insertion-order regression for the analyzer's determinism
// contract: IsdPki::members_ is an ordered map, so the automated renewal
// sweep re-issues certificates by AS identifier — the CA serial each AS
// ends up with must not depend on the order operators happened to enroll.
// (With a hash map this walks the bucket chains, which DO reorder under
// reversed insertion.)
TEST(Pki, RenewalSerialsIndependentOfEnrollmentOrder) {
  const std::vector<IsdAs> members = {a::uva(), a::princeton(), a::sidn(),
                                      a::demokritos(), a::ovgu()};
  const auto build = [&members](bool reversed) {
    std::vector<IsdAs> order = members;
    if (reversed) std::reverse(order.begin(), order.end());
    auto pki = std::make_unique<IsdPki>(
        71, std::vector<IsdAs>{a::geant(), a::bridges()}, 0, 365 * kDay, 77);
    for (const IsdAs ia : order) {
      EXPECT_TRUE(pki->enroll(ia, 0).ok()) << ia.to_string();
    }
    // Inside the renewal margin: one sweep re-issues every member.
    EXPECT_EQ(pki->renew_expiring(2 * kDay + kHour), order.size());
    return pki;
  };
  const auto forward = build(false);
  const auto reversed = build(true);
  for (const IsdAs ia : members) {
    const auto* f = forward->credentials(ia);
    const auto* r = reversed->credentials(ia);
    ASSERT_NE(f, nullptr);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(f->as_cert.serial, r->as_cert.serial) << ia.to_string();
  }
}

}  // namespace
}  // namespace sciera::cppki
