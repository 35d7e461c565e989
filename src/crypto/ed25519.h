// Ed25519 signatures (RFC 8032), implemented from scratch: GF(2^255-19)
// field arithmetic (51-bit limbs, lazily reduced), unified twisted-Edwards
// point addition with a dedicated doubling, and scalar arithmetic mod the
// group order (Barrett reduction over 32-bit limbs). Variable-time is
// acceptable here: keys live inside a simulated control plane, not on an
// exposed host. Curve constants (d, 2d, sqrt(-1)) are computed from first
// principles at startup, not transcribed, and so is the fixed-base table:
// 32 x 128 affine multiples (j+1) * 256^i * B of the base point, which
// turns every r*B (signing, key derivation) and the s*B half of
// verification into at most 32 mixed additions over signed radix-256
// digits, with no doublings. Verification's k*A is a signed radix-16
// window over 8 multiples of A. Field inversion is a variable-time
// safegcd (Bernstein-Yang divsteps over signed 62-bit limbs).
//
// Signing takes the signer's KeyPair: the public key is hashed into every
// signature, and deriving it again per call would cost a second scalar
// multiplication. The KeyPair also keeps the expanded secret (the clamped
// scalar and the nonce prefix of SHA-512(seed)), so a signature hashes
// only the message, twice.
#pragma once

#include <array>
#include <cstdint>

#include "common/buffer.h"
#include "common/result.h"

namespace sciera::crypto {

class KeyPair;

struct Ed25519 {
  static constexpr std::size_t kSeedSize = 32;
  static constexpr std::size_t kPublicKeySize = 32;
  static constexpr std::size_t kSignatureSize = 64;

  using Seed = std::array<std::uint8_t, kSeedSize>;
  using PublicKey = std::array<std::uint8_t, kPublicKeySize>;
  using Signature = std::array<std::uint8_t, kSignatureSize>;

  // Derives the public key for a 32-byte seed (the RFC 8032 private key).
  static PublicKey public_key(const Seed& seed);

  // Signs with a key built by KeyPair::from_seed.
  static Signature sign(const KeyPair& key, BytesView message);

  // Rejects non-canonical encodings: s >= L, and a public key whose y is
  // not below p (RFC 8032 section 5.1.3). Also rejects the eight public
  // keys of small order (8*A is the identity), under which a signature
  // that ignores the message can verify.
  [[nodiscard]] static bool verify(const PublicKey& pub, BytesView message,
                                   const Signature& sig);

  // Process-wide count of sign() calls. Beaconing signs each distinct PCB
  // entry once per sweep; the control-plane suite asserts the exact count
  // of a sweep. Monotonic — tests read deltas.
  [[nodiscard]] static std::uint64_t signatures_made();
};

// A signing key: the seed, its public key and its expanded secret, all
// derived once by from_seed(). The fields are private, so every key that
// can sign was built by from_seed(). A default-constructed KeyPair is a
// placeholder to assign one to.
class KeyPair {
 public:
  KeyPair() = default;
  static KeyPair from_seed(const Ed25519::Seed& seed);

  [[nodiscard]] const Ed25519::Seed& seed() const { return seed_; }
  [[nodiscard]] const Ed25519::PublicKey& pub() const { return pub_; }

 private:
  friend struct Ed25519;

  Ed25519::Seed seed_{};
  Ed25519::PublicKey pub_{};
  // SHA-512(seed): the first half clamped (the secret scalar a), the
  // second half the prefix that derives each signature's nonce.
  std::array<std::uint8_t, 32> scalar_{};
  std::array<std::uint8_t, 32> prefix_{};
};

}  // namespace sciera::crypto
