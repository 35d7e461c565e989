#include <gtest/gtest.h>

#include <span>
#include <string>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/cmac.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace sciera::crypto {
namespace {

Bytes hex(std::string_view h) { return from_hex(h).value(); }

template <std::size_t N>
std::array<std::uint8_t, N> array_from_hex(std::string_view h) {
  const Bytes b = hex(h);
  EXPECT_EQ(b.size(), N);
  std::array<std::uint8_t, N> out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

// --- SHA-256 (FIPS 180-4 / NIST CAVS vectors) --------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const auto msg = bytes_of("abc");
  EXPECT_EQ(to_hex(Sha256::hash(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const auto msg =
      bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(to_hex(Sha256::hash(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finish();
  EXPECT_EQ(to_hex(d),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng{42};
  Bytes data(4097);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto oneshot = Sha256::hash(data);
  // Feed in awkward chunk sizes straddling block boundaries.
  Sha256 h;
  std::size_t pos = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 127, 128, 129, 1000};
  std::size_t ci = 0;
  while (pos < data.size()) {
    const std::size_t n = std::min(chunks[ci % 8], data.size() - pos);
    h.update(BytesView{data.data() + pos, n});
    pos += n;
    ++ci;
  }
  EXPECT_EQ(h.finish(), oneshot);
}

// --- SHA-512 ------------------------------------------------------------------

TEST(Sha512, EmptyString) {
  EXPECT_EQ(to_hex(Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(to_hex(Sha512::hash(bytes_of("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  const auto msg = bytes_of(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  EXPECT_EQ(to_hex(Sha512::hash(msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, IncrementalMatchesOneShot) {
  Rng rng{43};
  Bytes data(10000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto oneshot = Sha512::hash(data);
  Sha512 h;
  std::size_t pos = 0;
  std::size_t n = 1;
  while (pos < data.size()) {
    const std::size_t take = std::min(n, data.size() - pos);
    h.update(BytesView{data.data() + pos, take});
    pos += take;
    n = (n * 3 + 1) % 257 + 1;
  }
  EXPECT_EQ(h.finish(), oneshot);
}

// --- HMAC-SHA256 (RFC 4231) ----------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, bytes_of("Hi There"));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac =
      hmac_sha256(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DeriveKeyIsDeterministicAndLabelSensitive) {
  const Bytes secret = hex("000102030405060708090a0b0c0d0e0f");
  const auto k1 = derive_key(secret, "scion-forwarding-key");
  const auto k2 = derive_key(secret, "scion-forwarding-key");
  const auto k3 = derive_key(secret, "other");
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
}

TEST(Hmac, ConstantTimeEqual) {
  const Bytes a = hex("00112233");
  const Bytes b = hex("00112233");
  const Bytes c = hex("00112234");
  const Bytes d = hex("001122");
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
}

// --- AES-128 (FIPS 197 Appendix C.1) -------------------------------------------

TEST(Aes128, Fips197Vector) {
  const auto key = array_from_hex<16>("000102030405060708090a0b0c0d0e0f");
  const auto pt = array_from_hex<16>("00112233445566778899aabbccddeeff");
  Aes128 aes{key};
  const auto ct = aes.encrypt(pt);
  EXPECT_EQ(to_hex(BytesView{ct.data(), ct.size()}),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, Sp800_38aVector) {
  // First block of the ECB-AES128 example from NIST SP 800-38A.
  const auto key = array_from_hex<16>("2b7e151628aed2a6abf7158809cf4f3c");
  const auto pt = array_from_hex<16>("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes{key};
  EXPECT_EQ(to_hex(aes.encrypt(pt)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

// --- AES-CMAC (RFC 4493) --------------------------------------------------------

class CmacRfc4493 : public ::testing::Test {
 protected:
  AesCmac cmac_{array_from_hex<16>("2b7e151628aed2a6abf7158809cf4f3c")};
  Bytes msg_ = hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
};

TEST_F(CmacRfc4493, EmptyMessage) {
  EXPECT_EQ(to_hex(cmac_.compute({})), "bb1d6929e95937287fa37d129b756746");
}

TEST_F(CmacRfc4493, SixteenBytes) {
  EXPECT_EQ(to_hex(cmac_.compute(BytesView{msg_.data(), 16})),
            "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST_F(CmacRfc4493, FortyBytes) {
  EXPECT_EQ(to_hex(cmac_.compute(BytesView{msg_.data(), 40})),
            "dfa66747de9ae63030ca32611497c827");
}

TEST_F(CmacRfc4493, SixtyFourBytes) {
  EXPECT_EQ(to_hex(cmac_.compute(msg_)),
            "51f0bebf7e3b9d92fc49741779363cfe");
}

TEST_F(CmacRfc4493, VerifyAcceptsTruncatedMac) {
  // Truncation is allowed down to kMinTagLen (the 6-byte SCION hop-field
  // tag) and up to the full 16-byte MAC — never below.
  const auto mac = cmac_.compute(msg_);
  for (std::size_t len = AesCmac::kMinTagLen; len <= mac.size(); ++len) {
    EXPECT_TRUE(cmac_.verify(msg_, BytesView{mac.data(), len}))
        << "genuine " << len << "-byte tag rejected";
  }
  auto tampered = mac;
  tampered[0] ^= 1;
  EXPECT_FALSE(cmac_.verify(msg_, BytesView{tampered.data(), 6}));
}

TEST_F(CmacRfc4493, VerifyRejectsEmptyAndShortMac) {
  // Regression: verify() used to accept any length <= 16, so an empty
  // tag compared zero bytes and "verified", and a 1-byte prefix gave a
  // 2^-8 forgery bound. Too-short tags — even byte-correct prefixes of
  // the genuine MAC — must be rejected before any comparison runs.
  const auto mac = cmac_.compute(msg_);
  EXPECT_FALSE(cmac_.verify(msg_, BytesView{}));
  for (std::size_t len = 1; len < AesCmac::kMinTagLen; ++len) {
    EXPECT_FALSE(cmac_.verify(msg_, BytesView{mac.data(), len}))
        << len << "-byte tag accepted below kMinTagLen";
  }
  // Over-long tags cannot match anything the algorithm produces either.
  std::array<std::uint8_t, 17> oversized{};
  std::copy(mac.begin(), mac.end(), oversized.begin());
  EXPECT_FALSE(cmac_.verify(msg_, oversized));
}

TEST_F(CmacRfc4493, ConstructionRunsExactlyOneKeySchedule) {
  // The key schedule (plus subkey derivation) happens once, at
  // construction; compute()/verify() afterwards never re-expand the key.
  // The dataplane fast path depends on this split: it caches AesCmac
  // contexts per forwarding key and expects MAC checks to be
  // schedule-free.
  const auto before = Aes128::key_schedules_run();
  const AesCmac fresh{array_from_hex<16>("000102030405060708090a0b0c0d0e0f")};
  const auto constructed = Aes128::key_schedules_run();
  EXPECT_EQ(constructed - before, 1u);
  for (int i = 0; i < 32; ++i) {
    const auto mac = fresh.compute(msg_);
    (void)fresh.verify(msg_, BytesView{mac.data(), AesCmac::kMinTagLen});
  }
  EXPECT_EQ(Aes128::key_schedules_run(), constructed);
}

void fill_random(Rng& rng, std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t word = rng.next_u64();
    for (std::size_t j = 0; j < 8 && i + j < out.size(); ++j) {
      out[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
  }
}

TEST(Crypto, AesCmacParityCorpus) {
  // Parity gate for the AES round: one SHA-256 over 204,800 ciphertext
  // blocks (2,048 seeded keys x 100 random blocks each), then over the
  // CMACs of every message length 0..300 under eight more keys. The
  // digest was taken from the byte-wise SubBytes/ShiftRows/MixColumns
  // round the T-table round replaced; a wrong table entry, a misplaced
  // rotation or a bad final round moves it.
  Rng rng{0xAE5128, "aes-cmac-corpus"};
  Sha256 digest;
  for (int k = 0; k < 2048; ++k) {
    Aes128::Key key;
    fill_random(rng, key);
    const Aes128 aes{key};
    for (int i = 0; i < 100; ++i) {
      Aes128::Block block;
      fill_random(rng, block);
      const Aes128::Block out = aes.encrypt(block);
      digest.update(BytesView{out.data(), out.size()});
    }
  }
  for (int k = 0; k < 8; ++k) {
    Aes128::Key key;
    fill_random(rng, key);
    const AesCmac cmac{key};
    for (std::size_t len = 0; len <= 300; ++len) {
      Bytes msg(len);
      fill_random(rng, msg);
      const AesCmac::Mac mac = cmac.compute(msg);
      digest.update(BytesView{mac.data(), mac.size()});
    }
  }
  EXPECT_EQ(to_hex(digest.finish()),
            "04d4de71e8a11545dc541aee07f65e41a50cdc1680f56e1bdc710a9f243cb459");
}

TEST(Crypto, AesChainMatchesPortableRounds) {
  // chain() against the referee, a loop over the portable T-table round:
  // 64 seeded keys, every chain length 0..64 and all 16 start offsets
  // into the buffer (so the blocks sit at every alignment). On a CPU with
  // AES-NI this checks the hardware rounds against the T-table rounds.
  Rng rng{0xC4A1, "aes-chain"};
  Bytes buffer(64 * Aes128::kBlockSize + 16);
  for (int k = 0; k < 64; ++k) {
    Aes128::Key key;
    fill_random(rng, key);
    const Aes128 aes{key};
    fill_random(rng, buffer);
    for (std::size_t blocks = 0; blocks <= 64; ++blocks) {
      const std::size_t offset = (static_cast<std::size_t>(k) + blocks) % 16;
      const std::uint8_t* data = buffer.data() + offset;
      Aes128::Block iv;
      fill_random(rng, iv);
      Aes128::Block expected = iv;
      for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t i = 0; i < Aes128::kBlockSize; ++i) {
          expected[i] ^= data[16 * b + i];
        }
        aes.encrypt_block(expected.data(), expected.data());
      }
      Aes128::Block state = iv;
      aes.chain(state, data, blocks);
      ASSERT_EQ(to_hex(state), to_hex(expected))
          << "key " << k << ", " << blocks << " blocks at offset " << offset;
    }
  }
}

// --- Ed25519 (RFC 8032 test vectors) ---------------------------------------------

KeyPair random_key(Rng& rng) {
  Ed25519::Seed seed{};
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  return KeyPair::from_seed(seed);
}

TEST(Ed25519Sig, Rfc8032Vector1EmptyMessage) {
  const auto key = KeyPair::from_seed(array_from_hex<32>(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  EXPECT_EQ(to_hex(key.pub()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = Ed25519::sign(key, {});
  EXPECT_EQ(to_hex(sig),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(Ed25519::verify(key.pub(), {}, sig));
}

TEST(Ed25519Sig, Rfc8032Vector2OneByte) {
  const auto key = KeyPair::from_seed(array_from_hex<32>(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  EXPECT_EQ(to_hex(key.pub()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const Bytes msg = hex("72");
  const auto sig = Ed25519::sign(key, msg);
  EXPECT_EQ(to_hex(sig),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(Ed25519::verify(key.pub(), msg, sig));
}

TEST(Ed25519Sig, RejectsTamperedMessage) {
  Rng rng{7};
  const auto key = random_key(rng);
  const Bytes msg = bytes_of("path segment payload");
  const auto sig = Ed25519::sign(key, msg);
  EXPECT_TRUE(Ed25519::verify(key.pub(), msg, sig));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(Ed25519::verify(key.pub(), tampered, sig));
}

TEST(Ed25519Sig, RejectsTamperedSignature) {
  Ed25519::Seed seed{};
  seed[0] = 9;
  const auto key = KeyPair::from_seed(seed);
  const Bytes msg = bytes_of("x");
  auto sig = Ed25519::sign(key, msg);
  sig[40] ^= 0x20;
  EXPECT_FALSE(Ed25519::verify(key.pub(), msg, sig));
}

TEST(Ed25519Sig, RejectsWrongKey) {
  Ed25519::Seed seed_a{}, seed_b{};
  seed_a[0] = 1;
  seed_b[0] = 2;
  const auto pk_b = Ed25519::public_key(seed_b);
  const Bytes msg = bytes_of("trc payload");
  const auto sig = Ed25519::sign(KeyPair::from_seed(seed_a), msg);
  EXPECT_FALSE(Ed25519::verify(pk_b, msg, sig));
}

// (R = B, s = 1), which verifies under any public key A with k*A equal to
// the identity, since s*B - k*A = B.
Ed25519::Signature base_point_forgery() {
  Ed25519::Signature forged{};
  forged[0] = 0x58;  // R = encoding of the base point (y = 4/5)
  for (std::size_t i = 1; i < 32; ++i) forged[i] = 0x66;
  forged[32] = 1;  // s = 1
  return forged;
}

TEST(Ed25519Sig, RejectsNonCanonicalPublicKey) {
  // RFC 8032 section 5.1.3: a point encoding whose y is not below p must
  // fail to decode. EE FF..FF 7F is y = p + 1, which reduces to y = 1, the
  // identity. Decoded leniently, A = identity makes (R = B, s = 1) verify
  // over any message: s*B - k*A = B. Every y in [p, p + 18], with either
  // sign bit, must be rejected.
  const Ed25519::Signature forged = base_point_forgery();
  for (int k = 0; k <= 18; ++k) {
    for (const std::uint8_t sign : {0x00, 0x80}) {
      Ed25519::PublicKey pub{};
      pub.fill(0xFF);
      pub[0] = static_cast<std::uint8_t>(0xED + k);
      pub[31] = static_cast<std::uint8_t>(0x7F | sign);
      for (const char* text : {"", "any message", "trc payload"}) {
        EXPECT_FALSE(Ed25519::verify(pub, bytes_of(text), forged))
            << "y = p + " << k << ", sign " << int{sign} << ", \"" << text
            << "\"";
      }
    }
  }
}

TEST(Ed25519Sig, SignatureCorpusMatchesReferenceDigest) {
  // Parity gate for the signing kernel: SHA-256 over the signatures of 64
  // seeded keys x message lengths 0..255, in that order. The digest was
  // taken from the bit-serial double-and-add implementation this one
  // replaced; any change in field, group or scalar arithmetic that alters a
  // single signature byte moves it.
  Sha256 digest;
  for (std::uint64_t i = 0; i < 64; ++i) {
    Rng rng{0xED25519 + i};
    const auto key = random_key(rng);
    for (std::size_t len = 0; len < 256; ++len) {
      Bytes msg(len);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
      const auto sig = Ed25519::sign(key, msg);
      digest.update(BytesView{sig.data(), sig.size()});
    }
  }
  EXPECT_EQ(to_hex(digest.finish()),
            "113fa8fe3e47ced3dee0140ef0fe6c33b57ecdb58e05256da4bdb9bbddfe61d5");
}

TEST(Ed25519Sig, PublicKeyCorpusMatchesReferenceDigest) {
  // Parity gate for key derivation: SHA-256 over the public keys of 4,096
  // seeded keys. Clamping sets bit 254 of every secret scalar, so this is
  // the corpus that reaches the top digit of the fixed-base recoding (the
  // signing corpus above multiplies B only by scalars reduced mod L). The
  // digest was taken from the radix-16 table before the radix-64 one.
  Sha256 digest;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    Rng rng{0xB45E0000 + i};
    Ed25519::Seed seed{};
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto pub = Ed25519::public_key(seed);
    digest.update(BytesView{pub.data(), pub.size()});
  }
  EXPECT_EQ(to_hex(digest.finish()),
            "e2036188dddeebdbfb6d0686269dece2a2cd2c5b209575283666cdc0d51db624");
}

TEST(Ed25519Sig, RejectsSmallOrderPublicKeys) {
  // The eight curve points whose order divides 8, canonically encoded.
  // Under such an A, k*A is the identity whenever the order divides
  // k = H(R || A || M), and then (R = B, s = 1) verifies: s*B - k*A = B.
  // Under the identity key that is every message; under the others, half,
  // a quarter or an eighth of them. No key from KeyPair::from_seed has
  // small order (a*B lies in the prime-order subgroup).
  const char* const small_order[] = {
      // identity (0, 1)
      "0100000000000000000000000000000000000000000000000000000000000000",
      // (0, -1), order 2
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      // (+-sqrt(-1), 0), order 4
      "0000000000000000000000000000000000000000000000000000000000000000",
      "0000000000000000000000000000000000000000000000000000000000000080",
      // order 8, both signs of x for each of the two y values
      "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
      "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
  };
  const Ed25519::Signature forged = base_point_forgery();
  for (const char* encoding : small_order) {
    const auto pub = array_from_hex<32>(encoding);
    int accepted = 0;
    for (int m = 0; m < 64; ++m) {
      const Bytes msg = bytes_of("message " + std::to_string(m));
      accepted += Ed25519::verify(pub, msg, forged) ? 1 : 0;
    }
    EXPECT_EQ(accepted, 0) << encoding << " accepted " << accepted
                           << " of 64 forgeries";
  }
}

TEST(Ed25519Sig, SignaturesMadeCountsSignCallsOnly) {
  Rng rng{11};
  const auto key = random_key(rng);
  const Bytes msg = bytes_of("counted");
  const auto before = Ed25519::signatures_made();
  const auto sig = Ed25519::sign(key, msg);
  (void)Ed25519::sign(key, msg);
  EXPECT_EQ(Ed25519::signatures_made() - before, 2u);
  // Key derivation and verification are not signatures.
  (void)KeyPair::from_seed(key.seed());
  EXPECT_TRUE(Ed25519::verify(key.pub(), msg, sig));
  EXPECT_EQ(Ed25519::signatures_made() - before, 2u);
}

// Property sweep: sign/verify round-trips across message sizes.
class Ed25519Property : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Ed25519Property, SignVerifyRoundTrip) {
  Rng rng{GetParam() * 977 + 3};
  const auto key = random_key(rng);
  Bytes msg(GetParam());
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto sig = Ed25519::sign(key, msg);
  EXPECT_TRUE(Ed25519::verify(key.pub(), msg, sig));
  if (!msg.empty()) {
    msg[msg.size() / 2] ^= 0x80;
    EXPECT_FALSE(Ed25519::verify(key.pub(), msg, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(MessageSizes, Ed25519Property,
                         ::testing::Values(0, 1, 31, 32, 33, 63, 64, 100, 255,
                                           1024));

// Property sweep: CMAC over random messages, verify + tamper.
class CmacProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CmacProperty, ComputeVerifyTamper) {
  Rng rng{GetParam() + 101};
  Aes128::Key key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  AesCmac cmac{key};
  Bytes msg(GetParam());
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto mac = cmac.compute(msg);
  EXPECT_TRUE(cmac.verify(msg, mac));
  if (!msg.empty()) {
    Bytes bad = msg;
    bad[0] ^= 1;
    EXPECT_FALSE(cmac.verify(bad, mac));
  }
}

INSTANTIATE_TEST_SUITE_P(MessageSizes, CmacProperty,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 48,
                                           64, 100, 256));

}  // namespace
}  // namespace sciera::crypto
