#include "crypto/aes128.h"

#include <atomic>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <wmmintrin.h>
#endif

namespace sciera::crypto {
namespace {

// GF(2^8) multiplication with the AES polynomial x^8+x^4+x^3+x+1 (0x11B).
std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    const bool hi = a & 0x80;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1B;
    b >>= 1;
  }
  return p;
}

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1B : 0x00));
}

// The S-box and the four T-tables of the round function. te[0][x] is the
// MixColumns column (2, 1, 1, 3) * S[x], packed with row 0 in the top
// byte; te[1..3] are its byte rotations, one per input row. One lookup
// per state byte then does SubBytes, ShiftRows (which column a row is
// read from) and MixColumns together.
struct Tables {
  std::array<std::uint8_t, 256> sbox{};
  std::array<std::array<std::uint32_t, 256>, 4> te{};
  Tables() {
    // Multiplicative inverse table via brute force (256x256 is trivial),
    // then the AES affine transform.
    std::array<std::uint8_t, 256> inv{};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (gmul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)) == 1) {
          inv[static_cast<std::size_t>(a)] = static_cast<std::uint8_t>(b);
          break;
        }
      }
    }
    for (int x = 0; x < 256; ++x) {
      const std::uint8_t i = inv[static_cast<std::size_t>(x)];
      std::uint8_t s = 0;
      for (int bit = 0; bit < 8; ++bit) {
        const int v = ((i >> bit) & 1) ^ ((i >> ((bit + 4) % 8)) & 1) ^
                      ((i >> ((bit + 5) % 8)) & 1) ^ ((i >> ((bit + 6) % 8)) & 1) ^
                      ((i >> ((bit + 7) % 8)) & 1) ^ ((0x63 >> bit) & 1);
        s = static_cast<std::uint8_t>(s | (v << bit));
      }
      sbox[static_cast<std::size_t>(x)] = s;
    }
    for (std::size_t x = 0; x < 256; ++x) {
      const std::uint32_t s = sbox[x];
      const std::uint32_t s2 = xtime(sbox[x]);
      const std::uint32_t column =
          (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s);
      for (int row = 0; row < 4; ++row) {
        te[static_cast<std::size_t>(row)][x] = std::rotr(column, 8 * row);
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// Relaxed: a pure tally, read as deltas by tests and benchmarks.
std::atomic<std::uint64_t> g_key_schedules_run{0};

#if defined(__x86_64__)
// The AES-NI chain: the 11 round keys stay in registers across blocks, and
// each block is one whitening XOR, nine AESENC rounds and one AESENCLAST.
// Compiled for the "aes" target alone, so the rest of the program keeps
// the baseline instruction set; called only when the CPU reports AES-NI.
__attribute__((target("aes"))) void chain_aesni(
    const std::uint8_t* round_keys, std::uint8_t* state,
    const std::uint8_t* data, std::size_t blocks) {
  const auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  __m128i rk[11];
  for (int i = 0; i < 11; ++i) rk[i] = load(round_keys + 16 * i);
  __m128i s = load(state);
  for (std::size_t b = 0; b < blocks; ++b) {
    s = _mm_xor_si128(_mm_xor_si128(s, load(data + 16 * b)), rk[0]);
    for (int round = 1; round < 10; ++round) s = _mm_aesenc_si128(s, rk[round]);
    s = _mm_aesenclast_si128(s, rk[10]);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), s);
}

bool cpu_has_aesni() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes");
}
#endif

}  // namespace

std::uint64_t Aes128::key_schedules_run() {
  return g_key_schedules_run.load(std::memory_order_relaxed);
}

Aes128::Aes128(const Key& key) {
  g_key_schedules_run.fetch_add(1, std::memory_order_relaxed);
  const auto& s = tables().sbox;
  std::array<std::uint8_t, 176>& bytes = round_key_bytes_;
  std::memcpy(bytes.data(), key.data(), 16);
  std::uint8_t rcon = 0x01;
  for (int round = 1; round <= 10; ++round) {
    const std::uint8_t* prev = bytes.data() + (round - 1) * 16;
    std::uint8_t* out = bytes.data() + round * 16;
    // RotWord + SubWord + Rcon on the last word of the previous round key.
    std::uint8_t t[4] = {s[prev[13]], s[prev[14]], s[prev[15]], s[prev[12]]};
    t[0] ^= rcon;
    rcon = xtime(rcon);
    for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(prev[i] ^ t[i]);
    for (int i = 4; i < 16; ++i) {
      out[i] = static_cast<std::uint8_t>(prev[i] ^ out[i - 4]);
    }
  }
  for (std::size_t i = 0; i < round_keys_.size(); ++i) {
    round_keys_[i] = load_be32(bytes.data() + 4 * i);
  }
}

void Aes128::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  const Tables& t = tables();
  const auto& te0 = t.te[0];
  const auto& te1 = t.te[1];
  const auto& te2 = t.te[2];
  const auto& te3 = t.te[3];
  // The state is four big-endian column words, row 0 in the top byte.
  // Output column c takes row r from input column c + r (ShiftRows).
  const auto mix = [&](std::uint32_t c0, std::uint32_t c1, std::uint32_t c2,
                       std::uint32_t c3) {
    return te0[c0 >> 24] ^ te1[(c1 >> 16) & 0xFF] ^ te2[(c2 >> 8) & 0xFF] ^
           te3[c3 & 0xFF];
  };
  // The final round has no MixColumns: plain S-box bytes, shifted.
  const auto sub = [&](std::uint32_t c0, std::uint32_t c1, std::uint32_t c2,
                       std::uint32_t c3) {
    return (std::uint32_t{t.sbox[c0 >> 24]} << 24) |
           (std::uint32_t{t.sbox[(c1 >> 16) & 0xFF]} << 16) |
           (std::uint32_t{t.sbox[(c2 >> 8) & 0xFF]} << 8) |
           std::uint32_t{t.sbox[c3 & 0xFF]};
  };
  const std::uint32_t* rk = round_keys_.data();
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  for (int round = 1; round < 10; ++round) {
    rk += 4;
    const std::uint32_t t0 = mix(s0, s1, s2, s3) ^ rk[0];
    const std::uint32_t t1 = mix(s1, s2, s3, s0) ^ rk[1];
    const std::uint32_t t2 = mix(s2, s3, s0, s1) ^ rk[2];
    const std::uint32_t t3 = mix(s3, s0, s1, s2) ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  store_be32(out, sub(s0, s1, s2, s3) ^ rk[0]);
  store_be32(out + 4, sub(s1, s2, s3, s0) ^ rk[1]);
  store_be32(out + 8, sub(s2, s3, s0, s1) ^ rk[2]);
  store_be32(out + 12, sub(s3, s0, s1, s2) ^ rk[3]);
}

Aes128::Block Aes128::encrypt(const Block& in) const {
  Block out;
  encrypt_block(in.data(), out.data());
  return out;
}

void Aes128::chain(Block& state, const std::uint8_t* data,
                   std::size_t blocks) const {
#if defined(__x86_64__)
  static const bool kAesNi = cpu_has_aesni();
  if (kAesNi) {
    chain_aesni(round_key_bytes_.data(), state.data(), data, blocks);
    return;
  }
#endif
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = 0; i < kBlockSize; ++i) state[i] ^= data[16 * b + i];
    encrypt_block(state.data(), state.data());
  }
}

}  // namespace sciera::crypto
