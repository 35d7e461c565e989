#include "crypto/ed25519.h"

#include <atomic>
#include <bit>
#include <cstring>

#include "crypto/sha512.h"

namespace sciera::crypto {
namespace {

// Relaxed: a pure tally, read as deltas by tests and benchmarks.
std::atomic<std::uint64_t> g_signatures_made{0};

// ---------------------------------------------------------------------------
// Field arithmetic over GF(p), p = 2^255 - 19, with 5 x 51-bit limbs.
//
// Reduction is lazy; DESIGN.md §15 derives the per-limb bounds. A value is
// "carried" when every limb is below 2^51 + 2^13: fe_mul, fe_sq and fe_sub
// return carried values, and every coordinate of a GePoint is one. fe_add
// does not carry, so its sum of two carried values has limbs below
// 2^52 + 2^14. fe_mul and fe_sq accept limbs below 2^54, which admits a sum
// of up to three carried values (at most two un-carried additions) before a
// multiply. fe_sub's subtrahend may be a sum of two carried values, no more.
// ---------------------------------------------------------------------------

struct Fe {
  std::uint64_t v[5] = {0, 0, 0, 0, 0};
};

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

Fe fe_zero() { return {}; }
Fe fe_one() {
  Fe r;
  r.v[0] = 1;
  return r;
}

// One carry pass over the limbs, the top carry wrapping around times 19.
// From limbs below 2^55 it leaves limb 0 below 2^51 + 2^9 and the rest
// below 2^51.
void fe_carry_pass(Fe& f) {
  std::uint64_t c;
  for (int i = 0; i < 4; ++i) {
    c = f.v[i] >> 51;
    f.v[i] &= kMask51;
    f.v[i + 1] += c;
  }
  c = f.v[4] >> 51;
  f.v[4] &= kMask51;
  f.v[0] += c * 19;
}

// Two passes: from limbs below 2^54, limb 0 ends below 2^51 + 19 and the
// rest below 2^51, so the value is below 2p, as fe_tobytes' final
// subtraction of p expects.
void fe_carry(Fe& f) {
  fe_carry_pass(f);
  fe_carry_pass(f);
}

// a - b + 4p, carried once. a: limbs below 2^54. b: limbs at most 4p's
// (2^53 - 76, then 2^53 - 4), so b may be a sum of two carried values.
// Returns a carried value.
Fe fe_sub(const Fe& a, const Fe& b) {
  // 2p in 51-bit limbs: {2^52-38, 2^52-2, 2^52-2, 2^52-2, 2^52-2}.
  constexpr std::uint64_t kTwoP0 = 0xFFFFFFFFFFFDAULL;
  constexpr std::uint64_t kTwoPi = 0xFFFFFFFFFFFFEULL;
  Fe r;
  r.v[0] = a.v[0] + kTwoP0 * 2 - b.v[0];
  r.v[1] = a.v[1] + kTwoPi * 2 - b.v[1];
  r.v[2] = a.v[2] + kTwoPi * 2 - b.v[2];
  r.v[3] = a.v[3] + kTwoPi * 2 - b.v[3];
  r.v[4] = a.v[4] + kTwoPi * 2 - b.v[4];
  fe_carry_pass(r);
  return r;
}

// Limb-wise sum, not carried: each output limb is the sum of the inputs'.
Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

using u128 = unsigned __int128;

// Carries five 128-bit column sums of a product back into 51-bit limbs.
// From inputs below 2^54, t0..t3 stay below 77 * 2^108 < 2^115, and t4,
// the one column without a factor 19, below 5 * 2^108 plus its carry-in;
// so the wrap carry out of t4 is below 2^59.4 and 19 times it below 2^64.
// One more carry from limb 0 into limb 1 leaves the result carried.
Fe fe_carry_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  std::uint64_t carry;
  r.v[0] = (std::uint64_t)t0 & kMask51;
  carry = (std::uint64_t)(t0 >> 51);
  t1 += carry;
  r.v[1] = (std::uint64_t)t1 & kMask51;
  carry = (std::uint64_t)(t1 >> 51);
  t2 += carry;
  r.v[2] = (std::uint64_t)t2 & kMask51;
  carry = (std::uint64_t)(t2 >> 51);
  t3 += carry;
  r.v[3] = (std::uint64_t)t3 & kMask51;
  carry = (std::uint64_t)(t3 >> 51);
  t4 += carry;
  r.v[4] = (std::uint64_t)t4 & kMask51;
  carry = (std::uint64_t)(t4 >> 51);
  r.v[0] += carry * 19;
  r.v[1] += r.v[0] >> 51;
  r.v[0] &= kMask51;
  return r;
}

// a * b. Inputs: limbs below 2^54. Returns a carried value.
Fe fe_mul(const Fe& a, const Fe& b) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19,
                      b4_19 = b4 * 19;

  const u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
                  (u128)a3 * b2_19 + (u128)a4 * b1_19;
  const u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
                  (u128)a3 * b3_19 + (u128)a4 * b2_19;
  const u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
                  (u128)a3 * b4_19 + (u128)a4 * b3_19;
  const u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
                  (u128)a3 * b0 + (u128)a4 * b4_19;
  const u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
                  (u128)a3 * b1 + (u128)a4 * b0;
  return fe_carry_wide(t0, t1, t2, t3, t4);
}

// fe_mul(a, a) with the symmetric cross terms merged: 15 products, not 25.
// Same bounds as fe_mul.
Fe fe_sq(const Fe& a) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t a0_2 = a0 * 2, a1_2 = a1 * 2;
  const std::uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;
  const std::uint64_t a3_38 = a3 * 38, a4_38 = a4 * 38;

  const u128 t0 = (u128)a0 * a0 + (u128)a1 * a4_38 + (u128)a2 * a3_38;
  const u128 t1 = (u128)a0_2 * a1 + (u128)a2 * a4_38 + (u128)a3 * a3_19;
  const u128 t2 = (u128)a0_2 * a2 + (u128)a1 * a1 + (u128)a3 * a4_38;
  const u128 t3 = (u128)a0_2 * a3 + (u128)a1_2 * a2 + (u128)a4 * a4_19;
  const u128 t4 = (u128)a0_2 * a4 + (u128)a1_2 * a3 + (u128)a2 * a2;
  return fe_carry_wide(t0, t1, t2, t3, t4);
}

// a^(2^n), n >= 1.
Fe fe_sq_times(const Fe& a, int n) {
  Fe r = fe_sq(a);
  for (int i = 1; i < n; ++i) r = fe_sq(r);
  return r;
}

// Full reduction into [0, p) and serialization, little-endian 32 bytes.
// Input: limbs below 2^54.
void fe_tobytes(std::uint8_t out[32], const Fe& in) {
  Fe f = in;
  fe_carry(f);
  // Now limbs < 2^51 + 19; subtract p if needed, twice to be safe.
  for (int pass = 0; pass < 2; ++pass) {
    // q = whether f >= p.
    std::uint64_t q = (f.v[0] + 19) >> 51;
    q = (f.v[1] + q) >> 51;
    q = (f.v[2] + q) >> 51;
    q = (f.v[3] + q) >> 51;
    q = (f.v[4] + q) >> 51;
    f.v[0] += 19 * q;
    std::uint64_t carry = f.v[0] >> 51;
    f.v[0] &= kMask51;
    f.v[1] += carry;
    carry = f.v[1] >> 51;
    f.v[1] &= kMask51;
    f.v[2] += carry;
    carry = f.v[2] >> 51;
    f.v[2] &= kMask51;
    f.v[3] += carry;
    carry = f.v[3] >> 51;
    f.v[3] &= kMask51;
    f.v[4] += carry;
    f.v[4] &= kMask51;
  }
  std::uint64_t limbs[4];
  limbs[0] = f.v[0] | (f.v[1] << 51);
  limbs[1] = (f.v[1] >> 13) | (f.v[2] << 38);
  limbs[2] = (f.v[2] >> 26) | (f.v[3] << 25);
  limbs[3] = (f.v[3] >> 39) | (f.v[4] << 12);
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 8; ++b) {
      out[i * 8 + b] = static_cast<std::uint8_t>(limbs[i] >> (8 * b));
    }
  }
}

Fe fe_frombytes(const std::uint8_t in[32]) {
  std::uint64_t limbs[4];
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b) v = (v << 8) | in[i * 8 + b];
    limbs[i] = v;
  }
  Fe r;
  r.v[0] = limbs[0] & kMask51;
  r.v[1] = ((limbs[0] >> 51) | (limbs[1] << 13)) & kMask51;
  r.v[2] = ((limbs[1] >> 38) | (limbs[2] << 26)) & kMask51;
  r.v[3] = ((limbs[2] >> 25) | (limbs[3] << 39)) & kMask51;
  r.v[4] = (limbs[3] >> 12) & kMask51;  // drops the sign bit (bit 255)
  return r;
}

// Whether the low 255 bits of `in` encode a value below p. The values in
// [p, 2^255) are p..p+18: bytes 1..30 all 0xFF, byte 31 0x7F (sign bit
// aside) and byte 0 at least 0xED.
bool fe_bytes_canonical(const std::uint8_t in[32]) {
  if ((in[31] & 0x7F) != 0x7F || in[0] < 0xED) return true;
  for (int i = 1; i < 31; ++i) {
    if (in[i] != 0xFF) return true;
  }
  return false;
}

bool fe_is_zero(const Fe& f) {
  std::uint8_t bytes[32];
  fe_tobytes(bytes, f);
  std::uint8_t acc = 0;
  for (auto b : bytes) acc |= b;
  return acc == 0;
}

bool fe_is_negative(const Fe& f) {
  std::uint8_t bytes[32];
  fe_tobytes(bytes, f);
  return bytes[0] & 1;
}

Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

bool fe_equal(const Fe& a, const Fe& b) { return fe_is_zero(fe_sub(a, b)); }

// z^(2^250 - 1), the prefix of the square-root exponent's addition chain.
Fe fe_pow_2_250_1(const Fe& z) {
  const Fe z2 = fe_sq(z);
  const Fe z9 = fe_mul(fe_sq_times(z2, 2), z);
  const Fe z11 = fe_mul(z9, z2);
  const Fe z_5_0 = fe_mul(fe_sq(z11), z9);                     // 2^5 - 1
  const Fe z_10_0 = fe_mul(fe_sq_times(z_5_0, 5), z_5_0);      // 2^10 - 1
  const Fe z_20_0 = fe_mul(fe_sq_times(z_10_0, 10), z_10_0);   // 2^20 - 1
  const Fe z_40_0 = fe_mul(fe_sq_times(z_20_0, 20), z_20_0);   // 2^40 - 1
  const Fe z_50_0 = fe_mul(fe_sq_times(z_40_0, 10), z_10_0);   // 2^50 - 1
  const Fe z_100_0 = fe_mul(fe_sq_times(z_50_0, 50), z_50_0);  // 2^100 - 1
  const Fe z_200_0 = fe_mul(fe_sq_times(z_100_0, 100), z_100_0);
  return fe_mul(fe_sq_times(z_200_0, 50), z_50_0);  // 2^250 - 1
}

// z^((p-5)/8) = z^(2^252 - 3), the exponent of the square-root candidate.
Fe fe_pow_p58(const Fe& z) {
  return fe_mul(fe_sq_times(fe_pow_2_250_1(z), 2), z);  // 2^252 - 4 + 1
}

// ---------------------------------------------------------------------------
// Inversion: variable-time safegcd (Bernstein-Yang divsteps), as in
// libsecp256k1's secp256k1_modinv64_var. Integers are signed-62 limbs,
// x = sum v[i] * 2^(62 i): limbs below the top one lie in [0, 2^62), the
// top one carries the sign. Each batch of 62 divsteps runs on the low 64
// bits of f and g alone and yields a 2x2 matrix t with |u| + |v| <= 2^62
// and |q| + |r| <= 2^62, which is then applied to the full f, g (divided
// by 2^62 exactly) and to d, e (made divisible with a multiple of p).
// DESIGN.md §15 gives the invariants.
// ---------------------------------------------------------------------------

using i128 = __int128;

struct Signed62 {
  std::int64_t v[5] = {0, 0, 0, 0, 0};
};

constexpr std::uint64_t kMask62 = ~std::uint64_t{0} >> 2;
// p = 2^255 - 19 = -19 + 128 * 2^(62 * 4).
constexpr Signed62 kP62{{-19, 0, 0, 0, 128}};

// a^-1 mod 2^64 for odd a, by Newton's iteration x <- x (2 - a x): x = a
// is right mod 2^3 (an odd square is 1 mod 8), and each step doubles the
// correct low bits, 3 -> 6 -> 12 -> 24 -> 48 -> 96.
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}
// p^-1 mod 2^62; p is -19 mod 2^62.
constexpr std::uint64_t kPInv62 =
    inverse_mod_2_64(std::uint64_t{0} - 19) & kMask62;
static_assert(((std::uint64_t{0} - 19) * kPInv62 & kMask62) == 1);

// The transition matrix of 62 divsteps: 2^62 (f', g') = (u f + v g,
// q f + r g).
struct Trans2x2 {
  std::int64_t u, v, q, r;
};

// 62 divsteps on the low 64 bits of f (odd) and g, with eta = -delta:
// returns their matrix and advances eta.
Trans2x2 divsteps_62_var(std::int64_t& eta, std::uint64_t f,
                         std::uint64_t g) {
  std::uint64_t u = 1, v = 0, q = 0, r = 1;
  int i = 62;  // divsteps left
  for (;;) {
    // A run of zeros in g is that many halvings; a sentinel bit stops the
    // count at the divsteps left.
    const int zeros = std::countr_zero(g | (~std::uint64_t{0} << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    const bool swap = eta < 0;
    if (swap) {
      // (eta, f, g) -> (-eta, g, -f), and the matrix's rows with them.
      eta = -eta;
      const std::uint64_t f_old = f, u_old = u, v_old = v;
      f = g;
      g = 0 - f_old;
      u = q;
      q = 0 - u_old;
      v = r;
      r = 0 - v_old;
    }
    // g is odd now. Add the multiple w = -g/f of f that clears g's low
    // bits: up to 6 of them right after a swap, where eta tends to be
    // larger, up to 4 otherwise. f (f^2 - 2) is -1/f mod 2^6, and
    // f + (((f + 1) & 4) << 1) is 1/f mod 2^4.
    std::uint64_t w = swap ? f * g * (f * f - 2)
                           : (0 - (f + (((f + 1) & 4) << 1))) * g;
    // Never more bits than eta + 1 (where eta would turn negative again)
    // or the divsteps left.
    const int limit = eta + 1 < i ? static_cast<int>(eta + 1) : i;
    w &= (~std::uint64_t{0} >> (64 - limit)) & (swap ? 63 : 15);
    g += f * w;
    q += u * w;
    r += v * w;
  }
  return Trans2x2{static_cast<std::int64_t>(u), static_cast<std::int64_t>(v),
                  static_cast<std::int64_t>(q), static_cast<std::int64_t>(r)};
}

// The low 62 bits of x, as a limb.
std::int64_t low62(std::uint64_t x) {
  return static_cast<std::int64_t>(x & kMask62);
}

// (d, e) <- (t (d, e) + p (md, me)) / 2^62, with md and me chosen so the
// division is exact. From d, e in (-2p, p) the results stay in (-2p, p).
void update_de_62(Signed62& d, Signed62& e, const Trans2x2& t) {
  const std::int64_t u = t.u, v = t.v, q = t.q, r = t.r;
  // Start md, me at (u, q) if d < 0, plus (v, r) if e < 0, which keeps
  // the results above -2p.
  const std::int64_t sd = d.v[4] >> 63, se = e.v[4] >> 63;
  std::int64_t md = (u & sd) + (v & se);
  std::int64_t me = (q & sd) + (r & se);
  i128 cd = i128{u} * d.v[0] + i128{v} * e.v[0];
  i128 ce = i128{q} * d.v[0] + i128{r} * e.v[0];
  // Lower md, me by less than 2^62 so that the low 62 bits cancel.
  md -= low62(kPInv62 * static_cast<std::uint64_t>(cd) +
              static_cast<std::uint64_t>(md));
  me -= low62(kPInv62 * static_cast<std::uint64_t>(ce) +
              static_cast<std::uint64_t>(me));
  cd += i128{kP62.v[0]} * md;
  ce += i128{kP62.v[0]} * me;
  cd >>= 62;
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += i128{u} * d.v[i] + i128{v} * e.v[i];
    ce += i128{q} * d.v[i] + i128{r} * e.v[i];
    if (i == 4) {  // p's limbs 1..3 are zero
      cd += i128{kP62.v[4]} * md;
      ce += i128{kP62.v[4]} * me;
    }
    d.v[i - 1] = low62(static_cast<std::uint64_t>(cd));
    e.v[i - 1] = low62(static_cast<std::uint64_t>(ce));
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<std::int64_t>(cd);
  e.v[4] = static_cast<std::int64_t>(ce);
}

// (f, g) <- t (f, g) / 2^62 over their low `len` limbs; the division is
// exact by construction of t.
void update_fg_62_var(int len, Signed62& f, Signed62& g, const Trans2x2& t) {
  const std::int64_t u = t.u, v = t.v, q = t.q, r = t.r;
  i128 cf = i128{u} * f.v[0] + i128{v} * g.v[0];
  i128 cg = i128{q} * f.v[0] + i128{r} * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < len; ++i) {
    cf += i128{u} * f.v[i] + i128{v} * g.v[i];
    cg += i128{q} * f.v[i] + i128{r} * g.v[i];
    f.v[i - 1] = low62(static_cast<std::uint64_t>(cf));
    g.v[i - 1] = low62(static_cast<std::uint64_t>(cg));
    cf >>= 62;
    cg >>= 62;
  }
  f.v[len - 1] = static_cast<std::int64_t>(cf);
  g.v[len - 1] = static_cast<std::int64_t>(cg);
}

// Ripples each limb's bits above 62 into the next one.
void carry_62(Signed62& x) {
  for (int i = 0; i < 4; ++i) {
    x.v[i + 1] += x.v[i] >> 62;
    x.v[i] = low62(static_cast<std::uint64_t>(x.v[i]));
  }
}

void add_p_if_negative(Signed62& x) {
  if (x.v[4] >= 0) return;
  x.v[0] += kP62.v[0];
  x.v[4] += kP62.v[4];
  carry_62(x);
}

// The value of a canonical 32-byte encoding in signed-62 limbs.
Signed62 signed62_from_bytes(const std::uint8_t in[32]) {
  std::uint64_t w[4] = {0, 0, 0, 0};
  for (int i = 0; i < 32; ++i) {
    w[i / 8] |= std::uint64_t{in[i]} << (8 * (i % 8));
  }
  Signed62 x;
  x.v[0] = low62(w[0]);
  x.v[1] = low62((w[0] >> 62) | (w[1] << 2));
  x.v[2] = low62((w[1] >> 60) | (w[2] << 4));
  x.v[3] = low62((w[2] >> 58) | (w[3] << 6));
  x.v[4] = static_cast<std::int64_t>(w[3] >> 56);
  return x;
}

// The encoding of x in [0, p): limbs 0..3 in [0, 2^62), limb 4 below 2^7.
void signed62_to_bytes(std::uint8_t out[32], const Signed62& x) {
  std::uint64_t l[5];
  for (int i = 0; i < 5; ++i) l[i] = static_cast<std::uint64_t>(x.v[i]);
  const std::uint64_t w[4] = {l[0] | (l[1] << 62), (l[1] >> 2) | (l[2] << 60),
                              (l[2] >> 4) | (l[3] << 58),
                              (l[3] >> 6) | (l[4] << 56)};
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(w[i / 8] >> (8 * (i % 8)));
  }
}

// 1/z mod p, and 0 for z = 0 (as z^(p-2) gives). Input: limbs below 2^54.
// Returns a value in [0, p).
Fe fe_invert(const Fe& z) {
  std::uint8_t bytes[32];
  fe_tobytes(bytes, z);
  // Start from d = 0, e = 1, f = p, g = z and eta = -1 (delta = 1).
  Signed62 d;
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f = kP62;
  Signed62 g = signed62_from_bytes(bytes);
  std::int64_t eta = -1;
  int len = 5;  // limbs of f and g still in use
  for (;;) {
    const Trans2x2 t = divsteps_62_var(
        eta, static_cast<std::uint64_t>(f.v[0]),
        static_cast<std::uint64_t>(g.v[0]));
    update_de_62(d, e, t);
    update_fg_62_var(len, f, g, t);
    if (g.v[0] == 0) {
      std::int64_t rest = 0;
      for (int j = 1; j < len; ++j) rest |= g.v[j];
      if (rest == 0) break;
    }
    // Drop the top limb once it is 0 or -1 in both f and g, folding its
    // sign into the limb below.
    const std::int64_t fn = f.v[len - 1], gn = g.v[len - 1];
    if (len > 1 && (fn == 0 || fn == -1) && (gn == 0 || gn == -1)) {
      f.v[len - 2] += fn * (std::int64_t{1} << 62);
      g.v[len - 2] += gn * (std::int64_t{1} << 62);
      --len;
    }
  }
  // Now g = 0 and f = +-1, their gcd, so d = +-1/z. Bring d from (-2p, p)
  // into (-p, p), negate it if f is -1, then into [0, p).
  add_p_if_negative(d);
  if (f.v[len - 1] < 0) {
    for (auto& limb : d.v) limb = -limb;
    carry_62(d);
  }
  add_p_if_negative(d);
  signed62_to_bytes(bytes, d);
  return fe_frombytes(bytes);
}

struct FieldConstants {
  Fe d;        // curve constant
  Fe d2;       // 2d
  Fe sqrt_m1;  // sqrt(-1)

  FieldConstants() {
    // d = -121665 / 121666 mod p.
    Fe num;
    num.v[0] = 121665;
    num = fe_neg(num);
    Fe den;
    den.v[0] = 121666;
    d = fe_mul(num, fe_invert(den));
    fe_carry(d);
    d2 = fe_add(d, d);
    fe_carry(d2);

    // sqrt(-1) = 2^((p-1)/4) = 2^(2^253 - 5) = (2^((p-5)/8))^2 * 2.
    Fe two;
    two.v[0] = 2;
    sqrt_m1 = fe_mul(fe_sq(fe_pow_p58(two)), two);
  }
};

const FieldConstants& fc() {
  static const FieldConstants c;
  return c;
}

// ---------------------------------------------------------------------------
// Group: twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2, extended
// coordinates (X:Y:Z:T) with x = X/Z, y = Y/Z, T = XY/Z.
// ---------------------------------------------------------------------------

struct GePoint {
  Fe x, y, z, t;
};

// An affine point (Z = 1) in the form mixed addition consumes.
struct GePrecomp {
  Fe ypx;   // y + x
  Fe ymx;   // y - x
  Fe xy2d;  // 2d * x * y
};

// A projective point in the form addition consumes.
struct GeCached {
  Fe ypx;  // Y + X
  Fe ymx;  // Y - X
  Fe z;
  Fe t2d;  // 2d * T
};

GePoint ge_identity() {
  GePoint p;
  p.x = fe_zero();
  p.y = fe_one();
  p.z = fe_one();
  p.t = fe_zero();
  return p;
}

GeCached ge_cached(const GePoint& p) {
  return GeCached{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z,
                  fe_mul(p.t, fc().d2)};
}

// The last step of unified addition ("add-2008-hwcd-3"), from its four
// products A = (Y1-X1)(Y2-X2), B = (Y1+X1)(Y2+X2), C = 2d T1 T2 and
// D = 2 Z1 Z2. Negating the second point swaps its y+x with y-x and flips
// the sign of C; the caller does the swap, `negate` the sign.
GePoint ge_add_finish(const Fe& a, const Fe& b, const Fe& c, const Fe& dd,
                      bool negate) {
  const Fe e = fe_sub(b, a);
  const Fe f = negate ? fe_add(dd, c) : fe_sub(dd, c);
  const Fe g = negate ? fe_sub(dd, c) : fe_add(dd, c);
  const Fe h = fe_add(b, a);
  GePoint r;
  r.x = fe_mul(e, f);
  r.y = fe_mul(g, h);
  r.t = fe_mul(e, h);
  r.z = fe_mul(f, g);
  return r;
}

// p + q (negate = false) or p - q (negate = true). Unified: also valid when
// p == q, and complete on this curve (a = -1 is a square, d is not).
GePoint ge_add(const GePoint& p, const GeCached& q, bool negate) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), negate ? q.ypx : q.ymx);
  const Fe b = fe_mul(fe_add(p.y, p.x), negate ? q.ymx : q.ypx);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe dd = fe_mul(fe_add(p.z, p.z), q.z);
  return ge_add_finish(a, b, c, dd, negate);
}

// The same for an affine q, with Z2 = 1 saving a multiplication.
GePoint ge_madd(const GePoint& p, const GePrecomp& q, bool negate) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), negate ? q.ypx : q.ymx);
  const Fe b = fe_mul(fe_add(p.y, p.x), negate ? q.ymx : q.ypx);
  const Fe c = fe_mul(p.t, q.xy2d);
  return ge_add_finish(a, b, c, fe_add(p.z, p.z), negate);
}

// 2p by "dbl-2008-hwcd" with a = -1: 4 squarings and 4 multiplications,
// where adding p to itself takes 9 multiplications. With A = X^2, B = Y^2,
// E = 2XY = (X+Y)^2 - A - B, G = B - A, F = 2Z^2 - G and H = A + B, the
// double is (E F : G H : F G : E H), the formula's own result scaled by -1.
// Complete, like the addition: G and F are nonzero on the curve.
GePoint ge_dbl(const GePoint& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe h = fe_add(a, b);
  const Fe e = fe_sub(fe_sq(fe_add(p.x, p.y)), h);
  const Fe g = fe_sub(b, a);
  const Fe f = fe_sub(fe_add(zz, zz), g);
  GePoint r;
  r.x = fe_mul(e, f);
  r.y = fe_mul(g, h);
  r.t = fe_mul(e, h);
  r.z = fe_mul(f, g);
  return r;
}

// Recodes a scalar below 2^255 into N signed digits of W bits, e_i in
// [-2^(W-1), 2^(W-1)] with scalar = sum e_i * 2^(W i). Every digit but the
// top one lies in [-2^(W-1), 2^(W-1)); the top one absorbs the last carry.
// The digits are 16 bits wide: before the carry pass a radix-256 digit is
// a raw byte, up to 255.
template <int W, int N>
void recode_signed(std::int16_t (&e)[N], const std::uint8_t scalar[32]) {
  static_assert(W * N >= 255 && W * (N - 1) < 255);
  for (int i = 0; i < N; ++i) {
    const int bit = W * i;
    unsigned window = scalar[bit / 8] >> (bit % 8);
    if (bit % 8 + W > 8 && bit / 8 + 1 < 32) {
      window |= unsigned{scalar[bit / 8 + 1]} << (8 - bit % 8);
    }
    e[i] = static_cast<std::int16_t>(window & ((1u << W) - 1));
  }
  int carry = 0;
  for (int i = 0; i < N - 1; ++i) {
    const int digit = e[i] + carry;
    carry = (digit + (1 << (W - 1))) >> W;
    e[i] = static_cast<std::int16_t>(digit - (carry << W));
  }
  e[N - 1] = static_cast<std::int16_t>(e[N - 1] + carry);
}

// Variable-time scalar * p for a scalar below 2^255 (verify's k is reduced
// mod L): 64 signed radix-16 digits in [-8, 8] over 8 cached multiples of
// p, so 252 doublings and at most 64 additions.
GePoint ge_scalar_mult(const GePoint& p, const std::uint8_t scalar[32]) {
  GeCached multiples[8];  // (j + 1) * p
  multiples[0] = ge_cached(p);
  GePoint multiple = p;
  for (int j = 1; j < 8; ++j) {
    multiple = ge_add(multiple, multiples[0], false);
    multiples[j] = ge_cached(multiple);
  }

  std::int16_t e[64]{};
  recode_signed<4>(e, scalar);
  GePoint acc = ge_identity();
  for (int i = 63; i >= 0; --i) {
    if (i < 63) {
      for (int k = 0; k < 4; ++k) acc = ge_dbl(acc);
    }
    if (e[i] == 0) continue;
    const bool negate = e[i] < 0;
    const int magnitude = negate ? -e[i] : e[i];
    acc = ge_add(acc, multiples[magnitude - 1], negate);
  }
  return acc;
}

// Whether 8p is the identity, i.e. p is one of the eight points of small
// order: (0 : Y : Y : 0) after three doublings.
bool ge_has_small_order(const GePoint& p) {
  const GePoint p8 = ge_dbl(ge_dbl(ge_dbl(p)));
  return fe_is_zero(p8.x) && fe_equal(p8.y, p8.z);
}

void ge_compress(std::uint8_t out[32], const GePoint& p) {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  fe_tobytes(out, y);
  if (fe_is_negative(x)) out[31] |= 0x80;
}

// RFC 8032 section 5.1.3 decoding. Rejects a y that is not below p (the
// encoding must be canonical), a y with no x on the curve, and x = 0 with
// the sign bit set.
bool ge_decompress(GePoint& out, const std::uint8_t in[32]) {
  if (!fe_bytes_canonical(in)) return false;
  const bool sign = (in[31] & 0x80) != 0;
  const Fe y = fe_frombytes(in);
  // x^2 = (y^2 - 1) / (d y^2 + 1)
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(fc().d, y2), fe_one());
  // candidate x = u v^3 (u v^7)^((p-5)/8)
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  const Fe pow = fe_pow_p58(fe_mul(u, v7));
  Fe x = fe_mul(fe_mul(u, v3), pow);
  const Fe vxx = fe_mul(v, fe_sq(x));
  if (!fe_equal(vxx, u)) {
    if (fe_equal(vxx, fe_neg(u))) {
      x = fe_mul(x, fc().sqrt_m1);
    } else {
      return false;
    }
  }
  if (fe_is_zero(x) && sign) return false;  // -0 is invalid
  if (fe_is_negative(x) != sign) x = fe_neg(x);
  out.x = x;
  out.y = y;
  out.z = fe_one();
  out.t = fe_mul(x, y);
  return true;
}

const GePoint& ge_base() {
  static const GePoint base = [] {
    // Canonical encoding of the base point: y = 4/5, sign(x) = 0.
    std::uint8_t enc[32];
    std::memset(enc, 0x66, 32);
    enc[0] = 0x58;
    GePoint b;
    const bool ok = ge_decompress(b, enc);
    (void)ok;
    return b;
  }();
  return base;
}

// Multiples of the base point for signed radix-256 scalar multiplication:
// at[i][j] = (j + 1) * 256^i * B for i < 32, j < 128. 4,096 affine points
// (480 KiB), computed once from ge_base() at first use. Each row is built
// as 128 projective multiples whose Z's share one inversion (Montgomery's
// trick), so the table costs 32 inversions, not 4,096; the working space
// is one row's worth (≈25 KiB), on the stack.
struct BaseTable {
  static constexpr int kRows = 32;
  static constexpr int kColumns = 128;
  GePrecomp at[kRows][kColumns];

  BaseTable() {
    GePoint power = ge_base();  // 256^i * B
    for (auto& row : at) {
      GePoint multiple[kColumns];  // (j + 1) * power
      Fe prefix[kColumns];         // z_0 * z_1 * ... * z_j
      const GeCached step = ge_cached(power);
      multiple[0] = power;
      prefix[0] = power.z;
      for (int j = 1; j < kColumns; ++j) {
        multiple[j] = ge_add(multiple[j - 1], step, false);
        prefix[j] = fe_mul(prefix[j - 1], multiple[j].z);
      }
      // 1 / (z_0 ... z_j), j from the last column down.
      Fe inv = fe_invert(prefix[kColumns - 1]);
      for (int j = kColumns - 1; j >= 0; --j) {
        Fe zinv = inv;
        if (j > 0) {
          zinv = fe_mul(inv, prefix[j - 1]);
          inv = fe_mul(inv, multiple[j].z);
        }
        const Fe x = fe_mul(multiple[j].x, zinv);
        const Fe y = fe_mul(multiple[j].y, zinv);
        row[j].ypx = fe_add(y, x);
        row[j].ymx = fe_sub(y, x);
        row[j].xy2d = fe_mul(fe_mul(x, y), fc().d2);
      }
      power = ge_dbl(multiple[kColumns - 1]);  // 2 * 128 * power
    }
  }
};

const BaseTable& base_table() {
  static const BaseTable table;
  return table;
}

// scalar * B for a scalar below 2^255 (every caller's is: clamped secret
// scalars clear bit 255, and the others are reduced mod L). The scalar is
// recoded into 32 signed digits e_i in [-128, 128] with sum e_i * 256^i,
// so the product is at most 32 table additions and no doublings. The top
// digit covers bits 248..254 plus the last carry, so it is at most 128,
// the last column.
GePoint ge_scalar_mult_base(const std::uint8_t scalar[32]) {
  std::int16_t e[BaseTable::kRows]{};
  recode_signed<8>(e, scalar);

  const BaseTable& table = base_table();
  GePoint acc = ge_identity();
  for (int i = 0; i < BaseTable::kRows; ++i) {
    if (e[i] == 0) continue;
    const bool negate = e[i] < 0;
    const int magnitude = negate ? -e[i] : e[i];
    acc = ge_madd(acc, table.at[i][magnitude - 1], negate);
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L = 2^252 + 27742317777372353535851937790883648493.
// 32-bit-limb big integers, reduced with Barrett's method (HAC 14.42).
// ---------------------------------------------------------------------------

struct U512 {
  std::uint32_t w[16] = {0};  // little-endian

  static U512 from_bytes(const std::uint8_t* bytes, std::size_t len) {
    U512 r;
    for (std::size_t i = 0; i < len && i < 64; ++i) {
      r.w[i / 4] |= static_cast<std::uint32_t>(bytes[i]) << (8 * (i % 4));
    }
    return r;
  }

  [[nodiscard]] int compare(const U512& o) const {
    for (int i = 15; i >= 0; --i) {
      if (w[i] != o.w[i]) return w[i] < o.w[i] ? -1 : 1;
    }
    return 0;
  }

  void sub(const U512& o) {
    std::int64_t borrow = 0;
    for (int i = 0; i < 16; ++i) {
      std::int64_t cur = static_cast<std::int64_t>(w[i]) - o.w[i] - borrow;
      borrow = cur < 0 ? 1 : 0;
      if (cur < 0) cur += (std::int64_t{1} << 32);
      w[i] = static_cast<std::uint32_t>(cur);
    }
  }

  void add(const U512& o) {
    std::uint64_t carry = 0;
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t cur = static_cast<std::uint64_t>(w[i]) + o.w[i] + carry;
      w[i] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
  }

  void shl1() {
    std::uint32_t carry = 0;
    for (int i = 0; i < 16; ++i) {
      const std::uint32_t next = w[i] >> 31;
      w[i] = (w[i] << 1) | carry;
      carry = next;
    }
  }
};

U512 mul_256(const U512& a, const U512& b) {
  // Schoolbook on the low 8 limbs of each (256x256 -> 512).
  std::uint64_t acc[17] = {0};
  for (int i = 0; i < 8; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 8; ++j) {
      const std::uint64_t cur =
          acc[i + j] + static_cast<std::uint64_t>(a.w[i]) * b.w[j] + carry;
      acc[i + j] = cur & 0xFFFFFFFF;
      carry = cur >> 32;
    }
    acc[i + 8] += carry;
  }
  U512 r;
  for (int i = 0; i < 16; ++i) r.w[i] = static_cast<std::uint32_t>(acc[i]);
  return r;
}

// L and the Barrett factor mu = floor(2^512 / L), which has 260 bits.
struct ScalarConstants {
  U512 l;
  U512 mu;

  ScalarConstants() {
    // L = 2^252 + 0x14DEF9DEA2F79CD65812631A5CF5D3ED
    const std::uint8_t low[16] = {0xED, 0xD3, 0xF5, 0x5C, 0x1A, 0x63, 0x12,
                                  0x58, 0xD6, 0x9C, 0xF7, 0xA2, 0xDE, 0xF9,
                                  0xDE, 0x14};
    l = U512::from_bytes(low, 16);
    l.w[7] |= std::uint32_t{1} << 28;  // + 2^252

    // Binary long division of 2^512 by L; the remainder stays below 2L.
    U512 rem;
    for (int bit = 512; bit >= 0; --bit) {
      rem.shl1();
      if (bit == 512) rem.w[0] |= 1;
      if (rem.compare(l) >= 0) {
        rem.sub(l);
        mu.w[bit / 32] |= std::uint32_t{1} << (bit % 32);
      }
    }
  }
};

const ScalarConstants& sc() {
  static const ScalarConstants c;
  return c;
}

// x mod L for any x < 2^512, with 32-bit limbs (b = 2^32, k = 8):
// q = floor(floor(x / b^7) * mu / b^9) undershoots floor(x / L) by at most
// 2, so x - q*L, taken mod b^9, is below 3L and two conditional
// subtractions finish the job.
U512 mod_l(const U512& x) {
  const U512& l = sc().l;
  const U512& mu = sc().mu;

  // q2 = (x >> 224) * mu; only its limbs 9..17 are kept.
  std::uint64_t q2[19] = {0};
  for (int i = 0; i < 9; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 9; ++j) {
      const std::uint64_t cur =
          q2[i + j] + static_cast<std::uint64_t>(x.w[7 + i]) * mu.w[j] + carry;
      q2[i + j] = cur & 0xFFFFFFFF;
      carry = cur >> 32;
    }
    q2[i + 9] += carry;
  }
  std::uint32_t q3[9];
  for (int i = 0; i < 9; ++i) q3[i] = static_cast<std::uint32_t>(q2[9 + i]);

  // r2 = q3 * L mod b^9.
  std::uint64_t r2[9] = {0};
  for (int i = 0; i < 9; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; i + j < 9; ++j) {
      const std::uint64_t cur =
          r2[i + j] + static_cast<std::uint64_t>(q3[i]) * l.w[j] + carry;
      r2[i + j] = cur & 0xFFFFFFFF;
      carry = cur >> 32;
    }
  }

  // r = x mod b^9 - r2, wrapping mod b^9.
  U512 r;
  std::uint64_t borrow = 0;
  for (int i = 0; i < 9; ++i) {
    const std::uint64_t cur = static_cast<std::uint64_t>(x.w[i]) - r2[i] - borrow;
    r.w[i] = static_cast<std::uint32_t>(cur);
    borrow = (cur >> 32) & 1;
  }
  while (r.compare(l) >= 0) r.sub(l);
  return r;
}

void sc_to_bytes(std::uint8_t out[32], const U512& s) {
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(s.w[i / 4] >> (8 * (i % 4)));
  }
}

// Reduces a 64-byte little-endian value mod L into 32 bytes.
void sc_reduce(std::uint8_t out[32], const std::uint8_t in[64]) {
  sc_to_bytes(out, mod_l(U512::from_bytes(in, 64)));
}

// out = (a*b + c) mod L, all 32-byte little-endian scalars.
void sc_muladd(std::uint8_t out[32], const std::uint8_t a[32],
               const std::uint8_t b[32], const std::uint8_t c[32]) {
  U512 prod = mul_256(U512::from_bytes(a, 32), U512::from_bytes(b, 32));
  prod.add(U512::from_bytes(c, 32));
  sc_to_bytes(out, mod_l(prod));
}

// Checks s < L (RFC 8032 verification requirement).
bool sc_is_canonical(const std::uint8_t s[32]) {
  const U512 v = U512::from_bytes(s, 32);
  return v.compare(sc().l) < 0;
}

void clamp(std::uint8_t scalar[32]) {
  scalar[0] &= 0xF8;
  scalar[31] &= 0x7F;
  scalar[31] |= 0x40;
}

Sha512::Digest hash3(BytesView a, BytesView b, BytesView c) {
  Sha512 h;
  h.update(a).update(b).update(c);
  return h.finish();
}

}  // namespace

KeyPair KeyPair::from_seed(const Ed25519::Seed& seed) {
  const auto h = Sha512::hash(BytesView{seed.data(), seed.size()});
  KeyPair key;
  key.seed_ = seed;
  std::memcpy(key.scalar_.data(), h.data(), 32);
  clamp(key.scalar_.data());
  std::memcpy(key.prefix_.data(), h.data() + 32, 32);
  ge_compress(key.pub_.data(), ge_scalar_mult_base(key.scalar_.data()));
  return key;
}

Ed25519::PublicKey Ed25519::public_key(const Seed& seed) {
  return KeyPair::from_seed(seed).pub();
}

Ed25519::Signature Ed25519::sign(const KeyPair& key, BytesView message) {
  g_signatures_made.fetch_add(1, std::memory_order_relaxed);
  const std::uint8_t* a = key.scalar_.data();

  // r = H(prefix || M) mod L
  Sha512 rh;
  rh.update(BytesView{key.prefix_.data(), key.prefix_.size()}).update(message);
  const auto r_hash = rh.finish();
  std::uint8_t r[32];
  sc_reduce(r, r_hash.data());

  // R = r * B
  const GePoint big_r = ge_scalar_mult_base(r);
  std::uint8_t r_enc[32];
  ge_compress(r_enc, big_r);

  // k = H(R || A || M) mod L
  const auto k_hash = hash3(BytesView{r_enc, 32},
                            BytesView{key.pub_.data(), key.pub_.size()},
                            message);
  std::uint8_t k[32];
  sc_reduce(k, k_hash.data());

  // s = (r + k*a) mod L
  std::uint8_t s[32];
  sc_muladd(s, k, a, r);

  Signature sig;
  std::memcpy(sig.data(), r_enc, 32);
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

std::uint64_t Ed25519::signatures_made() {
  return g_signatures_made.load(std::memory_order_relaxed);
}

bool Ed25519::verify(const PublicKey& pub, BytesView message,
                     const Signature& sig) {
  const std::uint8_t* r_enc = sig.data();
  const std::uint8_t* s = sig.data() + 32;
  if (!sc_is_canonical(s)) return false;

  GePoint a;
  if (!ge_decompress(a, pub.data()) || ge_has_small_order(a)) return false;

  const auto k_hash =
      hash3(BytesView{r_enc, 32}, BytesView{pub.data(), pub.size()}, message);
  std::uint8_t k[32];
  sc_reduce(k, k_hash.data());

  // Check encode(s*B - k*A) == R.
  const GePoint sb = ge_scalar_mult_base(s);
  const GePoint ka = ge_scalar_mult(a, k);
  const GePoint r_check = ge_add(sb, ge_cached(ka), true);
  std::uint8_t r_check_enc[32];
  ge_compress(r_check_enc, r_check);
  return std::memcmp(r_check_enc, r_enc, 32) == 0;
}

}  // namespace sciera::crypto
