#include "crypto/cmac.h"

#include "crypto/hmac.h"

namespace sciera::crypto {
namespace {

// Doubling in GF(2^128) with the CMAC polynomial (Rb = 0x87).
Aes128::Block dbl(const Aes128::Block& in) {
  Aes128::Block out{};
  std::uint8_t carry = 0;
  for (int i = 15; i >= 0; --i) {
    const std::uint8_t b = in[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((b << 1) | carry);
    carry = b >> 7;
  }
  if (carry) out[15] ^= 0x87;
  return out;
}

}  // namespace

AesCmac::AesCmac(const Aes128::Key& key) : cipher_(key) {
  Aes128::Block zero{};
  const Aes128::Block l = cipher_.encrypt(zero);
  k1_ = dbl(l);
  k2_ = dbl(k1_);
}

AesCmac::Mac AesCmac::compute(BytesView message) const {
  const std::size_t n_blocks =
      message.empty() ? 1 : (message.size() + 15) / 16;
  const bool complete = !message.empty() && message.size() % 16 == 0;

  // Every block but the last chains straight from the message.
  Aes128::Block x{};
  cipher_.chain(x, message.data(), n_blocks - 1);

  // The last block, padded if short, is masked with K1 (complete) or K2.
  Aes128::Block last{};
  const std::size_t tail_offset = (n_blocks - 1) * 16;
  const std::size_t tail_len = message.size() - std::min(message.size(), tail_offset);
  for (std::size_t b = 0; b < tail_len; ++b) last[b] = message[tail_offset + b];
  if (!complete) last[tail_len] = 0x80;
  const Aes128::Block& mask = complete ? k1_ : k2_;
  for (std::size_t b = 0; b < last.size(); ++b) last[b] ^= mask[b];
  cipher_.chain(x, last.data(), 1);
  return x;
}

bool AesCmac::verify(BytesView message, BytesView mac) const {
  // Length policy first: an empty or too-short tag must never reach the
  // comparison (comparing zero bytes would succeed vacuously).
  if (mac.size() < kMinTagLen || mac.size() > std::tuple_size_v<Mac>) {
    return false;
  }
  const Mac computed = compute(message);
  return constant_time_equal(BytesView{computed.data(), mac.size()}, mac);
}

}  // namespace sciera::crypto
