// AES-CMAC (RFC 4493 / NIST SP 800-38B). SCION hop-field MACs use
// AES-CMAC keyed with the AS forwarding key, and the LightningFilter
// checks one CMAC per packet at host ingress, every packet of a flood.
//
// compute() is two Aes128::chain calls: one over the first n-1 message
// blocks, one over the K1/K2-masked last block. On AES-NI CPUs both run
// the hardware rounds, with the round keys loaded once per call; the
// subkeys come from the portable round at construction.
#pragma once

#include <array>

#include "common/buffer.h"
#include "crypto/aes128.h"

namespace sciera::crypto {

class AesCmac {
 public:
  using Mac = std::array<std::uint8_t, 16>;

  // Shortest tag verify() accepts. SCION hop fields carry 6-byte
  // truncated MACs (Mac6); anything shorter gives an attacker a
  // better-than-2^-48 forgery bound — and an empty tag would compare
  // zero bytes and trivially "verify".
  static constexpr std::size_t kMinTagLen = 6;

  explicit AesCmac(const Aes128::Key& key);

  [[nodiscard]] Mac compute(BytesView message) const;

  // Constant-time comparison of a truncated tag against the computed
  // MAC. Tags shorter than kMinTagLen or longer than the full MAC are
  // rejected outright (never compared).
  [[nodiscard]] bool verify(BytesView message, BytesView mac) const;

 private:
  Aes128 cipher_;
  Aes128::Block k1_{};
  Aes128::Block k2_{};
};

}  // namespace sciera::crypto
