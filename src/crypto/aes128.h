// AES-128 block cipher (FIPS 197), from scratch. The S-box is generated
// programmatically from the GF(2^8) inverse and affine map rather than
// hand-typed, eliminating a whole class of transcription bugs. Used by
// AES-CMAC, and most blocks now come from LightningFilter checks at host
// ingress (one CMAC per packet, every packet of a flood); SCION hop-field
// MACs on the forwarding path add the rest.
//
// Each round is a 32-bit T-table round: four 256-word tables, built from
// the S-box at first use, fold SubBytes, ShiftRows and MixColumns into
// sixteen lookups; the final round reads the S-box itself. Table lookups
// indexed by secret bytes leak the key through cache timing. That does
// not matter in a simulator, and it is why this code must never protect
// real traffic.
#pragma once

#include <array>
#include <cstdint>

#include "common/buffer.h"

namespace sciera::crypto {

class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  using Block = std::array<std::uint8_t, kBlockSize>;
  using Key = std::array<std::uint8_t, kKeySize>;

  explicit Aes128(const Key& key);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  [[nodiscard]] Block encrypt(const Block& in) const;

  // Process-wide count of key expansions run (each construction is one).
  // The key schedule is the expensive part of context setup; the dataplane
  // regression suite asserts it runs once per forwarding key, not once per
  // packet. Monotonic; tests read deltas.
  [[nodiscard]] static std::uint64_t key_schedules_run();

 private:
  // 11 round keys x 4 big-endian column words.
  std::array<std::uint32_t, 44> round_keys_{};
};

}  // namespace sciera::crypto
