// AES-128 block cipher (FIPS 197), from scratch. The S-box is generated
// programmatically from the GF(2^8) inverse and affine map rather than
// hand-typed, eliminating a whole class of transcription bugs. Used by
// AES-CMAC, and most blocks now come from LightningFilter checks at host
// ingress (one CMAC per packet, every packet of a flood); SCION hop-field
// MACs on the forwarding path add the rest.
//
// Two implementations of the same rounds share one key expansion:
//  - encrypt_block() is the portable round, a 32-bit T-table round: four
//    256-word tables, built from the S-box at first use, fold SubBytes,
//    ShiftRows and MixColumns into sixteen lookups; the final round reads
//    the S-box itself. It is the referee the tests compare against and the
//    only path on CPUs without AES-NI.
//  - chain() runs a CBC-MAC chain. On x86-64 CPUs that report AES-NI it
//    runs the hardware rounds; the CPU alone selects this, checked once.
//    Elsewhere it loops over encrypt_block().
// Table lookups indexed by secret bytes leak the key through cache timing.
// That caveat applies to the portable path only (the AES-NI rounds are
// constant time); it does not matter in a simulator, and it is why this
// code must never protect real traffic.
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

  // CBC-MAC chaining over `blocks` 16-byte blocks at `data` (any
  // alignment): for each block, state = E(state ^ block). Equal to a loop
  // over encrypt_block() by contract (Crypto.AesChainMatchesPortableRounds).
  void chain(Block& state, const std::uint8_t* data, std::size_t blocks) const;

  // Process-wide count of key expansions run (each construction is one).
  // The key schedule is the expensive part of context setup; the dataplane
  // regression suite asserts it runs once per forwarding key, not once per
  // packet. Monotonic; tests read deltas.
  [[nodiscard]] static std::uint64_t key_schedules_run();

 private:
  // 11 round keys x 4 big-endian column words, for the T-table round.
  std::array<std::uint32_t, 44> round_keys_{};
  // The same 11 round keys as bytes in FIPS-197 order, for the AES-NI
  // rounds.
  std::array<std::uint8_t, 176> round_key_bytes_{};
};

}  // namespace sciera::crypto
