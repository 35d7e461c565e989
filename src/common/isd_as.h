// SCION addressing primitives: ISD numbers, AS numbers, and the combined
// ISD-AS identifier used throughout the control and data planes.
//
// Textual forms follow the SCION conventions used in the paper:
//   * BGP-style AS numbers render as decimal:          "71-559"
//   * SCION-style AS numbers render as 3 hex groups:   "71-2:0:3b"
// An AS number is 48 bits; values <= 2^32-1 are considered "BGP-style" and
// formatted in decimal, larger values use the colon-separated hex form.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace sciera {

using Isd = std::uint16_t;

// 48-bit AS number stored in the low bits of a uint64.
class As {
 public:
  static constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << 48) - 1;
  // Largest AS number that formats in decimal (BGP-style).
  static constexpr std::uint64_t kMaxBgpStyle = 0xFFFF'FFFF;

  constexpr As() = default;
  constexpr explicit As(std::uint64_t value) : value_(value & kMaxValue) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] std::string to_string() const;
  // Appends the to_string() text to `out` without a temporary.
  void append_to(std::string& out) const;

  // Parses either decimal ("559") or colon-separated hex ("2:0:3b").
  static std::optional<As> parse(std::string_view text);

  friend constexpr auto operator<=>(As, As) = default;

 private:
  std::uint64_t value_ = 0;
};

// Combined ISD-AS identifier, e.g. "71-2:0:3b".
class IsdAs {
 public:
  constexpr IsdAs() = default;
  constexpr IsdAs(Isd isd, As as) : isd_(isd), as_(as) {}

  [[nodiscard]] constexpr Isd isd() const { return isd_; }
  [[nodiscard]] constexpr As as() const { return as_; }
  [[nodiscard]] constexpr bool is_zero() const {
    return isd_ == 0 && as_.value() == 0;
  }
  [[nodiscard]] std::string to_string() const;
  // Appends the to_string() text to `out` without a temporary.
  void append_to(std::string& out) const;

  // Packs to the 64-bit wire representation: ISD in the top 16 bits.
  [[nodiscard]] constexpr std::uint64_t packed() const {
    return (std::uint64_t{isd_} << 48) | as_.value();
  }
  static constexpr IsdAs from_packed(std::uint64_t packed) {
    return IsdAs{static_cast<Isd>(packed >> 48), As{packed & As::kMaxValue}};
  }

  // Parses "71-2:0:3b" / "64-559".
  static std::optional<IsdAs> parse(std::string_view text);

  friend constexpr auto operator<=>(IsdAs, IsdAs) = default;

 private:
  Isd isd_ = 0;
  As as_{};
};

// AS-scoped interface identifier; 0 is reserved to mean "no interface".
using IfaceId = std::uint16_t;

// Globally unique interface identifier, used for the path-disjointness
// metric of Section 5.4 ("we combine the AS-unique interface identifiers
// with SCION's ISD-AS numbers to generate globally unique interface IDs").
struct GlobalIfaceId {
  IsdAs ia;
  IfaceId iface = 0;

  friend constexpr auto operator<=>(const GlobalIfaceId&,
                                    const GlobalIfaceId&) = default;
  // "<ia>#<iface>", e.g. "71-2:0:3b#4".
  [[nodiscard]] std::string to_string() const;
  // Appends the to_string() text to `out` without a temporary.
  void append_to(std::string& out) const;
};

}  // namespace sciera

template <>
struct std::hash<sciera::IsdAs> {
  std::size_t operator()(const sciera::IsdAs& ia) const noexcept {
    return std::hash<std::uint64_t>{}(ia.packed());
  }
};

template <>
struct std::hash<sciera::GlobalIfaceId> {
  std::size_t operator()(const sciera::GlobalIfaceId& gid) const noexcept {
    std::uint64_t mix = gid.ia.packed() * 0x9E3779B97F4A7C15ULL + gid.iface;
    mix ^= mix >> 29;
    return static_cast<std::size_t>(mix);
  }
};
