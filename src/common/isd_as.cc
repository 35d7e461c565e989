#include "common/isd_as.h"

#include <array>
#include <charconv>

namespace sciera {
namespace {

std::optional<std::uint64_t> parse_u64(std::string_view text, int base) {
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value, base);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

}  // namespace

std::string As::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void As::append_to(std::string& out) const {
  char buf[20];
  if (value_ <= kMaxBgpStyle) {
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value_);
    (void)ec;
    out.append(buf, ptr);
    return;
  }
  // Three 16-bit groups in lower-case hex without leading zeros per group.
  const std::array<std::uint16_t, 3> groups = {
      static_cast<std::uint16_t>(value_ >> 32),
      static_cast<std::uint16_t>(value_ >> 16),
      static_cast<std::uint16_t>(value_),
  };
  for (int i = 0; i < 3; ++i) {
    if (i > 0) out.push_back(':');
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, groups[i], 16);
    (void)ec;
    out.append(buf, ptr);
  }
}

std::optional<As> As::parse(std::string_view text) {
  if (text.find(':') == std::string_view::npos) {
    auto value = parse_u64(text, 10);
    if (!value || *value > kMaxBgpStyle) return std::nullopt;
    return As{*value};
  }
  std::uint64_t value = 0;
  int groups = 0;
  while (groups < 3) {
    const auto colon = text.find(':');
    const std::string_view group =
        colon == std::string_view::npos ? text : text.substr(0, colon);
    auto part = parse_u64(group, 16);
    if (!part || *part > 0xFFFF) return std::nullopt;
    value = (value << 16) | *part;
    ++groups;
    if (colon == std::string_view::npos) {
      text = {};
      break;
    }
    text.remove_prefix(colon + 1);
  }
  if (groups != 3 || !text.empty()) return std::nullopt;
  return As{value};
}

std::string IsdAs::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void IsdAs::append_to(std::string& out) const {
  char buf[5];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, isd_);
  (void)ec;
  out.append(buf, ptr);
  out.push_back('-');
  as_.append_to(out);
}

std::optional<IsdAs> IsdAs::parse(std::string_view text) {
  const auto dash = text.find('-');
  if (dash == std::string_view::npos) return std::nullopt;
  auto isd = parse_u64(text.substr(0, dash), 10);
  if (!isd || *isd > 0xFFFF) return std::nullopt;
  auto as = As::parse(text.substr(dash + 1));
  if (!as) return std::nullopt;
  return IsdAs{static_cast<Isd>(*isd), *as};
}

std::string GlobalIfaceId::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void GlobalIfaceId::append_to(std::string& out) const {
  ia.append_to(out);
  out.push_back('#');
  char buf[5];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, iface);
  (void)ec;
  out.append(buf, ptr);
}

}  // namespace sciera
