// Bounds-checked big-endian byte readers/writers for wire formats.
// All SCION header serialization goes through these; out-of-bounds reads
// surface as Result errors rather than UB (Core Guidelines ES.x / SL.con).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace sciera {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

[[nodiscard]] std::string to_hex(BytesView bytes);
[[nodiscard]] Result<Bytes> from_hex(std::string_view hex);
[[nodiscard]] Bytes bytes_of(std::string_view text);

// Serializer appending big-endian fields to an owned buffer.
class Writer {
 public:
  Writer() = default;
  // Adopts `reuse` as the output buffer: contents are discarded but the
  // allocation is kept, so pooled buffers (dataplane::FramePool) serialize
  // without a fresh heap allocation. Retrieve it back with take().
  explicit Writer(Bytes reuse) : buf_(std::move(reuse)) { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(BytesView bytes) { buf_.insert(buf_.end(), bytes.begin(), bytes.end()); }
  void str(std::string_view text) {
    // Length-prefixed string, for canonical signing payloads.
    u32(static_cast<std::uint32_t>(text.size()));
    buf_.insert(buf_.end(), text.begin(), text.end());
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }

  // Patches a previously written big-endian u16 at an absolute offset.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_.at(offset) = static_cast<std::uint8_t>(v >> 8);
    buf_.at(offset + 1) = static_cast<std::uint8_t>(v);
  }

 private:
  Bytes buf_;
};

// Bounds-checked big-endian reader over a non-owned view.
class Reader {
 public:
  explicit Reader(BytesView view) : view_(view) {}

  [[nodiscard]] std::size_t remaining() const { return view_.size() - pos_; }

  Result<std::uint8_t> u8() {
    if (remaining() < 1) return overflow(1);
    return view_[pos_++];
  }
  Result<std::uint16_t> u16() {
    if (remaining() < 2) return overflow(2);
    std::uint16_t v = static_cast<std::uint16_t>(view_[pos_] << 8) |
                      view_[pos_ + 1];
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> u32() {
    if (remaining() < 4) return overflow(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | view_[pos_ + i];
    pos_ += 4;
    return v;
  }
  Result<std::uint64_t> u64() {
    if (remaining() < 8) return overflow(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | view_[pos_ + i];
    pos_ += 8;
    return v;
  }
  Result<Bytes> raw(std::size_t n) {
    if (remaining() < n) return overflow(n);
    Bytes out(view_.begin() + static_cast<std::ptrdiff_t>(pos_),
              view_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  // Zero-copy variant of raw(): the returned view aliases the reader's
  // underlying buffer and is only valid while that buffer lives. The
  // dataplane parse path copies out of it into reused storage, which is
  // what keeps per-packet parsing allocation-free.
  Result<BytesView> raw_view(std::size_t n) {
    if (remaining() < n) return overflow(n);
    BytesView out = view_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  Result<std::string> str() {
    auto len = u32();
    if (!len) return len.error();
    auto body = raw(*len);
    if (!body) return body.error();
    return std::string{body->begin(), body->end()};
  }

 private:
  template <typename T = Bytes>
  Error overflow(std::size_t want) const {
    return Error{Errc::kParseError,
                 "buffer underrun: want " + std::to_string(want) +
                     " bytes, have " + std::to_string(remaining())};
  }

  BytesView view_;
  std::size_t pos_ = 0;
};

}  // namespace sciera
