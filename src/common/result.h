// Lightweight Result<T> error-handling type (std::expected is not available
// on this toolchain's libstdc++). Errors carry a category and a message;
// propagation is explicit, following the Core Guidelines advice to make
// failure paths visible in interfaces (I.10, E.x).
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace sciera {

enum class Errc {
  kInvalidArgument,
  kNotFound,
  kParseError,
  kCryptoError,
  kVerificationFailed,
  kExpired,
  kUnreachable,
  kTimeout,
  kResourceExhausted,
  kInternal,
};

[[nodiscard]] constexpr const char* errc_name(Errc code) {
  switch (code) {
    case Errc::kInvalidArgument: return "invalid_argument";
    case Errc::kNotFound: return "not_found";
    case Errc::kParseError: return "parse_error";
    case Errc::kCryptoError: return "crypto_error";
    case Errc::kVerificationFailed: return "verification_failed";
    case Errc::kExpired: return "expired";
    case Errc::kUnreachable: return "unreachable";
    case Errc::kTimeout: return "timeout";
    case Errc::kResourceExhausted: return "resource_exhausted";
    case Errc::kInternal: return "internal";
  }
  return "unknown";
}

struct Error {
  Errc code = Errc::kInternal;
  std::string message;

  [[nodiscard]] std::string to_string() const {
    return std::string{errc_name(code)} + ": " + message;
  }
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Result(Error error) : state_(std::in_place_index<1>, std::move(error)) {}
  Result(Errc code, std::string message)
      : state_(std::in_place_index<1>, Error{code, std::move(message)}) {}

  [[nodiscard]] bool ok() const { return state_.index() == 0; }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] T& value() & {
    assert(ok());
    return std::get<0>(state_);
  }
  [[nodiscard]] const T& value() const& {
    assert(ok());
    return std::get<0>(state_);
  }
  [[nodiscard]] T&& value() && {
    assert(ok());
    return std::get<0>(std::move(state_));
  }
  [[nodiscard]] const Error& error() const {
    assert(!ok());
    return std::get<1>(state_);
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<0>(state_) : std::move(fallback);
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  std::variant<T, Error> state_;
};

// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error error) : error_(std::move(error)), failed_(true) {}
  Status(Errc code, std::string message)
      : error_{code, std::move(message)}, failed_(true) {}

  [[nodiscard]] bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] const Error& error() const {
    assert(failed_);
    return error_;
  }

 private:
  Error error_{};
  bool failed_ = false;
};

}  // namespace sciera
