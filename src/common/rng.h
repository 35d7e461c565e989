// Deterministic pseudo-random number generation (xoshiro256**, seeded via
// splitmix64). Every stochastic component takes an explicit Rng so whole
// simulation campaigns replay bit-identically from a seed.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace sciera {

// One Rng::normal() draw taken from the stream but not evaluated
// (Rng::draw_normal): the Box-Muller pair's two uniforms, and which half
// of the pair it is.
struct NormalDraw {
  double u1 = 0.0;
  double u2 = 0.0;
  bool second = false;  // the pair's sine half

  // sqrt(-2 ln u1): the pair's radius.
  [[nodiscard]] double radius() const { return std::sqrt(-2.0 * std::log(u1)); }
  // What normal(mean, stddev) returns for this draw, given radius(), by
  // normal()'s own expressions, so the bits are the same.
  [[nodiscard]] double value(double radius, double mean,
                             double stddev) const;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5C1E2A5EED);
  // Derives a seed from a label, for independent per-component streams.
  Rng(std::uint64_t seed, std::string_view stream_label);

  std::uint64_t next_u64() {
    // xoshiro256**
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }
  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);
  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Standard normal via Box-Muller.
  double normal(double mean = 0.0, double stddev = 1.0);
  // The draw the next normal() would evaluate, taken with the same
  // next_u64() calls but not evaluated. A first half leaves its pair's
  // second half pending, and a later normal() evaluates it.
  NormalDraw draw_normal() {
    if (spare_ != Spare::kNone) {
      spare_ = Spare::kNone;
      return {spare_u1_, spare_u2_, true};
    }
    do {
      spare_u1_ = next_double();
    } while (spare_u1_ <= 1e-300);
    spare_u2_ = next_double();
    spare_ = Spare::kDrawn;
    return {spare_u1_, spare_u2_, false};
  }
  // Exponential with the given mean.
  double exponential(double mean);
  // Log-normal parameterized by the median and a multiplicative sigma,
  // convenient for latency jitter ("median x, occasionally several x").
  double lognormal_median(double median, double sigma);
  // Bernoulli trial.
  bool chance(double probability) { return next_double() < probability; }

  // Derives a child RNG whose stream is independent of this one.
  Rng fork(std::string_view stream_label);

 private:
  enum class Spare : std::uint8_t {
    kNone,
    kDrawn,      // by draw_normal(): its uniforms only
    kEvaluated,  // by normal(): spare_normal_ holds its value too
  };

  std::uint64_t state_[4];
  // The last Box-Muller pair's second half, until it is drawn.
  Spare spare_ = Spare::kNone;
  double spare_u1_ = 0.0;
  double spare_u2_ = 0.0;
  double spare_normal_ = 0.0;
};

}  // namespace sciera
