#include "common/rng.h"

#include <cmath>

namespace sciera {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_label(std::string_view label) {
  // FNV-1a 64-bit.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

double NormalDraw::value(double radius, double mean, double stddev) const {
  // The halves associate differently: normal() returns the first as
  // (stddev * radius) * cos and stores the second as radius * sin.
  return second ? mean + stddev * (radius * std::sin(2.0 * M_PI * u2))
                : mean + stddev * radius * std::cos(2.0 * M_PI * u2);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : state_) s = splitmix64(x);
}

Rng::Rng(std::uint64_t seed, std::string_view stream_label)
    : Rng(seed ^ hash_label(stream_label)) {}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::normal(double mean, double stddev) {
  if (spare_ == Spare::kEvaluated) {
    spare_ = Spare::kNone;
    return mean + stddev * spare_normal_;
  }
  const NormalDraw draw = draw_normal();
  if (draw.second) return draw.value(draw.radius(), mean, stddev);
  // A fresh pair: evaluate both halves together (one sincos).
  const double mag = draw.radius();
  spare_normal_ = mag * std::sin(2.0 * M_PI * draw.u2);
  spare_ = Spare::kEvaluated;
  return mean + stddev * mag * std::cos(2.0 * M_PI * draw.u2);
}

double Rng::exponential(double mean) {
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 1e-300);
  return -mean * std::log(u);
}

double Rng::lognormal_median(double median, double sigma) {
  return median * std::exp(normal(0.0, sigma));
}

Rng Rng::fork(std::string_view stream_label) {
  return Rng{next_u64() ^ hash_label(stream_label)};
}

}  // namespace sciera
