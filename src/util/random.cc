#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace transer {

namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextUint64Below(uint64_t n) {
  TRANSER_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias: draws below 2^64 mod n are
  // rejected. That threshold is below n, so it is only computed for the
  // rare draw below n.
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= n || r >= (-n) % n) return r % n;
  }
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  spare_gaussian_ = mag * std::sin(two_pi * u2);
  has_spare_gaussian_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

int Rng::NextInt(int lo, int hi) {
  TRANSER_CHECK_LE(lo, hi);
  return lo + static_cast<int>(
                  NextUint64Below(static_cast<uint64_t>(hi - lo) + 1));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t count) {
  TRANSER_CHECK_LE(count, n);
  // Partial Fisher-Yates over an index vector.
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + static_cast<size_t>(NextUint64Below(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
  return indices;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  TRANSER_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) {
    return static_cast<size_t>(NextUint64Below(weights.size()));
  }
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork(uint64_t stream_id) {
  return Rng(NextUint64() ^ (stream_id * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL));
}

}  // namespace transer
