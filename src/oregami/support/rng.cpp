#include "oregami/support/rng.hpp"

#include "oregami/support/error.hpp"

namespace oregami {

std::uint64_t SplitMix64::next_u64() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::next_below(std::uint64_t bound) {
  OREGAMI_ASSERT(bound > 0, "next_below requires a positive bound");
  // Multiply-shift reduction (Lemire): the high 64 bits of the 128-bit
  // product x * bound, assembled from 32-bit halves in standard C++.
  // Bias is < 2^-64 * bound, negligible for workload synthesis.
  const std::uint64_t x = next_u64();
  const std::uint64_t x_lo = x & 0xffffffffULL;
  const std::uint64_t x_hi = x >> 32;
  const std::uint64_t b_lo = bound & 0xffffffffULL;
  const std::uint64_t b_hi = bound >> 32;
  const std::uint64_t lo_lo = x_lo * b_lo;
  const std::uint64_t hi_lo = x_hi * b_lo;
  const std::uint64_t lo_hi = x_lo * b_hi;
  const std::uint64_t cross =
      (lo_lo >> 32) + (hi_lo & 0xffffffffULL) + lo_hi;
  return x_hi * b_hi + (hi_lo >> 32) + (cross >> 32);
}

std::int64_t SplitMix64::next_in(std::int64_t lo, std::int64_t hi) {
  OREGAMI_ASSERT(lo <= hi, "next_in requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double SplitMix64::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

}  // namespace oregami
