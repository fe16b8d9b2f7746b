#include "oregami/graph/gray_code.hpp"

#include <bit>

#include "oregami/support/error.hpp"

namespace oregami {

std::uint32_t gray_code(std::uint32_t i) { return i ^ (i >> 1); }

int popcount32(std::uint32_t x) { return std::popcount(x); }

bool is_power_of_two(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

int floor_log2(std::uint64_t x) {
  OREGAMI_ASSERT(x > 0, "floor_log2 requires a positive argument");
  return 63 - std::countl_zero(x);
}

}  // namespace oregami
