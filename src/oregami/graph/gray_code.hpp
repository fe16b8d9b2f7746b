// Reflected binary Gray codes. The workhorse of OREGAMI's canned
// embeddings (§4.1): consecutive Gray codewords differ in one bit, so a
// ring or mesh walked in Gray order embeds in a hypercube with
// dilation 1.
#pragma once

#include <cstdint>

namespace oregami {

/// i-th codeword of the reflected binary Gray code.
[[nodiscard]] std::uint32_t gray_code(std::uint32_t i);

/// Number of 1-bits (Hamming weight).
[[nodiscard]] int popcount32(std::uint32_t x);

/// True when x is a power of two (x > 0).
[[nodiscard]] bool is_power_of_two(std::uint64_t x);

/// floor(log2(x)); requires x > 0.
[[nodiscard]] int floor_log2(std::uint64_t x);

}  // namespace oregami
