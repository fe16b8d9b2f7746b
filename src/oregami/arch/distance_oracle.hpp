// Per-family hop-distance oracles: small value types whose
// operator()(u, v) is one Topology family's distance formula, plus the
// Custom family's flat BFS-table oracle. `Topology::with_oracle` hands a
// callable the oracle of its family, so a loop that reads many distances
// (a route walk, a move proposal, a weighted row) picks the family once
// and then evaluates the formula inline, with no call or switch per
// pair. Every oracle is allocation-free and const, so it is safe to use
// from many threads at once.
//
// The mesh, torus, mesh3d and hypercube oracles are also separable:
// processor v = outer * inner_size() + inner, and distance(u, v) =
// outer_dist(u, outer) + inner_dist(u, inner). A weighted row then needs
// neither a division nor a multiply per element (accumulate_row in
// topology.cpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace oregami::distance_oracle {

inline int abs_diff(int a, int b) { return a < b ? b - a : a - b; }

/// Row loops tabulate per-column terms this many columns at a time.
inline constexpr int kRowChunk = 64;

struct Ring {
  int p;
  int operator()(int u, int v) const {
    const int d = abs_diff(u, v);
    return std::min(d, p - d);
  }
};

struct Chain {
  int operator()(int u, int v) const { return abs_diff(u, v); }
};

/// Mesh (Wrap = false) and torus (Wrap = true): per-axis distances,
/// with wraparound on the torus, summed.
template <bool Wrap>
struct Grid {
  int rows;
  int cols;
  static int axis(int a, int b, int size) {
    const int d = abs_diff(a, b);
    return Wrap ? std::min(d, size - d) : d;
  }
  int outer_size() const { return rows; }
  int inner_size() const { return cols; }
  int outer_dist(int u, int r) const { return axis(u / cols, r, rows); }
  int inner_dist(int u, int c) const { return axis(u % cols, c, cols); }
  int operator()(int u, int v) const {
    return outer_dist(u, v / cols) + inner_dist(u, v % cols);
  }
};

/// Hypercube: the popcount of u ^ v; a row splits it into the high
/// address bits (outer) and the low six (inner).
struct Hypercube {
  int dim;
  int low_bits() const { return std::min(dim, 6); }
  int outer_size() const { return 1 << (dim - low_bits()); }
  int inner_size() const { return 1 << low_bits(); }
  int outer_dist(int u, int high) const {
    return std::popcount(static_cast<unsigned>((u >> low_bits()) ^ high));
  }
  int inner_dist(int u, int low) const {
    return std::popcount(
        static_cast<unsigned>((u ^ low) & (inner_size() - 1)));
  }
  int operator()(int u, int v) const {
    return std::popcount(static_cast<unsigned>(u ^ v));
  }
};

struct Tree {
  // Heap numbering (children of v are 2v+1, 2v+2): node v + 1 in
  // binary is the path from the root (a leading 1, then one bit per
  // level, 0 = left), so its depth is bit_width(v + 1) - 1. Shifting
  // the deeper node up to the other's depth, the two paths agree above
  // the highest differing bit, which gives the LCA's depth.
  int operator()(int u, int v) const {
    const auto a = static_cast<unsigned>(u) + 1u;
    const auto b = static_cast<unsigned>(v) + 1u;
    const int da = static_cast<int>(std::bit_width(a)) - 1;
    const int db = static_cast<int>(std::bit_width(b)) - 1;
    const int common = std::min(da, db);
    const unsigned diverge = (a >> (da - common)) ^ (b >> (db - common));
    const int lca = common - static_cast<int>(std::bit_width(diverge));
    return da + db - 2 * lca;
  }
};

struct Star {
  int operator()(int u, int v) const {
    return u == v ? 0 : (u == 0 || v == 0 ? 1 : 2);
  }
};

struct Complete {
  int operator()(int u, int v) const { return u == v ? 0 : 1; }
};

struct Butterfly {
  int k;  ///< node = rank * 2^k + column
  // The only edges sit between consecutive ranks, and crossing the
  // (b, b+1) transition may flip column bit b. A walk from rank r1 to
  // r2 that fixes the differing bits must therefore cover the ranks
  // from low = min(r1, r2, lowest differing bit) to high = max(r1, r2,
  // highest differing bit + 1). Sweeping down first or up first, the
  // shorter walk takes 2 * (high - low) - |r1 - r2| hops. Equal columns
  // need no help: countr_zero(0) = 32 and bit_width(0) = 0 leave low
  // and high at the ranks themselves.
  static int walk(int r1, int r2, int lowest_bit, int highest_bit) {
    const int low = std::min({r1, r2, lowest_bit});
    const int high = std::max({r1, r2, highest_bit});
    return 2 * (high - low) - abs_diff(r1, r2);
  }
  static int lowest_bit(unsigned diff) { return std::countr_zero(diff); }
  static int highest_bit(unsigned diff) {
    return static_cast<int>(std::bit_width(diff));
  }
  int operator()(int u, int v) const {
    const auto diff = static_cast<unsigned>((u ^ v) & ((1 << k) - 1));
    return walk(u >> k, v >> k, lowest_bit(diff), highest_bit(diff));
  }
  // The row's column terms (the differing bits) are found once per
  // column, then reused by every rank.
  void accumulate_row(int u, std::int64_t weight, std::int64_t* out) const {
    int lowest[kRowChunk];
    int highest[kRowChunk];
    const int cols = 1 << k;
    for (int c0 = 0; c0 < cols; c0 += kRowChunk) {
      const int n = std::min(kRowChunk, cols - c0);
      for (int i = 0; i < n; ++i) {
        const auto diff = static_cast<unsigned>((u ^ (c0 + i)) & (cols - 1));
        lowest[i] = lowest_bit(diff);
        highest[i] = highest_bit(diff);
      }
      for (int rank = 0; rank <= k; ++rank) {
        std::int64_t* block = out + rank * cols + c0;
        for (int i = 0; i < n; ++i) {
          block[i] += weight * walk(u >> k, rank, lowest[i], highest[i]);
        }
      }
    }
  }
};

/// 3-D mesh: outer = the (x, y) pair, inner = z.
struct Mesh3D {
  int nx;
  int ny;
  int nz;
  int outer_size() const { return nx * ny; }
  int inner_size() const { return nz; }
  int outer_dist(int u, int xy) const {
    const int uxy = u / nz;
    return abs_diff(uxy / ny, xy / ny) + abs_diff(uxy % ny, xy % ny);
  }
  int inner_dist(int u, int z) const { return abs_diff(u % nz, z); }
  int operator()(int u, int v) const {
    return outer_dist(u, v / nz) + inner_dist(u, v % nz);
  }
};

/// Custom: the flat row-major BFS table (-1 for an unreachable pair).
struct Table {
  const int* flat;
  int p;
  int operator()(int u, int v) const {
    return flat[static_cast<std::size_t>(u) * static_cast<std::size_t>(p) +
                static_cast<std::size_t>(v)];
  }
};

}  // namespace oregami::distance_oracle
