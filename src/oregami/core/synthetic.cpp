#include "oregami/core/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {

namespace {

// Shared finishing step: tasks named t<i>, seeded exec costs in
// [1, 32], Idle phase expression (comm + exec each run once).
TaskGraph finish_graph(int n, const char* phase_name,
                       const std::vector<CommEdge>& edges,
                       SplitMix64& rng) {
  TaskGraph g;
  for (int i = 0; i < n; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    g.add_task(std::move(name));
  }
  const int comm = g.add_comm_phase(phase_name);
  for (const CommEdge& e : edges) g.add_comm_edge(comm, e.src, e.dst, e.volume);
  std::vector<std::int64_t> cost(static_cast<std::size_t>(n));
  for (std::int64_t& c : cost) c = rng.next_in(1, 32);
  g.add_exec_phase("work", std::move(cost));
  return g;
}

}  // namespace

TaskGraph make_stencil2d(int rows, int cols, std::uint64_t seed) {
  OREGAMI_ASSERT(rows > 0 && cols > 0, "stencil2d shape must be positive");
  SplitMix64 rng(seed);
  std::vector<CommEdge> edges;
  edges.reserve(static_cast<std::size_t>(rows) *
                static_cast<std::size_t>(cols) * 2);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int v = r * cols + c;
      if (c + 1 < cols) edges.push_back({v, v + 1, rng.next_in(1, 16)});
      if (r + 1 < rows) edges.push_back({v, v + cols, rng.next_in(1, 16)});
    }
  }
  return finish_graph(rows * cols, "stencil2d", edges, rng);
}

TaskGraph make_stencil3d(int nx, int ny, int nz, std::uint64_t seed) {
  OREGAMI_ASSERT(nx > 0 && ny > 0 && nz > 0,
                 "stencil3d shape must be positive");
  SplitMix64 rng(seed);
  std::vector<CommEdge> edges;
  edges.reserve(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
                static_cast<std::size_t>(nz) * 3);
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const int v = (z * ny + y) * nx + x;
        if (x + 1 < nx) edges.push_back({v, v + 1, rng.next_in(1, 16)});
        if (y + 1 < ny) edges.push_back({v, v + nx, rng.next_in(1, 16)});
        if (z + 1 < nz) edges.push_back({v, v + nx * ny, rng.next_in(1, 16)});
      }
    }
  }
  return finish_graph(nx * ny * nz, "stencil3d", edges, rng);
}

TaskGraph make_random_geometric(int n, double radius, std::uint64_t seed) {
  OREGAMI_ASSERT(n > 0 && radius > 0.0, "geometric graph needs n>0, r>0");
  SplitMix64 rng(seed);
  std::vector<double> px(static_cast<std::size_t>(n));
  std::vector<double> py(px.size());
  for (std::size_t i = 0; i < px.size(); ++i) {
    px[i] = rng.next_double();
    py[i] = rng.next_double();
  }

  // Bucket points into a grid of cell side `radius`: any pair within
  // distance r lies in the same or an adjacent cell, so each point
  // only scans a 3x3 cell block — O(n + edges) overall.
  const int cells = std::max(1, static_cast<int>(1.0 / radius));
  const double cell_size = 1.0 / cells;
  const auto side = static_cast<std::size_t>(cells);
  std::vector<std::vector<int>> bucket(side * side);
  auto cell_of = [&](double x) {
    return std::min(cells - 1, static_cast<int>(x / cell_size));
  };
  auto bucket_of = [&](int bx, int by) -> std::vector<int>& {
    return bucket[static_cast<std::size_t>(by) * side +
                  static_cast<std::size_t>(bx)];
  };
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    bucket_of(cell_of(px[ui]), cell_of(py[ui])).push_back(i);
  }

  const double r2 = radius * radius;
  std::vector<CommEdge> edges;
  for (int i = 0; i < n; ++i) {
    const double xi = px[static_cast<std::size_t>(i)];
    const double yi = py[static_cast<std::size_t>(i)];
    const int cx = cell_of(xi);
    const int cy = cell_of(yi);
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int bx = cx + dx;
        const int by = cy + dy;
        if (bx < 0 || bx >= cells || by < 0 || by >= cells) continue;
        for (int j : bucket_of(bx, by)) {
          if (j <= i) continue;  // each pair once
          const double ddx = xi - px[static_cast<std::size_t>(j)];
          const double ddy = yi - py[static_cast<std::size_t>(j)];
          if (ddx * ddx + ddy * ddy <= r2) {
            edges.push_back({i, j, 0});
          }
        }
      }
    }
  }
  // Volumes drawn after the edge set is fixed, in (i, j) sorted order,
  // so they do not depend on bucket iteration details.
  std::sort(edges.begin(), edges.end(), [](const CommEdge& a, const CommEdge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  for (CommEdge& e : edges) e.volume = rng.next_in(1, 16);
  return finish_graph(n, "geometric", edges, rng);
}

TaskGraph make_power_law(int n, int edges_per_vertex, std::uint64_t seed) {
  OREGAMI_ASSERT(n > 0 && edges_per_vertex > 0,
                 "power-law graph needs n>0, k>0");
  SplitMix64 rng(seed);
  // Preferential attachment via the repeated-endpoint list: vertex v
  // appears once per incident edge, so sampling the list uniformly is
  // degree-proportional sampling.
  std::vector<int> endpoints;
  endpoints.reserve(static_cast<std::size_t>(n) *
                    static_cast<std::size_t>(edges_per_vertex) * 2);
  std::vector<CommEdge> edges;
  std::vector<int> targets;
  for (int v = 1; v < n; ++v) {
    targets.clear();
    const int k = std::min(v, edges_per_vertex);
    for (int e = 0; e < k; ++e) {
      int u;
      if (endpoints.empty()) {
        u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v)));
      } else {
        u = endpoints[rng.next_below(endpoints.size())];
      }
      if (std::find(targets.begin(), targets.end(), u) == targets.end()) {
        targets.push_back(u);
      }
    }
    for (int u : targets) {
      edges.push_back({u, v, rng.next_in(1, 16)});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  return finish_graph(n, "powerlaw", edges, rng);
}

}  // namespace oregami
