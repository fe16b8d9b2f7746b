#include "oregami/arch/topology.hpp"

#include <algorithm>

#include "oregami/arch/routes.hpp"
#include "oregami/graph/gray_code.hpp"
#include "oregami/graph/shortest_paths.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

std::string to_string(TopoFamily family) {
  switch (family) {
    case TopoFamily::Custom:
      return "custom";
    case TopoFamily::Ring:
      return "ring";
    case TopoFamily::Chain:
      return "chain";
    case TopoFamily::Mesh:
      return "mesh";
    case TopoFamily::Torus:
      return "torus";
    case TopoFamily::Hypercube:
      return "hypercube";
    case TopoFamily::CompleteBinaryTree:
      return "complete-binary-tree";
    case TopoFamily::Star:
      return "star";
    case TopoFamily::Complete:
      return "complete";
    case TopoFamily::Butterfly:
      return "butterfly";
    case TopoFamily::Mesh3D:
      return "mesh3d";
  }
  return "custom";
}

Topology::Topology(std::string name, TopoFamily family,
                   std::vector<int> shape, Graph links)
    : name_(std::move(name)),
      family_(family),
      shape_(std::move(shape)),
      links_(std::move(links)),
      custom_dist_(family == TopoFamily::Custom
                       ? std::make_shared<CustomDistances>()
                       : nullptr),
      route_table_(links_.num_vertices() <= kRouteTableMaxProcs
                       ? std::make_shared<LazyRouteTable>()
                       : nullptr) {}

Topology Topology::ring(int p) {
  OREGAMI_ASSERT(p >= 3, "ring needs at least 3 processors");
  Graph g(p);
  for (int i = 0; i < p; ++i) {
    g.add_edge(i, (i + 1) % p);
  }
  return Topology("ring(" + std::to_string(p) + ")", TopoFamily::Ring, {p},
                  std::move(g));
}

Topology Topology::chain(int p) {
  OREGAMI_ASSERT(p >= 1, "chain needs at least 1 processor");
  Graph g(p);
  for (int i = 0; i + 1 < p; ++i) {
    g.add_edge(i, i + 1);
  }
  return Topology("chain(" + std::to_string(p) + ")", TopoFamily::Chain,
                  {p}, std::move(g));
}

Topology Topology::mesh(int rows, int cols) {
  OREGAMI_ASSERT(rows >= 1 && cols >= 1, "mesh dimensions must be positive");
  Graph g(rows * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int v = r * cols + c;
      if (c + 1 < cols) {
        g.add_edge(v, v + 1);
      }
      if (r + 1 < rows) {
        g.add_edge(v, v + cols);
      }
    }
  }
  return Topology(
      "mesh(" + std::to_string(rows) + "x" + std::to_string(cols) + ")",
      TopoFamily::Mesh, {rows, cols}, std::move(g));
}

Topology Topology::torus(int rows, int cols) {
  OREGAMI_ASSERT(rows >= 3 && cols >= 3,
                 "torus dimensions must be >= 3 (smaller wraps create "
                 "parallel links)");
  Graph g(rows * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int v = r * cols + c;
      g.add_edge(v, r * cols + (c + 1) % cols);
      g.add_edge(v, ((r + 1) % rows) * cols + c);
    }
  }
  return Topology(
      "torus(" + std::to_string(rows) + "x" + std::to_string(cols) + ")",
      TopoFamily::Torus, {rows, cols}, std::move(g));
}

Topology Topology::hypercube(int dim) {
  OREGAMI_ASSERT(dim >= 0 && dim <= 20, "hypercube dimension out of range");
  const int p = 1 << dim;
  Graph g(p);
  for (int v = 0; v < p; ++v) {
    for (int b = 0; b < dim; ++b) {
      const int w = v ^ (1 << b);
      if (v < w) {
        g.add_edge(v, w);
      }
    }
  }
  return Topology("hypercube(" + std::to_string(dim) + ")",
                  TopoFamily::Hypercube, {dim}, std::move(g));
}

Topology Topology::complete_binary_tree(int levels) {
  OREGAMI_ASSERT(levels >= 1, "tree needs at least one level");
  const int p = (1 << levels) - 1;
  Graph g(p);
  for (int v = 1; v < p; ++v) {
    g.add_edge(v, (v - 1) / 2);
  }
  return Topology("cbt(" + std::to_string(levels) + ")",
                  TopoFamily::CompleteBinaryTree, {levels}, std::move(g));
}

Topology Topology::star(int p) {
  OREGAMI_ASSERT(p >= 2, "star needs at least 2 processors");
  Graph g(p);
  for (int v = 1; v < p; ++v) {
    g.add_edge(0, v);
  }
  return Topology("star(" + std::to_string(p) + ")", TopoFamily::Star, {p},
                  std::move(g));
}

Topology Topology::complete(int p) {
  OREGAMI_ASSERT(p >= 2, "complete graph needs at least 2 processors");
  Graph g(p);
  for (int u = 0; u < p; ++u) {
    for (int v = u + 1; v < p; ++v) {
      g.add_edge(u, v);
    }
  }
  return Topology("complete(" + std::to_string(p) + ")",
                  TopoFamily::Complete, {p}, std::move(g));
}

Topology Topology::butterfly(int k) {
  OREGAMI_ASSERT(k >= 1 && k <= 12, "butterfly order out of range");
  // (k+1) ranks x 2^k columns; rank l node of column c connects to rank
  // l+1 nodes of columns c and c ^ (1 << l) (straight + cross edges).
  const int cols = 1 << k;
  const int p = (k + 1) * cols;
  Graph g(p);
  auto id = [cols](int rank, int col) { return rank * cols + col; };
  for (int rank = 0; rank < k; ++rank) {
    for (int col = 0; col < cols; ++col) {
      g.add_edge(id(rank, col), id(rank + 1, col));
      g.add_edge(id(rank, col), id(rank + 1, col ^ (1 << rank)));
    }
  }
  return Topology("butterfly(" + std::to_string(k) + ")",
                  TopoFamily::Butterfly, {k}, std::move(g));
}

Topology Topology::mesh3d(int nx, int ny, int nz) {
  OREGAMI_ASSERT(nx >= 1 && ny >= 1 && nz >= 1,
                 "mesh3d dimensions must be positive");
  Graph g(nx * ny * nz);
  auto id = [ny, nz](int x, int y, int z) { return (x * ny + y) * nz + z; };
  for (int x = 0; x < nx; ++x) {
    for (int y = 0; y < ny; ++y) {
      for (int z = 0; z < nz; ++z) {
        if (x + 1 < nx) {
          g.add_edge(id(x, y, z), id(x + 1, y, z));
        }
        if (y + 1 < ny) {
          g.add_edge(id(x, y, z), id(x, y + 1, z));
        }
        if (z + 1 < nz) {
          g.add_edge(id(x, y, z), id(x, y, z + 1));
        }
      }
    }
  }
  return Topology("mesh3d(" + std::to_string(nx) + "x" +
                      std::to_string(ny) + "x" + std::to_string(nz) + ")",
                  TopoFamily::Mesh3D, {nx, ny, nz}, std::move(g));
}

Topology Topology::custom(std::string name, Graph links) {
  return Topology(std::move(name), TopoFamily::Custom, {},
                  std::move(links));
}

std::optional<int> Topology::link_between(int u, int v) const {
  for (const auto& a : links_.neighbors(u)) {
    if (a.neighbor == v) {
      return a.edge_id;
    }
  }
  return std::nullopt;
}

std::pair<int, int> Topology::link_endpoints(int l) const {
  OREGAMI_ASSERT(l >= 0 && l < num_links(), "link id out of range");
  const auto& e = links_.edges()[static_cast<std::size_t>(l)];
  return {e.u, e.v};
}

const Topology::CustomDistances& Topology::custom_distances() const {
  auto& state = *custom_dist_;
  // call_once both serialises the fill and publishes it: every thread
  // returning from here sees the completed table, so an unwarmed Custom
  // topology can be shared across threads safely (the hazard the PR-1
  // portfolio worked around with an explicit pre-warm).
  std::call_once(state.once, [&] {
    const int p = num_procs();
    state.flat.resize(static_cast<std::size_t>(p) *
                      static_cast<std::size_t>(p));
    for (int u = 0; u < p; ++u) {
      const std::vector<int> row = bfs_distances(links_, u);
      std::copy(row.begin(), row.end(),
                state.flat.begin() +
                    static_cast<std::ptrdiff_t>(u) * p);
    }
    for (const int d : state.flat) {
      state.min_entry = std::min(state.min_entry, d);
      state.diameter = std::max(state.diameter, d);
    }
  });
  return state;
}

const Topology::GreedyRouteTable& Topology::filled_route_table() const {
  auto& state = *route_table_;
  std::call_once(state.once, [&] {
    GreedyRouteTable& table = state.table;
    const int p = num_procs();
    table.num_procs = p;
    table.offsets.reserve(static_cast<std::size_t>(p) *
                              static_cast<std::size_t>(p) +
                          1);
    table.offsets.push_back(0);
    for (int src = 0; src < p; ++src) {
      for (int dst = 0; dst < p; ++dst) {
        // An unreachable pair (distance -1) keeps an empty range, so
        // only a walk that asks for it fails.
        if (distance(src, dst) > 0) {
          walk_oracle_route(*this, src, dst, [&table](int link) {
            table.links.push_back(link);
          });
        }
        table.offsets.push_back(
            static_cast<std::int32_t>(table.links.size()));
      }
    }
    table.links.shrink_to_fit();
    state.ready.store(true, std::memory_order_release);
  });
  return state.table;
}

namespace {

/// out[v] += weight * d(u, v) for every v in [0, p): chunked for a
/// separable oracle, the oracle's own loop when it has one, else one
/// inline oracle call per element.
template <class Oracle>
void accumulate_row(const Oracle& d, int u, int p, std::int64_t weight,
                    std::int64_t* out) {
  if constexpr (requires { d.inner_size(); }) {
    // Weight a chunk of inner terms once; each outer block then adds
    // its own weighted term to them, with no multiply per element.
    using distance_oracle::kRowChunk;
    std::int64_t inner_term[kRowChunk];
    const int inner = d.inner_size();
    for (int i0 = 0; i0 < inner; i0 += kRowChunk) {
      const int n = std::min(kRowChunk, inner - i0);
      for (int i = 0; i < n; ++i) {
        inner_term[i] = weight * d.inner_dist(u, i0 + i);
      }
      for (int o = 0; o < d.outer_size(); ++o) {
        const std::int64_t outer_term = weight * d.outer_dist(u, o);
        std::int64_t* block = out + o * inner + i0;
        for (int i = 0; i < n; ++i) {
          block[i] += outer_term + inner_term[i];
        }
      }
    }
  } else if constexpr (requires { d.accumulate_row(u, weight, out); }) {
    d.accumulate_row(u, weight, out);
  } else {
    for (int v = 0; v < p; ++v) {
      out[v] += weight * d(u, v);
    }
  }
}

}  // namespace

int Topology::distance(int u, int v) const {
  OREGAMI_ASSERT(u >= 0 && u < num_procs() && v >= 0 && v < num_procs(),
                 "processor id out of range");
  return with_oracle([u, v](const auto& d) { return d(u, v); });
}

void Topology::accumulate_distance_row(int u, std::int64_t weight,
                                       std::span<std::int64_t> acc) const {
  OREGAMI_ASSERT(u >= 0 && u < num_procs(), "processor id out of range");
  OREGAMI_ASSERT(acc.size() == static_cast<std::size_t>(num_procs()),
                 "the row needs one accumulator per processor");
  with_oracle([&](const auto& d) {
    accumulate_row(d, u, num_procs(), weight, acc.data());
  });
}

int Topology::diameter() const {
  switch (family_) {
    case TopoFamily::Ring:
      return shape_[0] / 2;
    case TopoFamily::Chain:
      return shape_[0] - 1;
    case TopoFamily::Mesh:
      return (shape_[0] - 1) + (shape_[1] - 1);
    case TopoFamily::Torus:
      return shape_[0] / 2 + shape_[1] / 2;
    case TopoFamily::Hypercube:
      return shape_[0];
    case TopoFamily::CompleteBinaryTree:
      return 2 * (shape_[0] - 1);
    case TopoFamily::Star:
      return num_procs() <= 2 ? num_procs() - 1 : 2;
    case TopoFamily::Complete:
      return 1;
    case TopoFamily::Butterfly:
      return 2 * shape_[0];
    case TopoFamily::Mesh3D:
      return (shape_[0] - 1) + (shape_[1] - 1) + (shape_[2] - 1);
    case TopoFamily::Custom: {
      if (num_procs() == 0) {
        return 0;
      }
      const auto& state = custom_distances();
      OREGAMI_ASSERT(state.min_entry >= 0, "topology must be connected");
      return state.diameter;
    }
  }
  return 0;  // unreachable
}

std::string Topology::proc_label(int p) const {
  switch (family_) {
    case TopoFamily::Mesh:
    case TopoFamily::Torus: {
      const auto [r, c] = coords2d(p);
      std::string label = "(";
      label += std::to_string(r);
      label += ',';
      label += std::to_string(c);
      label += ')';
      return label;
    }
    case TopoFamily::Hypercube: {
      const int dim = shape_[0];
      std::string bits;
      for (int b = dim - 1; b >= 0; --b) {
        bits += ((p >> b) & 1) ? '1' : '0';
      }
      return bits.empty() ? "0" : bits;
    }
    default:
      return std::to_string(p);
  }
}

std::pair<int, int> Topology::coords2d(int p) const {
  OREGAMI_ASSERT(family_ == TopoFamily::Mesh || family_ == TopoFamily::Torus,
                 "coords2d requires a 2-D mesh/torus topology");
  const int cols = shape_[1];
  return {p / cols, p % cols};
}

int Topology::at2d(int r, int c) const {
  OREGAMI_ASSERT(family_ == TopoFamily::Mesh || family_ == TopoFamily::Torus,
                 "at2d requires a 2-D mesh/torus topology");
  OREGAMI_ASSERT(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1],
                 "mesh coordinates out of range");
  return r * shape_[1] + c;
}

}  // namespace oregami
