// Interconnection-network models (paper §1: "homogeneous processors
// connected by some regular network topology" -- iPSC/2, NCUBE,
// Transputer class machines).
//
// A Topology is an undirected link graph over processors [0, P), plus
// family metadata (so canned mappings and dimension-order routing can
// exploit structure). Hop distances come from closed-form O(1) oracles
// for every regular family (index arithmetic, per-axis Manhattan,
// popcount, LCA depth, butterfly rank arithmetic; see
// distance_oracle.hpp); only Custom topologies fall back to a BFS
// all-pairs table, stored as one flat row-major allocation and filled
// exactly once under std::call_once. Every const distance query is
// therefore allocation-free and safe to call concurrently from multiple
// threads.
//
// A machine with at most kRouteTableMaxProcs processors also keeps every
// greedy route (arch/routes.hpp) in one flat table: P*P + 1 offsets into
// one link array, filled on first use under std::call_once by the oracle
// walk and shared by copies, like the Custom distance table. Larger
// machines have no table, and walk each route through their oracle.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "oregami/arch/distance_oracle.hpp"
#include "oregami/graph/graph.hpp"

namespace oregami {

enum class TopoFamily {
  Custom,
  Ring,
  Chain,
  Mesh,     ///< shape {rows, cols}
  Torus,    ///< shape {rows, cols}
  Hypercube,///< shape {dim}
  CompleteBinaryTree,  ///< shape {levels}
  Star,
  Complete,
  Butterfly,  ///< shape {k}: (k+1) ranks of 2^k switches
  Mesh3D,     ///< shape {nx, ny, nz}
};

[[nodiscard]] std::string to_string(TopoFamily family);

class Topology {
 public:
  /// Factories for the regular networks OREGAMI targets.
  static Topology ring(int p);
  static Topology chain(int p);
  static Topology mesh(int rows, int cols);
  static Topology torus(int rows, int cols);
  static Topology hypercube(int dim);
  static Topology complete_binary_tree(int levels);
  static Topology star(int p);
  static Topology complete(int p);
  static Topology butterfly(int k);
  static Topology mesh3d(int nx, int ny, int nz);

  /// An arbitrary processor graph (family = Custom).
  static Topology custom(std::string name, Graph links);

  [[nodiscard]] int num_procs() const { return links_.num_vertices(); }
  [[nodiscard]] int num_links() const { return links_.num_edges(); }
  [[nodiscard]] const Graph& graph() const { return links_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TopoFamily family() const { return family_; }
  [[nodiscard]] const std::vector<int>& shape() const { return shape_; }

  /// Link id joining processors u and v, or nullopt when not adjacent.
  [[nodiscard]] std::optional<int> link_between(int u, int v) const;

  /// Endpoints of link `l` (normalised u < v).
  [[nodiscard]] std::pair<int, int> link_endpoints(int l) const;

  /// Hop distance: closed-form O(1) for every regular family, flat BFS
  /// table lookup for Custom (filled once, thread-safely). For a
  /// disconnected Custom topology unreachable pairs report -1, matching
  /// bfs_distances().
  [[nodiscard]] int distance(int u, int v) const;

  /// Returns fn(oracle) with this topology's distance oracle
  /// (distance_oracle.hpp): oracle(u, v) == distance(u, v) for every
  /// pair in range, unchecked. A loop that reads many distances picks
  /// the family once here and evaluates the formula inline.
  template <class Fn>
  decltype(auto) with_oracle(Fn&& fn) const;

  /// Weighted row: acc[v] += weight * distance(u, v) for every
  /// processor v (acc.size() == num_procs()). The family is dispatched
  /// once per row, not once per pair: mesh, torus, mesh3d and hypercube
  /// weight their per-column terms once and then only add (no division
  /// or multiply per element), butterfly finds each column's differing
  /// bits once, Custom reads its table row (an unreachable pair adds
  /// weight * -1, as distance() reports), and every other family
  /// evaluates its closed form inline. Allocation-free.
  void accumulate_distance_row(int u, std::int64_t weight,
                               std::span<std::int64_t> acc) const;

  [[nodiscard]] int diameter() const;

  /// Machines with at most this many processors get a greedy-route
  /// table. Its one-time build walks every route once: 5-25 us and
  /// 2-6.5 KB at P <= 16, which the smallest SA chain repays. At P = 32
  /// (about 0.1 ms) and P = 64 (0.5-0.8 ms, 65-280 KB) the build costs
  /// more than a small job saves (DESIGN.md §6).
  static constexpr int kRouteTableMaxProcs = 16;

  /// Every greedy route of a machine, in one flat array: route (s, d)
  /// is links[offsets[s * P + d], offsets[s * P + d + 1]). The range is
  /// empty when s == d and when d is unreachable from s (a disconnected
  /// Custom machine).
  struct GreedyRouteTable {
    int num_procs = 0;
    std::vector<std::int32_t> offsets;  ///< P * P + 1 entries
    std::vector<int> links;

    [[nodiscard]] std::span<const int> route(int src, int dst) const {
      const auto pair = static_cast<std::size_t>(src * num_procs + dst);
      return {links.data() + offsets[pair], links.data() + offsets[pair + 1]};
    }
  };

  /// The greedy-route table, filled on first use (thread-safely), or
  /// nullptr above kRouteTableMaxProcs. Above the bound this is one
  /// inline null check.
  [[nodiscard]] const GreedyRouteTable* greedy_route_table() const {
    if (route_table_ == nullptr) {
      return nullptr;
    }
    return route_table_->ready.load(std::memory_order_acquire)
               ? &route_table_->table
               : &filled_route_table();
  }

  /// Human label for a processor: plain index, mesh coordinates
  /// "(r,c)", or binary address for hypercubes.
  [[nodiscard]] std::string proc_label(int p) const;

  /// Mesh/torus row-col coordinates of p. Requires a 2-D family.
  [[nodiscard]] std::pair<int, int> coords2d(int p) const;

  /// Processor at mesh/torus coordinates (r, c).
  [[nodiscard]] int at2d(int r, int c) const;

 private:
  Topology(std::string name, TopoFamily family, std::vector<int> shape,
           Graph links);

  /// Custom-family lazy state: one flat row-major P*P table, built
  /// exactly once. Held by shared_ptr so copies of a Topology share the
  /// (immutable-once-published) table instead of re-running BFS.
  struct CustomDistances {
    std::once_flag once;
    std::vector<int> flat;  ///< row-major, flat[u * P + v]
    int min_entry = 0;      ///< < 0 iff the graph is disconnected
    int diameter = 0;
  };

  [[nodiscard]] const CustomDistances& custom_distances() const;

  /// Greedy-route lazy state, shared by copies like CustomDistances.
  /// `ready` is set once the fill is done, so a reader that sees it
  /// skips std::call_once.
  struct LazyRouteTable {
    std::once_flag once;
    std::atomic<bool> ready{false};
    GreedyRouteTable table;
  };

  [[nodiscard]] const GreedyRouteTable& filled_route_table() const;

  std::string name_;
  TopoFamily family_;
  std::vector<int> shape_;
  Graph links_;
  // Allocated only for Custom; mutable because the once-fill happens
  // behind logically-const distance queries.
  mutable std::shared_ptr<CustomDistances> custom_dist_;
  // Allocated only up to kRouteTableMaxProcs.
  mutable std::shared_ptr<LazyRouteTable> route_table_;
};

template <class Fn>
decltype(auto) Topology::with_oracle(Fn&& fn) const {
  namespace oracle = distance_oracle;
  switch (family_) {
    case TopoFamily::Ring:
      return fn(oracle::Ring{shape_[0]});
    case TopoFamily::Chain:
      return fn(oracle::Chain{});
    case TopoFamily::Mesh:
      return fn(oracle::Grid<false>{shape_[0], shape_[1]});
    case TopoFamily::Torus:
      return fn(oracle::Grid<true>{shape_[0], shape_[1]});
    case TopoFamily::Hypercube:
      return fn(oracle::Hypercube{shape_[0]});
    case TopoFamily::CompleteBinaryTree:
      return fn(oracle::Tree{});
    case TopoFamily::Star:
      return fn(oracle::Star{});
    case TopoFamily::Complete:
      return fn(oracle::Complete{});
    case TopoFamily::Butterfly:
      return fn(oracle::Butterfly{shape_[0]});
    case TopoFamily::Mesh3D:
      return fn(oracle::Mesh3D{shape_[0], shape_[1], shape_[2]});
    case TopoFamily::Custom:
      break;
  }
  return fn(oracle::Table{custom_distances().flat.data(), num_procs()});
}

}  // namespace oregami
