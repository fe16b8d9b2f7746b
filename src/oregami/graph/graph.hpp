// Generic undirected weighted graph used as the substrate for MAPPER's
// combinatorial algorithms (contraction, embedding) and for network
// topologies. Vertices are dense integers [0, n); parallel edges are
// collapsed by summing weights (the semantics MWM-Contract needs when
// merging clusters).
#pragma once

#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

namespace oregami {

/// One endpoint record in an adjacency list.
struct Adjacency {
  int neighbor = 0;
  std::int64_t weight = 0;
  int edge_id = 0;  ///< index into Graph::edges()
};

/// An undirected weighted edge; `u < v` is not required on input but is
/// normalised internally.
struct WeightedEdge {
  int u = 0;
  int v = 0;
  std::int64_t weight = 0;
};

/// Dense undirected weighted graph with O(1) vertex/edge access.
///
/// Self-loops are rejected (no mapping algorithm in OREGAMI wants them);
/// adding an edge that already exists adds its weight to the existing
/// edge instead of creating a parallel edge.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_vertices);

  [[nodiscard]] int num_vertices() const {
    return static_cast<int>(adj_.size());
  }
  [[nodiscard]] int num_edges() const {
    return static_cast<int>(edges_.size());
  }

  /// Adds (or reinforces) the undirected edge {u, v} with `weight`.
  /// Returns the edge id. Requires u != v and both in range.
  int add_edge(int u, int v, std::int64_t weight = 1);

  /// All edges, normalised to u < v.
  [[nodiscard]] const std::vector<WeightedEdge>& edges() const {
    return edges_;
  }

  /// Adjacency list of `v`.
  [[nodiscard]] const std::vector<Adjacency>& neighbors(int v) const;

  /// Weight of edge {u, v}, or nullopt when absent. O(deg).
  [[nodiscard]] std::optional<std::int64_t> edge_weight(int u, int v) const;

  /// Degree of `v`.
  [[nodiscard]] int degree(int v) const {
    return static_cast<int>(neighbors(v).size());
  }

  /// Sum of all edge weights.
  [[nodiscard]] std::int64_t total_weight() const;

 private:
  std::vector<std::vector<Adjacency>> adj_;
  std::vector<WeightedEdge> edges_;
};

/// True when the graph is connected (the empty graph counts as
/// connected).
[[nodiscard]] bool is_connected(const Graph& g);

/// Component id per vertex, ids dense from 0 in first-seen order.
[[nodiscard]] std::vector<int> connected_components(const Graph& g);

/// Union-find over ids [0, n), with path halving.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void unite(int a, int b) {
    parent_[static_cast<std::size_t>(find(a))] = find(b);
  }

 private:
  std::vector<int> parent_;
};

/// Total weight of the edges whose endpoints lie in different parts
/// (`part_of_vertex` holds one part id per vertex).
[[nodiscard]] std::int64_t cut_weight(const Graph& g,
                                      const std::vector<int>& part_of_vertex);

}  // namespace oregami
