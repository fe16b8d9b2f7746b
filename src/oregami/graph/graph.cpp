#include "oregami/graph/graph.hpp"

#include <algorithm>

#include "oregami/support/error.hpp"

namespace oregami {

Graph::Graph(int num_vertices) {
  OREGAMI_ASSERT(num_vertices >= 0, "vertex count must be non-negative");
  adj_.resize(static_cast<std::size_t>(num_vertices));
}

int Graph::add_edge(int u, int v, std::int64_t weight) {
  OREGAMI_ASSERT(u >= 0 && u < num_vertices(), "edge endpoint out of range");
  OREGAMI_ASSERT(v >= 0 && v < num_vertices(), "edge endpoint out of range");
  OREGAMI_ASSERT(u != v, "self-loops are not supported");

  for (auto& a : adj_[static_cast<std::size_t>(u)]) {
    if (a.neighbor == v) {
      a.weight += weight;
      edges_[static_cast<std::size_t>(a.edge_id)].weight += weight;
      for (auto& b : adj_[static_cast<std::size_t>(v)]) {
        if (b.edge_id == a.edge_id) {
          b.weight += weight;
          break;
        }
      }
      return a.edge_id;
    }
  }

  const int id = num_edges();
  edges_.push_back({std::min(u, v), std::max(u, v), weight});
  adj_[static_cast<std::size_t>(u)].push_back({v, weight, id});
  adj_[static_cast<std::size_t>(v)].push_back({u, weight, id});
  return id;
}

const std::vector<Adjacency>& Graph::neighbors(int v) const {
  OREGAMI_ASSERT(v >= 0 && v < num_vertices(), "vertex out of range");
  return adj_[static_cast<std::size_t>(v)];
}

std::optional<std::int64_t> Graph::edge_weight(int u, int v) const {
  for (const auto& a : neighbors(u)) {
    if (a.neighbor == v) {
      return a.weight;
    }
  }
  return std::nullopt;
}

std::int64_t Graph::total_weight() const {
  std::int64_t sum = 0;
  for (const auto& e : edges_) {
    sum += e.weight;
  }
  return sum;
}

std::vector<int> connected_components(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  std::vector<int> stack;
  int next_id = 0;
  for (int s = 0; s < n; ++s) {
    if (comp[static_cast<std::size_t>(s)] != -1) {
      continue;
    }
    comp[static_cast<std::size_t>(s)] = next_id;
    stack.push_back(s);
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (const auto& a : g.neighbors(v)) {
        if (comp[static_cast<std::size_t>(a.neighbor)] == -1) {
          comp[static_cast<std::size_t>(a.neighbor)] = next_id;
          stack.push_back(a.neighbor);
        }
      }
    }
    ++next_id;
  }
  return comp;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) {
    return true;
  }
  const auto comp = connected_components(g);
  return std::all_of(comp.begin(), comp.end(),
                     [](int c) { return c == 0; });
}

std::int64_t cut_weight(const Graph& g,
                        const std::vector<int>& part_of_vertex) {
  std::int64_t cut = 0;
  for (const auto& e : g.edges()) {
    if (part_of_vertex[static_cast<std::size_t>(e.u)] !=
        part_of_vertex[static_cast<std::size_t>(e.v)]) {
      cut += e.weight;
    }
  }
  return cut;
}

}  // namespace oregami
