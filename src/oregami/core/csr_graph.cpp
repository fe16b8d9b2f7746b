#include "oregami/core/csr_graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {

namespace {

// Builds CSR arrays from a list of undirected (u, v, w) records with
// u != v, possibly containing duplicates (which merge by summing).
// Mutates `edges` (sorts it). O(m log m).
void build_csr_from_pairs(int n,
                          std::vector<std::pair<std::int64_t, std::int64_t>>& edges,
                          CsrTaskGraph& out) {
  // Each record is packed as (min<<32|max, weight); sorting groups
  // duplicates so a single linear merge pass dedups them.
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t merged = 0;
  for (std::size_t i = 0; i < edges.size();) {
    std::int64_t key = edges[i].first;
    std::int64_t w = 0;
    while (i < edges.size() && edges[i].first == key) {
      w += edges[i].second;
      ++i;
    }
    edges[merged++] = {key, w};
  }
  edges.resize(merged);

  out.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [key, w] : edges) {
    ++out.offsets[static_cast<std::size_t>(key >> 32) + 1];
    ++out.offsets[static_cast<std::size_t>(key & 0xffffffff) + 1];
  }
  for (std::size_t v = 1; v < out.offsets.size(); ++v) {
    out.offsets[v] += out.offsets[v - 1];
  }

  out.neighbors.resize(edges.size() * 2);
  out.edge_weight.resize(edges.size() * 2);
  std::vector<std::int32_t> cursor(out.offsets.begin(),
                                   out.offsets.end() - 1);
  out.total_edge_weight = 0;
  for (const auto& [key, w] : edges) {
    const auto u = static_cast<std::size_t>(key >> 32);
    const auto v = static_cast<std::size_t>(key & 0xffffffff);
    const auto at_u = static_cast<std::size_t>(cursor[u]++);
    out.neighbors[at_u] = static_cast<std::int32_t>(v);
    out.edge_weight[at_u] = w;
    const auto at_v = static_cast<std::size_t>(cursor[v]++);
    out.neighbors[at_v] = static_cast<std::int32_t>(u);
    out.edge_weight[at_v] = w;
    out.total_edge_weight += w;
  }
  // Sorted input keys mean each vertex's neighbor range comes out
  // ascending, which coarsening's tie-break relies on.
}

}  // namespace

CsrTaskGraph CsrTaskGraph::from_task_graph(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  CsrTaskGraph out;
  out.vertex_weight = graph.exec_weights();

  const std::vector<long> comm_mult = graph.comm_phase_multiplicity();
  out.total_vertex_weight = 0;
  for (std::int64_t w : out.vertex_weight) out.total_vertex_weight += w;

  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  pairs.reserve(static_cast<std::size_t>(graph.num_comm_edges()));
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    if (comm_mult[k] == 0) continue;
    for (const CommEdge& e : graph.comm_phases()[k].edges) {
      if (e.src == e.dst) continue;  // intra-task traffic is free
      const int u = std::min(e.src, e.dst);
      const int v = std::max(e.src, e.dst);
      pairs.emplace_back((static_cast<std::int64_t>(u) << 32) | v,
                         e.volume * comm_mult[k]);
    }
  }
  build_csr_from_pairs(n, pairs, out);
  return out;
}

Graph CsrTaskGraph::to_graph() const {
  Graph g(num_vertices());
  for (int v = 0; v < num_vertices(); ++v) {
    for (std::size_t i = edge_begin(v); i < edge_end(v); ++i) {
      const int u = neighbors[i];
      if (u > v) g.add_edge(v, u, edge_weight[i]);
    }
  }
  return g;
}

TaskGraph CsrTaskGraph::to_task_graph() const {
  TaskGraph g;
  for (int v = 0; v < num_vertices(); ++v) {
    g.add_task("s" + std::to_string(v));
  }
  const int comm = g.add_comm_phase("agg");
  for (int v = 0; v < num_vertices(); ++v) {
    for (std::size_t i = edge_begin(v); i < edge_end(v); ++i) {
      const int u = neighbors[i];
      if (u > v) g.add_comm_edge(comm, v, u, edge_weight[i]);
    }
  }
  g.add_exec_phase("work", vertex_weight);
  return g;
}

CoarsenResult coarsen_heavy_edge(const CsrTaskGraph& g, std::uint64_t seed,
                                 int target_vertices) {
  const int n = g.num_vertices();
  const auto size = static_cast<std::size_t>(n);
  CoarsenResult result;
  result.coarse_of_fine.assign(size, -1);

  // Seed-shuffled visit order: randomization spreads matches evenly
  // (pure id order produces long chains on grids), determinism keeps
  // the whole V-cycle reproducible.
  std::vector<std::int32_t> order(size);
  std::iota(order.begin(), order.end(), 0);
  SplitMix64 rng(seed);
  for (std::size_t v = size; v-- > 1;) {
    std::swap(order[v], order[rng.next_below(v + 1)]);
  }

  std::vector<std::int32_t> mate(size, -1);
  int remaining = n;
  for (std::size_t idx = 0; idx < size && remaining > target_vertices;
       ++idx) {
    const int v = order[idx];
    if (mate[static_cast<std::size_t>(v)] != -1) continue;
    // Heaviest unmatched neighbor; neighbor ranges are ascending, so
    // strict `>` keeps the lowest id on ties.
    int best = -1;
    std::int64_t best_w = -1;
    for (std::size_t i = g.edge_begin(v); i < g.edge_end(v); ++i) {
      const int u = g.neighbors[i];
      if (mate[static_cast<std::size_t>(u)] != -1) continue;
      if (g.edge_weight[i] > best_w) {
        best_w = g.edge_weight[i];
        best = u;
      }
    }
    if (best != -1) {
      mate[static_cast<std::size_t>(v)] = best;
      mate[static_cast<std::size_t>(best)] = v;
      --remaining;
    }
  }

  // Coarse ids by ascending minimum fine id: independent of both the
  // shuffle order and which endpoint found the match.
  int next_id = 0;
  for (std::size_t v = 0; v < size; ++v) {
    if (result.coarse_of_fine[v] != -1) continue;
    result.coarse_of_fine[v] = next_id;
    const int m = mate[v];
    if (m != -1 && static_cast<std::size_t>(m) > v) {
      result.coarse_of_fine[static_cast<std::size_t>(m)] = next_id;
    }
    ++next_id;
  }
  OREGAMI_ASSERT(next_id == remaining, "coarse id count mismatch");

  CsrTaskGraph& coarse = result.coarse;
  coarse.vertex_weight.assign(static_cast<std::size_t>(next_id), 0);
  for (std::size_t v = 0; v < size; ++v) {
    coarse.vertex_weight[static_cast<std::size_t>(result.coarse_of_fine[v])] +=
        g.vertex_weight[v];
  }
  coarse.total_vertex_weight = g.total_vertex_weight;

  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  pairs.reserve(static_cast<std::size_t>(g.num_edges()));
  result.internalized_weight = 0;
  for (int v = 0; v < n; ++v) {
    const int cv = result.coarse_of_fine[static_cast<std::size_t>(v)];
    for (std::size_t i = g.edge_begin(v); i < g.edge_end(v); ++i) {
      const int u = g.neighbors[i];
      if (u <= v) continue;  // visit each undirected edge once
      const int cu = result.coarse_of_fine[static_cast<std::size_t>(u)];
      if (cu == cv) {
        result.internalized_weight += g.edge_weight[i];
        continue;
      }
      const int a = std::min(cu, cv);
      const int b = std::max(cu, cv);
      pairs.emplace_back((static_cast<std::int64_t>(a) << 32) | b,
                         g.edge_weight[i]);
    }
  }
  build_csr_from_pairs(next_id, pairs, coarse);
  OREGAMI_ASSERT(
      coarse.total_edge_weight + result.internalized_weight ==
          g.total_edge_weight,
      "coarsening lost comm volume");
  return result;
}

}  // namespace oregami
