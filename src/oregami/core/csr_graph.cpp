#include "oregami/core/csr_graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {

namespace {

// Builds the CSR arrays from undirected (u, v, w) records, possibly
// with duplicates (parallel or antiparallel records, which merge by
// summing), without sorting them as a whole. `for_each_record(emit)`
// must call emit(u, v, w) for the same records each time it runs; it
// runs twice. Pass 1 counts each vertex's half-edges; pass 2 scatters
// them straight into `neighbors`/`edge_weight`. Each vertex's range is
// then sorted by neighbour, its duplicates summed, and the ranges
// packed down in place, so every range comes out ascending, which
// coarsening's tie-break relies on. A record with u == v adds no edge;
// returns the total weight of those records. O(m + sum of d log d).
template <class ForEachRecord>
std::int64_t build_csr(int n, ForEachRecord&& for_each_record,
                       CsrTaskGraph& out) {
  out.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for_each_record([&out](int u, int v, std::int64_t /*w*/) {
    if (u == v) return;
    ++out.offsets[static_cast<std::size_t>(u) + 1];
    ++out.offsets[static_cast<std::size_t>(v) + 1];
  });
  for (std::size_t v = 1; v < out.offsets.size(); ++v) {
    out.offsets[v] += out.offsets[v - 1];
  }

  const auto half_edges = static_cast<std::size_t>(out.offsets.back());
  out.neighbors.resize(half_edges);
  out.edge_weight.resize(half_edges);
  std::vector<std::int32_t> cursor(out.offsets.begin(),
                                   out.offsets.end() - 1);
  std::int64_t self_weight = 0;
  out.total_edge_weight = 0;
  for_each_record([&](int u, int v, std::int64_t w) {
    if (u == v) {
      self_weight += w;
      return;
    }
    const auto at_u = static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++);
    out.neighbors[at_u] = v;
    out.edge_weight[at_u] = w;
    const auto at_v = static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++);
    out.neighbors[at_v] = u;
    out.edge_weight[at_v] = w;
    out.total_edge_weight += w;
  });

  // Sort and merge each range, writing it down to `packed`; a range
  // never grows, so the write never overtakes the next unread range.
  std::vector<std::pair<std::int32_t, std::int64_t>> range;
  std::size_t packed = 0;
  for (std::size_t v = 0; v + 1 < out.offsets.size(); ++v) {
    const auto begin = static_cast<std::size_t>(out.offsets[v]);
    const auto end = static_cast<std::size_t>(out.offsets[v + 1]);
    out.offsets[v] = static_cast<std::int32_t>(packed);
    range.clear();
    for (std::size_t i = begin; i < end; ++i) {
      range.emplace_back(out.neighbors[i], out.edge_weight[i]);
    }
    std::sort(range.begin(), range.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < range.size(); ++i) {
      if (i > 0 && range[i].first == range[i - 1].first) {
        out.edge_weight[packed - 1] += range[i].second;
      } else {
        out.neighbors[packed] = range[i].first;
        out.edge_weight[packed] = range[i].second;
        ++packed;
      }
    }
  }
  out.offsets.back() = static_cast<std::int32_t>(packed);
  out.neighbors.resize(packed);
  out.neighbors.shrink_to_fit();
  out.edge_weight.resize(packed);
  out.edge_weight.shrink_to_fit();
  return self_weight;
}

}  // namespace

CsrTaskGraph CsrTaskGraph::from_task_graph(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  CsrTaskGraph out;
  out.vertex_weight = graph.exec_weights();

  const std::vector<long> comm_mult = graph.comm_phase_multiplicity();
  out.total_vertex_weight = 0;
  for (std::int64_t w : out.vertex_weight) out.total_vertex_weight += w;

  build_csr(
      n,
      [&](const auto& emit) {
        for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
          if (comm_mult[k] == 0) continue;
          for (const CommEdge& e : graph.comm_phases()[k].edges) {
            if (e.src == e.dst) continue;  // intra-task traffic is free
            emit(e.src, e.dst, e.volume * comm_mult[k]);
          }
        }
      },
      out);
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
    std::string name = "s";
    name += std::to_string(v);
    g.add_task(std::move(name));
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

  // A fine edge inside one super-vertex is a self record: internalized.
  result.internalized_weight = build_csr(
      next_id,
      [&](const auto& emit) {
        for (int v = 0; v < n; ++v) {
          const int cv = result.coarse_of_fine[static_cast<std::size_t>(v)];
          for (std::size_t i = g.edge_begin(v); i < g.edge_end(v); ++i) {
            const int u = g.neighbors[i];
            if (u <= v) continue;  // visit each undirected edge once
            emit(cv, result.coarse_of_fine[static_cast<std::size_t>(u)],
                 g.edge_weight[i]);
          }
        }
      },
      coarse);
  OREGAMI_ASSERT(
      coarse.total_edge_weight + result.internalized_weight ==
          g.total_edge_weight,
      "coarsening lost comm volume");
  return result;
}

}  // namespace oregami
