// Flat CSR (compressed sparse row) view of the aggregated task graph,
// plus the seeded heavy-edge-matching coarsener that powers the
// multilevel mapper (ROADMAP "scale wall"; Glantz/Meyerhenke/Noe-style
// V-cycles need a cache-friendly representation because the refinement
// hot loops walk every vertex's neighborhood dozens of times).
//
// Layout: three contiguous arrays — `offsets` (n+1 entries), and
// `neighbors`/`edge_weight` (2m entries, one per directed half-edge).
// Vertex v's neighborhood is the half-open range
// [offsets[v], offsets[v+1]); `edge_weight[i]` is the aggregate
// (multiplicity-weighted) comm volume between v and `neighbors[i]`.
// `vertex_weight[v]` is v's multiplicity-weighted exec cost. Unlike
// `Graph` (vector-of-vectors adjacency), a CSR sweep touches memory
// strictly sequentially, which is what makes 100k-task refinement
// sweeps affordable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oregami/core/task_graph.hpp"

namespace oregami {

/// Immutable flat adjacency view of a (coarsened) task graph.
///
/// Edges are undirected and deduplicated: parallel and antiparallel
/// `CommEdge`s collapse, their volumes (times phase multiplicity)
/// summing. Self-edges vanish (intra-vertex traffic costs nothing under
/// the completion model). Both half-edges of {u, v} are stored, so the
/// total of `edge_weight` is 2 * total_edge_weight.
struct CsrTaskGraph {
  std::vector<std::int32_t> offsets;    ///< size n+1; offsets[0] == 0
  std::vector<std::int32_t> neighbors;  ///< size 2m
  std::vector<std::int64_t> edge_weight;  ///< size 2m, aligned to neighbors
  std::vector<std::int64_t> vertex_weight;  ///< size n; folded exec cost

  std::int64_t total_edge_weight = 0;    ///< sum over undirected edges
  std::int64_t total_vertex_weight = 0;  ///< sum over vertices

  [[nodiscard]] int num_vertices() const {
    return static_cast<int>(vertex_weight.size());
  }
  [[nodiscard]] int num_edges() const {
    return static_cast<int>(neighbors.size()) / 2;
  }
  /// Vertex v's half-edges are [edge_begin(v), edge_end(v)).
  [[nodiscard]] std::size_t edge_begin(int v) const {
    return static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
  }
  [[nodiscard]] std::size_t edge_end(int v) const {
    return edge_begin(v + 1);
  }
  [[nodiscard]] int degree(int v) const {
    return static_cast<int>(edge_end(v) - edge_begin(v));
  }

  /// Builds the CSR aggregate of `graph`: volumes are weighted by each
  /// comm phase's multiplicity, exec costs by each exec phase's
  /// multiplicity (so a phase repeated ^8 counts 8x — the same folding
  /// the completion model applies). Built without a global sort: the
  /// records are counted, scattered into place, and each vertex's
  /// range sorted and merged on its own. O(m + sum of d log d).
  static CsrTaskGraph from_task_graph(const TaskGraph& graph);

  /// Converts to the adjacency-list `Graph` the seed matchers/embedders
  /// consume (used to hand the coarsest level to NN-Embed).
  [[nodiscard]] Graph to_graph() const;

  /// Expands back into a single-comm-phase, single-exec-phase
  /// `TaskGraph` (phase expression Idle => both phases run once).
  /// Used to build per-level `IncrementalCompletion` evaluators for
  /// intermediate coarse levels.
  [[nodiscard]] TaskGraph to_task_graph() const;
};

/// One coarsening step's output: the coarse graph plus the projection
/// map from fine vertices onto super-vertices.
struct CoarsenResult {
  CsrTaskGraph coarse;
  /// coarse_of_fine[v] = super-vertex of fine vertex v; every coarse id
  /// in [0, coarse.num_vertices()) appears at least once (surjective),
  /// and at most twice (matching pairs).
  std::vector<std::int32_t> coarse_of_fine;
  /// Total weight of edges internalized by this step (both endpoints
  /// merged into one super-vertex). Invariant:
  ///   coarse.total_edge_weight + internalized_weight
  ///     == fine.total_edge_weight
  std::int64_t internalized_weight = 0;
};

/// Seeded heavy-edge matching coarsener. Visits vertices in a
/// seed-shuffled order; each unmatched vertex pairs with its heaviest
/// unmatched neighbor (ties -> lowest neighbor id). Pairing stops once
/// the contracted size would drop below `target_vertices` (pass 0 for
/// "match as much as possible"). Coarse ids are assigned by ascending
/// minimum fine id, so the numbering is independent of the visit order.
/// Deterministic for a fixed (graph, seed, target). O(m + sum of
/// d log d), the CSR build of from_task_graph.
[[nodiscard]] CoarsenResult coarsen_heavy_edge(const CsrTaskGraph& g,
                                               std::uint64_t seed,
                                               int target_vertices);

}  // namespace oregami
