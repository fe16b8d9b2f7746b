// Multilevel V-cycle mapper for production-scale task graphs
// (10k-1M tasks), after Glantz/Meyerhenke/Noe's recipe for grid/torus
// targets: coarsen -> map the small graph well -> project back up,
// refining at every level.
//
//   1. COARSEN: repeated seeded heavy-edge matching
//      (core/csr_graph.hpp) folds comm volumes and exec costs into
//      super-tasks until at most one super-task per processor remains,
//      recording each level's projection map.
//   2. INITIAL MAP: the coarsest graph (<= P super-tasks) is embedded
//      with the seed pipeline's NN-Embed; at that size the paper-scale
//      machinery is fast and good.
//   3. UNCOARSEN + REFINE: project the placement down one level at a
//      time, freeing each coarse level (its CSR and the projection
//      onto it) once the finer placement is projected, so only the
//      finer levels stay resident; at each level run up to two
//      boundary-focused refinement rounds (a round that commits no move
//      ends the level) -- only tasks with a neighbor on another
//      processor are candidates.
//      Each round first proposes one destination per boundary task
//      from the frozen placement (CSR scans + the O(1) distance
//      oracle), then commits the proposals in ascending task order
//      through the shared greedy sweep (refine.hpp): each is re-probed
//      exactly with `IncrementalCompletion::delta_move` (the
//      completion model at its default costs) and applied only when
//      strictly improving. A proposal depends only on the task's and
//      its neighbours' processors, so a later round re-proposes only
//      the tasks that moved and their neighbours.
//
// Determinism contract: proposals are pure functions of the frozen
// placement, commits are serial and ordered, and all randomness flows
// from `portfolio_seed` through per-level SplitMix64 streams -- so the
// result is a pure function of (graph, topology, options) and the CLI's
// --jobs never changes it. With a positive `time_budget_ms` the expiry
// point is the sole nondeterminism.
#pragma once

#include "oregami/mapper/driver.hpp"

namespace oregami {

/// Maps `graph` onto `topo` with the multilevel V-cycle. Works for any
/// graph size but pays off above a few thousand tasks; below that the
/// direct pipeline explores more. Reads three fields of `options`:
///   * `multilevel` > 0 caps the number of coarsening levels (a small
///     cap yields a shallower cycle with more refinement work per
///     level); 0 and -1 coarsen until the graph has at most one
///     super-task per processor (or matching stalls);
///   * `portfolio_seed` seeds the coarsening shuffles and the coarsest
///     NN-Embed's tie-breaks (level k uses seed + k);
///   * `time_budget_ms` (support/deadline.hpp idiom: 0 = none, < 0 =
///     already expired) is checked between levels and rounds and before
///     each commit; on expiry the remaining refinement is skipped but
///     the projected placement is still returned, so the mapping is
///     always valid.
/// Throws MappingError for an empty graph or a topology without links.
[[nodiscard]] MapperReport map_multilevel(const TaskGraph& graph,
                                          const Topology& topo,
                                          const MapperOptions& options = {});

}  // namespace oregami
