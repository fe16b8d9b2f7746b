// The three-layer mapping produced by MAPPER (paper §2 terminology):
//
//   Contraction -- partition the tasks into clusters, at most one
//                  cluster per processor;
//   Embedding   -- assign clusters to processors, injectively;
//   Routing     -- assign each communication edge a path of network
//                  links (per phase).
//
// These are plain data; the algorithms that build them live in
// oregami/mapper, and validation against a concrete topology lives in
// oregami/metrics (which owns the Topology + TaskGraph view).
#pragma once

#include <vector>

#include "oregami/core/task_graph.hpp"

namespace oregami {

/// A partition of tasks into clusters 0..num_clusters-1.
struct Contraction {
  int num_clusters = 0;
  std::vector<int> cluster_of_task;

  /// The identity contraction (one task per cluster).
  static Contraction identity(int num_tasks);

  /// Tasks per cluster.
  [[nodiscard]] std::vector<int> cluster_sizes() const;

  /// Largest cluster size (0 when empty).
  [[nodiscard]] int max_cluster_size() const;

  /// Throws MappingError unless every task has a cluster id in range
  /// and every cluster id is used by at least one task.
  void validate(int num_tasks) const;
};

/// Injective assignment of clusters to processors.
struct Embedding {
  std::vector<int> proc_of_cluster;

  /// Throws MappingError unless injective and within [0, num_procs).
  void validate(int num_procs) const;
};

/// A route through the network: the link ids a message crosses, in
/// order. Its processor sequence is its edge's source processor, then
/// the far endpoint of each link in turn. A route between co-located
/// tasks is `Route{}` and holds no heap memory.
struct Route {
  std::vector<int> links;

  [[nodiscard]] int hops() const { return static_cast<int>(links.size()); }
};

/// Routes for one communication phase, parallel to
/// TaskGraph::comm_phases()[k].edges.
struct PhaseRouting {
  std::vector<Route> route_of_edge;
};

/// The complete mapping.
struct Mapping {
  Contraction contraction;
  Embedding embedding;
  std::vector<PhaseRouting> routing;  ///< one entry per comm phase

  /// Processor hosting each task (composition of contraction and
  /// embedding).
  [[nodiscard]] std::vector<int> proc_of_task() const;
};

}  // namespace oregami
