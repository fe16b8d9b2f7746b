// A mapping (paper §2 terminology): the processor of each task and the
// route of each message in each phase. MAPPER's Fig-3 strategies build
// the placement from two layers, which finish() (mapper/driver.cpp)
// composes once:
//
//   Contraction -- partition the tasks into clusters, at most one
//                  cluster per processor;
//   Embedding   -- assign clusters to processors, injectively.
//
// These are plain data; the algorithms that build them live in
// oregami/mapper, and so does validate_mapping (mapper/driver.hpp).
#pragma once

#include <utility>
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

/// The complete mapping: where each task runs and how each message
/// travels.
class Mapping {
 public:
  Mapping() = default;
  Mapping(std::vector<int> placement, std::vector<PhaseRouting> routes)
      : routing(std::move(routes)), proc_of_task_(std::move(placement)) {}

  /// Processor hosting each task.
  [[nodiscard]] const std::vector<int>& proc_of_task() const {
    return proc_of_task_;
  }

  std::vector<PhaseRouting> routing;  ///< one entry per comm phase

 private:
  std::vector<int> proc_of_task_;
};

}  // namespace oregami
