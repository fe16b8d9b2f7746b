// Aggregation-topology selection (paper §6): "many parallel algorithms
// use a specific tree topology to aggregate results when a variety of
// alternate communication topologies will suffice (any spanning tree
// ...). We would like to automatically select the aggregate topology
// that is 'compatible' with the communication topologies of other
// phases."
//
// Given the per-link load already committed by the other phases, this
// module picks a spanning tree of the *processor* graph rooted at the
// aggregation root that minimises the bottleneck (max per-link load
// including the new tree traffic), using a minimax variant of
// Dijkstra's algorithm; hop count breaks ties so paths stay short.
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"

namespace oregami {

struct AggregationTree {
  int root = 0;
  /// parent[p] = next processor toward the root (-1 for the root).
  std::vector<int> parent;
  /// Link toward the parent (-1 for the root).
  std::vector<int> uplink;
  /// Messages crossing each link when every processor sends one
  /// aggregated value up the tree (= subtree size below the link).
  std::vector<std::int64_t> tree_load;
  /// max over links of (existing + tree) load.
  std::int64_t bottleneck = 0;
};

/// Chooses the spanning tree. `existing_link_load` may be empty (all
/// zero) or one entry per link.
[[nodiscard]] AggregationTree choose_aggregation_tree(
    const Topology& topo, int root,
    const std::vector<std::int64_t>& existing_link_load = {});

/// Per-link load committed by a routed mapping (route counts summed
/// over all phases), for feeding into choose_aggregation_tree.
[[nodiscard]] std::vector<std::int64_t> committed_link_load(
    const std::vector<PhaseRouting>& routing, int num_links);

}  // namespace oregami
