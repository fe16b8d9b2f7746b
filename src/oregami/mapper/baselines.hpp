// Baseline mapping/routing strategies used by the benchmark harnesses
// to reproduce the paper's comparisons: phase-oblivious routing
// (dimension-order, random shortest path) and structure-oblivious
// placement (random embedding, round-robin contraction).
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/core/task_graph.hpp"

namespace oregami {

/// Routes every comm phase with deterministic dimension-order (e-cube)
/// routes. Supported for hypercube/mesh/torus/ring/chain topologies.
[[nodiscard]] std::vector<PhaseRouting> route_dimension_order(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const Topology& topo);

/// Routes every comm phase by picking a uniformly random shortest path
/// per message (seeded, reproducible).
[[nodiscard]] std::vector<PhaseRouting> route_random_shortest(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const Topology& topo, std::uint64_t seed);

/// Routes every comm phase greedily along the lowest-numbered shortest
/// path (maximally contention-oblivious deterministic baseline).
[[nodiscard]] std::vector<PhaseRouting> route_greedy_shortest(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const Topology& topo);

/// Round-robin contraction: task t -> cluster t mod min(n, P).
[[nodiscard]] Contraction round_robin_contraction(int num_tasks,
                                                  int num_procs);

/// Contiguous-block contraction: task t -> cluster t * C / n.
[[nodiscard]] Contraction block_contraction(int num_tasks, int num_procs);

/// Uniformly random injective embedding (seeded).
[[nodiscard]] Embedding random_embedding(int num_clusters,
                                         const Topology& topo,
                                         std::uint64_t seed);

}  // namespace oregami
