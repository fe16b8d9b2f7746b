// Unweighted shortest paths (hop counts). Network topologies in
// OREGAMI are unweighted -- a hop is a hop -- so BFS suffices.
#pragma once

#include <vector>

#include "oregami/graph/graph.hpp"

namespace oregami {

/// Hop distance from `source` to every vertex; unreachable = -1.
[[nodiscard]] std::vector<int> bfs_distances(const Graph& g, int source);

}  // namespace oregami
