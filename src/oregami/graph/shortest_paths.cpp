#include "oregami/graph/shortest_paths.hpp"

#include <queue>

#include "oregami/support/error.hpp"

namespace oregami {

std::vector<int> bfs_distances(const Graph& g, int source) {
  OREGAMI_ASSERT(source >= 0 && source < g.num_vertices(),
                 "BFS source out of range");
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::queue<int> q;
  dist[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (const auto& a : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(a.neighbor)] == -1) {
        dist[static_cast<std::size_t>(a.neighbor)] =
            dist[static_cast<std::size_t>(v)] + 1;
        q.push(a.neighbor);
      }
    }
  }
  return dist;
}

}  // namespace oregami
