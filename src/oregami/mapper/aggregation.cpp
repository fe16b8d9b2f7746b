#include "oregami/mapper/aggregation.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

#include "oregami/support/error.hpp"

namespace oregami {

std::vector<std::int64_t> committed_link_load(
    const std::vector<PhaseRouting>& routing, int num_links) {
  std::vector<std::int64_t> load(static_cast<std::size_t>(num_links), 0);
  for (const auto& phase : routing) {
    for (const auto& route : phase.route_of_edge) {
      for (const int link : route.links) {
        ++load[static_cast<std::size_t>(link)];
      }
    }
  }
  return load;
}

namespace {

/// Builds one candidate tree whose path choices minimise the bottleneck
/// of `base` load (hop count breaking ties), then accounts its traffic
/// against `existing`.
AggregationTree build_candidate(const Topology& topo, int root,
                                const std::vector<std::int64_t>& base,
                                const std::vector<std::int64_t>& existing) {
  const int p = topo.num_procs();
  AggregationTree tree;
  tree.root = root;
  tree.parent.assign(static_cast<std::size_t>(p), -1);
  tree.uplink.assign(static_cast<std::size_t>(p), -1);
  tree.tree_load.assign(static_cast<std::size_t>(topo.num_links()), 0);

  // Minimax Dijkstra: key = (bottleneck existing load along the path,
  // hops). Deterministic tie-break by processor id.
  using Key = std::tuple<std::int64_t, int, int>;  // (bottleneck, hops, proc)
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> bottleneck(static_cast<std::size_t>(p), kInf);
  std::vector<int> hops(static_cast<std::size_t>(p), 1 << 30);
  std::priority_queue<Key, std::vector<Key>, std::greater<>> queue;
  bottleneck[static_cast<std::size_t>(root)] = 0;
  hops[static_cast<std::size_t>(root)] = 0;
  queue.emplace(0, 0, root);
  std::vector<bool> done(static_cast<std::size_t>(p), false);
  while (!queue.empty()) {
    const auto [b, hop, v] = queue.top();
    queue.pop();
    if (done[static_cast<std::size_t>(v)]) {
      continue;
    }
    done[static_cast<std::size_t>(v)] = true;
    for (const auto& a : topo.graph().neighbors(v)) {
      const int w = a.neighbor;
      if (done[static_cast<std::size_t>(w)]) {
        continue;
      }
      const std::int64_t cand =
          std::max(b, base[static_cast<std::size_t>(a.edge_id)]);
      const int cand_hops = hop + 1;
      if (cand < bottleneck[static_cast<std::size_t>(w)] ||
          (cand == bottleneck[static_cast<std::size_t>(w)] &&
           cand_hops < hops[static_cast<std::size_t>(w)])) {
        bottleneck[static_cast<std::size_t>(w)] = cand;
        hops[static_cast<std::size_t>(w)] = cand_hops;
        tree.parent[static_cast<std::size_t>(w)] = v;
        tree.uplink[static_cast<std::size_t>(w)] = a.edge_id;
        queue.emplace(cand, cand_hops, w);
      }
    }
  }

  // Tree traffic: every processor forwards one aggregate up; link load
  // equals the subtree size below it. Accumulate by walking each
  // processor's path (P * diameter; fine at OREGAMI scales).
  for (int v = 0; v < p; ++v) {
    if (v == root) {
      continue;
    }
    OREGAMI_ASSERT(tree.parent[static_cast<std::size_t>(v)] != -1,
                   "topology must be connected");
    int at = v;
    while (at != root) {
      ++tree.tree_load[static_cast<std::size_t>(
          tree.uplink[static_cast<std::size_t>(at)])];
      at = tree.parent[static_cast<std::size_t>(at)];
    }
  }
  for (int l = 0; l < topo.num_links(); ++l) {
    tree.bottleneck =
        std::max(tree.bottleneck,
                 existing[static_cast<std::size_t>(l)] +
                     tree.tree_load[static_cast<std::size_t>(l)]);
  }
  return tree;
}

}  // namespace

AggregationTree choose_aggregation_tree(
    const Topology& topo, int root,
    const std::vector<std::int64_t>& existing_link_load) {
  OREGAMI_ASSERT(root >= 0 && root < topo.num_procs(),
                 "root processor out of range");
  std::vector<std::int64_t> existing(
      static_cast<std::size_t>(topo.num_links()), 0);
  if (!existing_link_load.empty()) {
    OREGAMI_ASSERT(existing_link_load.size() == existing.size(),
                   "existing load must cover every link");
    existing = existing_link_load;
  }
  // Two candidates: load-aware path choices and plain BFS (zero base).
  // The aware tree dodges hot links but can funnel subtrees together;
  // keep whichever ends with the lower bottleneck (ties to the BFS
  // tree, whose paths are shortest).
  const std::vector<std::int64_t> zeros(
      static_cast<std::size_t>(topo.num_links()), 0);
  AggregationTree aware = build_candidate(topo, root, existing, existing);
  AggregationTree bfs = build_candidate(topo, root, zeros, existing);
  return aware.bottleneck < bfs.bottleneck ? aware : bfs;
}

}  // namespace oregami
