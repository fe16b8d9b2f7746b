// Route machinery over a Topology: the shortest-route next-hop choices
// (the "table of routing information" MM-Route consults in Fig 6) and
// their count, the canonical greedy route, deterministic
// dimension-order routes for baselines, and route validity checking.
//
// The greedy rule is stated once, in walk_oracle_route. A machine small
// enough to keep a greedy-route table (topology.hpp) fills it with that
// walk, and walk_greedy_route, the entry point every caller uses, reads
// the table when there is one: the same links without a walk.
#pragma once

#include <span>
#include <vector>

#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

/// Neighbors of `from` that lie on some shortest path to `dst`
/// (distance decreases by one). Empty when from == dst.
[[nodiscard]] std::vector<int> next_hop_choices(const Topology& topo,
                                                int from, int dst);

/// Number of distinct shortest paths src -> dst (counted exactly with
/// 64-bit arithmetic).
[[nodiscard]] std::uint64_t count_shortest_routes(const Topology& topo,
                                                  int src, int dst);

/// The canonical greedy shortest route from src to dst, walked through
/// the distance oracle: at each step the lowest-numbered neighbour one
/// hop closer to dst (the first of next_hop_choices), calling
/// on_hop(link) with the link id read off the adjacency entry. The
/// family is dispatched once per walk and its distance oracle evaluated
/// inline. Allocates nothing; returns the hop count (0 when src == dst).
/// Asserts that dst is reachable.
template <class OnHop>
int walk_oracle_route(const Topology& topo, int src, int dst,
                      OnHop&& on_hop) {
  if (src == dst) {
    return 0;
  }
  return topo.with_oracle([&](const auto& dist) {
    const int hops = dist(dst, src);
    int current = src;
    for (int here = hops; current != dst; --here) {
      int next = -1;
      int next_link = -1;
      for (const auto& a : topo.graph().neighbors(current)) {
        if (dist(dst, a.neighbor) == here - 1 &&
            (next == -1 || a.neighbor < next)) {
          next = a.neighbor;
          next_link = a.edge_id;
        }
      }
      OREGAMI_ASSERT(next != -1, "destination must be reachable");
      on_hop(next_link);
      current = next;
    }
    return hops;
  });
}

/// The greedy route from src to dst, as walk_oracle_route walks it:
/// read from the topology's greedy-route table when it has one
/// (Topology::kRouteTableMaxProcs), walked through the oracle
/// otherwise. Every greedy route in the library comes from here.
/// Calls on_hop(link) per hop, allocates nothing, returns the hop count
/// and asserts that dst is reachable.
template <class OnHop>
int walk_greedy_route(const Topology& topo, int src, int dst,
                      OnHop&& on_hop) {
  if (src == dst) {
    return 0;
  }
  if (const Topology::GreedyRouteTable* table = topo.greedy_route_table()) {
    const std::span<const int> links = table->route(src, dst);
    OREGAMI_ASSERT(!links.empty(), "destination must be reachable");
    for (const int link : links) {
      on_hop(link);
    }
    return static_cast<int>(links.size());
  }
  return walk_oracle_route(topo, src, dst, on_hop);
}

/// The greedy route as a Route: `Route{}` when src == dst.
[[nodiscard]] Route greedy_shortest_route(const Topology& topo, int src,
                                          int dst);

/// Dimension-order (e-cube / XY) route. Supported for Hypercube
/// (ascending bit corrections), Mesh and Torus (column first, then
/// row), Ring and Chain (the only shortest direction). Throws
/// MappingError for other families.
[[nodiscard]] Route dimension_order_route(const Topology& topo, int src,
                                          int dst);

/// Builds a Route from a processor sequence (source first), resolving
/// link ids; throws MappingError when consecutive processors are not
/// adjacent.
[[nodiscard]] Route route_from_nodes(const Topology& topo,
                                     std::vector<int> nodes);

/// True when the route is well-formed on `topo`: walking its links from
/// `src`, each link id is in range and touches the current processor,
/// and the walk ends at `dst`.
[[nodiscard]] bool is_valid_route(const Topology& topo, const Route& route,
                                  int src, int dst);

/// True additionally when the route length equals the hop distance.
[[nodiscard]] bool is_shortest_route(const Topology& topo,
                                     const Route& route, int src, int dst);

}  // namespace oregami
