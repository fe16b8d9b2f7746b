#include "oregami/arch/routes.hpp"

#include <algorithm>

#include "oregami/support/error.hpp"

namespace oregami {

std::vector<int> next_hop_choices(const Topology& topo, int from, int dst) {
  std::vector<int> choices;
  if (from == dst) {
    return choices;
  }
  topo.with_oracle([&](const auto& dist) {
    const int here = dist(dst, from);
    for (const auto& a : topo.graph().neighbors(from)) {
      if (dist(dst, a.neighbor) == here - 1) {
        choices.push_back(a.neighbor);
      }
    }
  });
  std::sort(choices.begin(), choices.end());
  return choices;
}

std::uint64_t count_shortest_routes(const Topology& topo, int src,
                                    int dst) {
  return topo.with_oracle([&](const auto& dist) {
    // Count over the shortest-path DAG by increasing distance from src.
    const int d = dist(src, dst);
    OREGAMI_ASSERT(d >= 0, "count_shortest_routes: unreachable destination");
    std::vector<int> order;
    for (int v = 0; v < topo.num_procs(); ++v) {
      const int dv = dist(src, v);
      if (dv >= 0 && dv <= d && dist(v, dst) == d - dv) {
        order.push_back(v);
      }
    }
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return dist(src, a) < dist(src, b); });
    std::vector<std::uint64_t> ways(
        static_cast<std::size_t>(topo.num_procs()), 0);
    ways[static_cast<std::size_t>(src)] = 1;
    for (const int v : order) {
      if (v == src) {
        continue;
      }
      std::uint64_t total = 0;
      for (const auto& a : topo.graph().neighbors(v)) {
        const int da = dist(src, a.neighbor);
        if (da == dist(src, v) - 1 && dist(a.neighbor, dst) == d - da) {
          total += ways[static_cast<std::size_t>(a.neighbor)];
        }
      }
      ways[static_cast<std::size_t>(v)] = total;
    }
    return ways[static_cast<std::size_t>(dst)];
  });
}

Route greedy_shortest_route(const Topology& topo, int src, int dst) {
  Route route;
  if (src == dst) {
    return route;
  }
  route.links.reserve(
      static_cast<std::size_t>(std::max(0, topo.distance(src, dst))));
  walk_greedy_route(topo, src, dst,
                    [&route](int link) { route.links.push_back(link); });
  return route;
}

Route dimension_order_route(const Topology& topo, int src, int dst) {
  std::vector<int> nodes{src};
  switch (topo.family()) {
    case TopoFamily::Hypercube: {
      int current = src;
      const int dim = topo.shape()[0];
      for (int b = 0; b < dim; ++b) {
        if (((current ^ dst) >> b) & 1) {
          current ^= 1 << b;
          nodes.push_back(current);
        }
      }
      break;
    }
    case TopoFamily::Mesh: {
      auto [r, c] = topo.coords2d(src);
      const auto [dr, dc] = topo.coords2d(dst);
      while (c != dc) {
        c += (dc > c) ? 1 : -1;
        nodes.push_back(topo.at2d(r, c));
      }
      while (r != dr) {
        r += (dr > r) ? 1 : -1;
        nodes.push_back(topo.at2d(r, c));
      }
      break;
    }
    case TopoFamily::Torus: {
      auto [r, c] = topo.coords2d(src);
      const auto [dr, dc] = topo.coords2d(dst);
      const int rows = topo.shape()[0];
      const int cols = topo.shape()[1];
      // Step in the shorter wrap direction per dimension; ties go up.
      auto step = [](int from, int to, int size) {
        const int fwd = (to - from + size) % size;
        const int back = (from - to + size) % size;
        return fwd <= back ? 1 : -1;
      };
      const int cstep = step(c, dc, cols);
      while (c != dc) {
        c = (c + cstep + cols) % cols;
        nodes.push_back(topo.at2d(r, c));
      }
      const int rstep = step(r, dr, rows);
      while (r != dr) {
        r = (r + rstep + rows) % rows;
        nodes.push_back(topo.at2d(r, c));
      }
      break;
    }
    case TopoFamily::Ring: {
      const int p = topo.num_procs();
      const int fwd = (dst - src + p) % p;
      const int back = (src - dst + p) % p;
      const int dir = fwd <= back ? 1 : -1;
      int current = src;
      while (current != dst) {
        current = (current + dir + p) % p;
        nodes.push_back(current);
      }
      break;
    }
    case TopoFamily::Chain: {
      int current = src;
      while (current != dst) {
        current += (dst > current) ? 1 : -1;
        nodes.push_back(current);
      }
      break;
    }
    default:
      throw MappingError(
          "dimension-order routing is undefined for topology family '" +
          to_string(topo.family()) + "'");
  }
  return route_from_nodes(topo, std::move(nodes));
}

Route route_from_nodes(const Topology& topo, std::vector<int> nodes) {
  OREGAMI_ASSERT(!nodes.empty(), "a route needs at least one node");
  Route route;
  route.links.reserve(nodes.size() - 1);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const auto link = topo.link_between(nodes[i], nodes[i + 1]);
    if (!link) {
      throw MappingError("route steps between non-adjacent processors " +
                         std::to_string(nodes[i]) + " and " +
                         std::to_string(nodes[i + 1]));
    }
    route.links.push_back(*link);
  }
  return route;
}

bool is_valid_route(const Topology& topo, const Route& route, int src,
                    int dst) {
  int current = src;
  for (const int link : route.links) {
    if (link < 0 || link >= topo.num_links()) {
      return false;
    }
    const auto [u, v] = topo.link_endpoints(link);
    if (u != current && v != current) {
      return false;
    }
    current = u == current ? v : u;
  }
  return current == dst;
}

bool is_shortest_route(const Topology& topo, const Route& route, int src,
                       int dst) {
  return is_valid_route(topo, route, src, dst) &&
         route.hops() == topo.distance(src, dst);
}

}  // namespace oregami
