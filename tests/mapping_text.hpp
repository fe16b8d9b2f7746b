// A mapping as text, for the tests that hash or compare whole
// mappings, and a route's processor sequence, for the tests that assert
// one. A Route stores only its links; both helpers derive the nodes
// from the edge's source processor and those links.
//
// Text format (`oregami-mapping v2`, line oriented):
//   oregami-mapping v2
//   tasks <N> procs <P> phases <K>
//   placement <N ints>
//   phase <edge-count>
//   route <node-count> <nodes...> <link-count> <links...>   (per edge)
#pragma once

#include <string>
#include <vector>

#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/core/task_graph.hpp"

namespace oregami {

/// The processors `route` visits: `src`, then the far endpoint of each
/// link in turn.
inline std::vector<int> route_nodes(const Topology& topo, int src,
                                    const Route& route) {
  std::vector<int> nodes{src};
  for (const int link : route.links) {
    const auto [u, v] = topo.link_endpoints(link);
    nodes.push_back(nodes.back() == u ? v : u);
  }
  return nodes;
}

/// `mapping` of `graph` onto `topo` in the text format above.
inline std::string mapping_text(const TaskGraph& graph, const Topology& topo,
                                const Mapping& mapping) {
  std::string out;
  auto ints = [&out](const std::vector<int>& values) {
    for (const int v : values) {
      out += ' ' + std::to_string(v);
    }
  };
  const std::vector<int>& proc_of_task = mapping.proc_of_task();
  out += "oregami-mapping v2\ntasks " + std::to_string(proc_of_task.size()) +
         " procs " + std::to_string(topo.num_procs()) + " phases " +
         std::to_string(mapping.routing.size()) + "\nplacement";
  ints(proc_of_task);
  out += '\n';
  for (std::size_t k = 0; k < mapping.routing.size(); ++k) {
    const auto& routes = mapping.routing[k].route_of_edge;
    const auto& edges = graph.comm_phases()[k].edges;
    out += "phase " + std::to_string(routes.size()) + "\n";
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const std::vector<int> nodes = route_nodes(
          topo, proc_of_task[static_cast<std::size_t>(edges[i].src)],
          routes[i]);
      out += "route " + std::to_string(nodes.size());
      ints(nodes);
      out += ' ' + std::to_string(routes[i].links.size());
      ints(routes[i].links);
      out += '\n';
    }
  }
  return out;
}

}  // namespace oregami
