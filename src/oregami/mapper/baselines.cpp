#include "oregami/mapper/baselines.hpp"

#include <algorithm>
#include <numeric>

#include "oregami/arch/routes.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {

namespace {

template <typename RouteFn>
std::vector<PhaseRouting> route_all(const TaskGraph& graph,
                                    const std::vector<int>& proc_of_task,
                                    RouteFn&& make_route) {
  std::vector<PhaseRouting> result;
  result.reserve(graph.comm_phases().size());
  for (const auto& phase : graph.comm_phases()) {
    PhaseRouting routing;
    routing.route_of_edge.reserve(phase.edges.size());
    for (const auto& e : phase.edges) {
      const int src = proc_of_task[static_cast<std::size_t>(e.src)];
      const int dst = proc_of_task[static_cast<std::size_t>(e.dst)];
      routing.route_of_edge.push_back(make_route(src, dst));
    }
    result.push_back(std::move(routing));
  }
  return result;
}

}  // namespace

std::vector<PhaseRouting> route_dimension_order(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const Topology& topo) {
  return route_all(graph, proc_of_task, [&](int src, int dst) {
    return src == dst ? Route{} : dimension_order_route(topo, src, dst);
  });
}

std::vector<PhaseRouting> route_random_shortest(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const Topology& topo, std::uint64_t seed) {
  SplitMix64 rng(seed);
  return route_all(graph, proc_of_task, [&](int src, int dst) {
    std::vector<int> nodes{src};
    int at = src;
    while (at != dst) {
      const auto choices = next_hop_choices(topo, at, dst);
      OREGAMI_ASSERT(!choices.empty(), "destination must be reachable");
      at = choices[rng.next_below(choices.size())];
      nodes.push_back(at);
    }
    return route_from_nodes(topo, std::move(nodes));
  });
}

std::vector<PhaseRouting> route_greedy_shortest(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const Topology& topo) {
  return route_all(graph, proc_of_task, [&](int src, int dst) {
    return greedy_shortest_route(topo, src, dst);
  });
}

Contraction round_robin_contraction(int num_tasks, int num_procs) {
  OREGAMI_ASSERT(num_tasks > 0 && num_procs > 0,
                 "need positive task and processor counts");
  Contraction c;
  c.num_clusters = std::min(num_tasks, num_procs);
  c.cluster_of_task.resize(static_cast<std::size_t>(num_tasks));
  for (int t = 0; t < num_tasks; ++t) {
    c.cluster_of_task[static_cast<std::size_t>(t)] = t % c.num_clusters;
  }
  return c;
}

Contraction block_contraction(int num_tasks, int num_procs) {
  OREGAMI_ASSERT(num_tasks > 0 && num_procs > 0,
                 "need positive task and processor counts");
  Contraction c;
  c.num_clusters = std::min(num_tasks, num_procs);
  c.cluster_of_task.resize(static_cast<std::size_t>(num_tasks));
  for (int t = 0; t < num_tasks; ++t) {
    c.cluster_of_task[static_cast<std::size_t>(t)] = static_cast<int>(
        static_cast<long>(t) * c.num_clusters / num_tasks);
  }
  return c;
}

Embedding random_embedding(int num_clusters, const Topology& topo,
                           std::uint64_t seed) {
  OREGAMI_ASSERT(num_clusters <= topo.num_procs(),
                 "more clusters than processors");
  std::vector<int> procs(static_cast<std::size_t>(topo.num_procs()));
  std::iota(procs.begin(), procs.end(), 0);
  SplitMix64 rng(seed);
  // Fisher-Yates.
  for (std::size_t i = procs.size(); i > 1; --i) {
    std::swap(procs[i - 1], procs[rng.next_below(i)]);
  }
  Embedding e;
  e.proc_of_cluster.assign(procs.begin(),
                           procs.begin() + num_clusters);
  return e;
}

}  // namespace oregami
