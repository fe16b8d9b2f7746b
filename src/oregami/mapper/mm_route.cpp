#include "oregami/mapper/mm_route.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "oregami/graph/matching.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

namespace {

/// The (neighbour, link) next hops of a message at `from` bound for
/// `dst`, into `hops` (cleared first): next_hop_choices in its order
/// (ascending neighbour id), each with the link of its adjacency entry,
/// which is link_between's answer (a Graph merges parallel edges, so a
/// neighbour has one entry).
void next_hop_links(const Topology& topo, int from, int dst,
                    std::vector<std::pair<int, int>>& hops) {
  hops.clear();
  topo.with_oracle([&](const auto& dist) {
    const int here = dist(dst, from);
    for (const auto& a : topo.graph().neighbors(from)) {
      if (dist(dst, a.neighbor) == here - 1) {
        hops.emplace_back(a.neighbor, a.edge_id);
      }
    }
  });
  std::sort(hops.begin(), hops.end());
}

/// Routes one phase; fills `routing.route_of_edge` and appends match
/// rounds to `trace_rounds` when tracing.
PhaseRouting route_phase(const CommPhase& phase,
                         const std::vector<int>& proc_of_task,
                         const Topology& topo,
                         const RouteOptions& options,
                         std::vector<MatchRound>* trace_rounds) {
  const int num_edges = static_cast<int>(phase.edges.size());
  PhaseRouting routing;
  routing.route_of_edge.resize(static_cast<std::size_t>(num_edges));

  // In-flight state: current node per message; -1 once delivered.
  std::vector<int> current(static_cast<std::size_t>(num_edges));
  std::vector<int> target(static_cast<std::size_t>(num_edges));
  for (int m = 0; m < num_edges; ++m) {
    const auto& e = phase.edges[static_cast<std::size_t>(m)];
    const int src = proc_of_task[static_cast<std::size_t>(e.src)];
    const int dst = proc_of_task[static_cast<std::size_t>(e.dst)];
    current[static_cast<std::size_t>(m)] = src;
    target[static_cast<std::size_t>(m)] = dst;
  }

  std::vector<int> pending;
  std::vector<int> x_of;  // bipartite left index -> message
  std::vector<char> advanced(static_cast<std::size_t>(num_edges));
  std::vector<std::pair<int, int>> hops;
  for (int hop = 0;; ++hop) {
    pending.clear();
    for (int m = 0; m < num_edges; ++m) {
      if (current[static_cast<std::size_t>(m)] !=
          target[static_cast<std::size_t>(m)]) {
        pending.push_back(m);
        advanced[static_cast<std::size_t>(m)] = 0;
      }
    }
    if (pending.empty()) {
      break;
    }

    // All pending messages advance exactly one hop this iteration, via
    // repeated maximal matchings (each round uses a link at most once).
    std::size_t advanced_count = 0;
    while (advanced_count < pending.size()) {
      // X = not-yet-advanced pending messages, Y = links.
      x_of.clear();
      for (const int m : pending) {
        if (advanced[static_cast<std::size_t>(m)] == 0) {
          x_of.push_back(m);
        }
      }
      BipartiteGraph bg(static_cast<int>(x_of.size()), topo.num_links());
      for (std::size_t x = 0; x < x_of.size(); ++x) {
        const int m = x_of[x];
        next_hop_links(topo, current[static_cast<std::size_t>(m)],
                       target[static_cast<std::size_t>(m)], hops);
        for (const auto& next_hop : hops) {
          bg.add_edge(static_cast<int>(x), next_hop.second);
        }
      }
      const BipartiteMatching matching =
          options.matcher == RouteOptions::Matcher::GreedyMaximal
              ? greedy_maximal_matching(bg)
              : hopcroft_karp(bg);
      OREGAMI_ASSERT(matching.size() > 0,
                     "matching must advance at least one message");

      MatchRound round;
      round.hop = hop;
      for (std::size_t x = 0; x < x_of.size(); ++x) {
        const int link = matching.match_left[x];
        if (link == -1) {
          continue;
        }
        const int m = x_of[x];
        const int from = current[static_cast<std::size_t>(m)];
        const auto [lu, lv] = topo.link_endpoints(link);
        const int next = (lu == from) ? lv : lu;
        OREGAMI_ASSERT(lu == from || lv == from,
                       "matched link must touch the message's node");
        current[static_cast<std::size_t>(m)] = next;
        routing.route_of_edge[static_cast<std::size_t>(m)].links.push_back(
            link);
        advanced[static_cast<std::size_t>(m)] = 1;
        ++advanced_count;
        round.assignments.emplace_back(m, link);
      }
      if (trace_rounds != nullptr) {
        trace_rounds->push_back(std::move(round));
      }
    }
  }

  return routing;
}

}  // namespace

std::vector<PhaseRouting> mm_route(const TaskGraph& graph,
                                   const std::vector<int>& proc_of_task,
                                   const Topology& topo,
                                   const RouteOptions& options,
                                   std::vector<PhaseRouteTrace>* trace) {
  OREGAMI_ASSERT(proc_of_task.size() ==
                     static_cast<std::size_t>(graph.num_tasks()),
                 "proc_of_task must cover every task");
  std::vector<PhaseRouting> result;
  result.reserve(graph.comm_phases().size());
  for (const auto& phase : graph.comm_phases()) {
    std::vector<MatchRound>* rounds = nullptr;
    if (trace != nullptr) {
      trace->push_back({phase.name, {}});
      rounds = &trace->back().rounds;
    }
    result.push_back(
        route_phase(phase, proc_of_task, topo, options, rounds));
  }
  return result;
}

}  // namespace oregami
