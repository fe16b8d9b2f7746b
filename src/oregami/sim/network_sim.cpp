#include "oregami/sim/network_sim.hpp"

#include <algorithm>
#include <queue>
#include <string>

#include "oregami/metrics/incremental.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {

PhaseSimResult simulate_comm_phase(const TaskGraph& graph, int phase_index,
                                   const PhaseRouting& routing,
                                   const Topology& topo,
                                   const SimConfig& config) {
  const auto& phase =
      graph.comm_phases()[static_cast<std::size_t>(phase_index)];
  OREGAMI_ASSERT(routing.route_of_edge.size() == phase.edges.size(),
                 "routing must cover the phase");
  if (config.faults != nullptr) {
    config.faults->check_routes(phase_index, routing);
  }
  PhaseSimResult result;
  result.link_busy.assign(static_cast<std::size_t>(topo.num_links()), 0);
  result.delivery.assign(phase.edges.size(), 0);

  // Event queue of messages ready to start their next hop:
  // (ready time, message id). Smallest time first, id breaks ties so
  // the simulation is deterministic.
  using Event = std::pair<std::int64_t, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> ready;
  // Per-thread scratch: phase sweeps call this in a loop and the
  // per-call allocations showed up in the profile.
  thread_local std::vector<std::size_t> next_hop;
  thread_local std::vector<std::int64_t> link_free;
  next_hop.assign(phase.edges.size(), 0);
  link_free.assign(static_cast<std::size_t>(topo.num_links()), 0);

  for (int m = 0; m < static_cast<int>(phase.edges.size()); ++m) {
    if (routing.route_of_edge[static_cast<std::size_t>(m)].links.empty()) {
      result.delivery[static_cast<std::size_t>(m)] = 0;  // co-located
    } else {
      ready.emplace(0, m);
    }
  }

  while (!ready.empty()) {
    const auto [time, m] = ready.top();
    ready.pop();
    const auto& route = routing.route_of_edge[static_cast<std::size_t>(m)];
    const int link = route.links[next_hop[static_cast<std::size_t>(m)]];
    const std::int64_t volume =
        phase.edges[static_cast<std::size_t>(m)].volume;
    const std::int64_t slowdown =
        config.faults != nullptr ? config.faults->link_slowdown(link) : 1;
    const std::int64_t transfer =
        config.model.comm_time(volume * slowdown, 1);
    const std::int64_t start =
        std::max(time, link_free[static_cast<std::size_t>(link)]);
    const std::int64_t finish = start + transfer;
    link_free[static_cast<std::size_t>(link)] = finish;
    result.link_busy[static_cast<std::size_t>(link)] += transfer;
    ++next_hop[static_cast<std::size_t>(m)];
    if (next_hop[static_cast<std::size_t>(m)] == route.links.size()) {
      result.delivery[static_cast<std::size_t>(m)] = finish;
      result.makespan = std::max(result.makespan, finish);
    } else {
      ready.emplace(finish, m);
    }
  }

  int used = 0;
  std::int64_t busy_total = 0;
  for (const auto busy : result.link_busy) {
    if (busy > 0) {
      ++used;
      busy_total += busy;
      result.max_link_busy = std::max(result.max_link_busy, busy);
    }
  }
  result.avg_link_utilisation =
      (used == 0 || result.makespan == 0)
          ? 0.0
          : static_cast<double>(busy_total) /
                (static_cast<double>(used) *
                 static_cast<double>(result.makespan));
  return result;
}

SimResult simulate(const TaskGraph& graph,
                   const std::vector<int>& proc_of_task,
                   const std::vector<PhaseRouting>& routing,
                   const Topology& topo, const SimConfig& config) {
  const trace::Span span("sim");
  OREGAMI_ASSERT(routing.size() == graph.comm_phases().size(),
                 "routing must cover every phase");
  if (config.faults != nullptr) {
    config.faults->check_placement(proc_of_task);
  }
  SimResult result;
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    result.comm_phase_cycles.push_back(
        simulate_comm_phase(graph, static_cast<int>(k), routing[k], topo,
                            config)
            .makespan);
  }
  for (std::size_t k = 0; k < graph.exec_phases().size(); ++k) {
    result.exec_phase_cycles.push_back(exec_phase_time(
        graph, static_cast<int>(k), proc_of_task, topo.num_procs()));
  }
  result.total_cycles = compose_phase_times(graph, result.comm_phase_cycles,
                                            result.exec_phase_cycles);
  if (trace::enabled()) {
    trace::counter("total_cycles", result.total_cycles);
    for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
      trace::counter(graph.comm_phases()[k].name + "/sim_makespan",
                     result.comm_phase_cycles[k]);
    }
    for (std::size_t k = 0; k < graph.exec_phases().size(); ++k) {
      trace::counter(graph.exec_phases()[k].name + "/sim_cycles",
                     result.exec_phase_cycles[k]);
    }
    // Structural per-phase link-volume and hop-histogram counters via
    // the metrics layer's incremental trackers, slowed links charged.
    const IncrementalCompletion inc(
        graph, topo, proc_of_task, routing,
        config.faults != nullptr ? config.faults->link_slowdowns()
                                 : std::vector<std::int64_t>{});
    inc.trace_phase_counters();
  }
  return result;
}

}  // namespace oregami
