#include "oregami/metrics/completion_model.hpp"

#include <algorithm>
#include <numeric>

#include "oregami/support/error.hpp"

namespace oregami {

std::int64_t comm_phase_time(const TaskGraph& graph, int phase_index,
                             const PhaseRouting& routing,
                             const Topology& topo, const CostModel& model,
                             const std::vector<std::int64_t>& link_factor) {
  const auto& phase =
      graph.comm_phases()[static_cast<std::size_t>(phase_index)];
  OREGAMI_ASSERT(routing.route_of_edge.size() == phase.edges.size(),
                 "routing must cover the phase");
  OREGAMI_ASSERT(link_factor.empty() ||
                     static_cast<int>(link_factor.size()) ==
                         topo.num_links(),
                 "link factors must cover every link");
  // Scratch reused across calls (per thread): refinement sweeps and
  // portfolio scoring call this in a tight loop, and the per-call
  // vector allocation dominated the profile.
  thread_local std::vector<std::int64_t> volume_on_link;
  volume_on_link.assign(static_cast<std::size_t>(topo.num_links()), 0);
  int max_hops = 0;
  for (std::size_t i = 0; i < phase.edges.size(); ++i) {
    const auto& route = routing.route_of_edge[i];
    for (const int link : route.links) {
      const auto l = static_cast<std::size_t>(link);
      volume_on_link[l] +=
          phase.edges[i].volume * (link_factor.empty() ? 1 : link_factor[l]);
    }
    max_hops = std::max(max_hops, route.hops());
  }
  const std::int64_t max_volume =
      volume_on_link.empty()
          ? 0
          : *std::max_element(volume_on_link.begin(), volume_on_link.end());
  return model.comm_time(max_volume, max_hops);
}

std::int64_t exec_phase_time(const TaskGraph& graph, int phase_index,
                             const std::vector<int>& proc_of_task,
                             int num_procs) {
  const auto& phase =
      graph.exec_phases()[static_cast<std::size_t>(phase_index)];
  thread_local std::vector<std::int64_t> load;
  load.assign(static_cast<std::size_t>(num_procs), 0);
  for (int t = 0; t < graph.num_tasks(); ++t) {
    load[static_cast<std::size_t>(proc_of_task[static_cast<std::size_t>(t)])] +=
        phase.cost[static_cast<std::size_t>(t)];
  }
  return load.empty() ? 0 : *std::max_element(load.begin(), load.end());
}

namespace {

std::int64_t compose(const PhaseTree& node,
                     const std::vector<std::int64_t>& comm_times,
                     const std::vector<std::int64_t>& exec_times) {
  switch (node.kind) {
    case PhaseTree::Kind::Idle:
      return 0;
    case PhaseTree::Kind::Comm:
      return comm_times[static_cast<std::size_t>(node.phase_index)];
    case PhaseTree::Kind::Exec:
      return exec_times[static_cast<std::size_t>(node.phase_index)];
    case PhaseTree::Kind::Seq: {
      std::int64_t total = 0;
      for (const auto& child : node.children) {
        total += compose(child, comm_times, exec_times);
      }
      return total;
    }
    case PhaseTree::Kind::Par: {
      std::int64_t best = 0;
      for (const auto& child : node.children) {
        best = std::max(best, compose(child, comm_times, exec_times));
      }
      return best;
    }
    case PhaseTree::Kind::Repeat:
      return node.count *
             compose(node.children.front(), comm_times, exec_times);
  }
  return 0;
}

/// Scores each phase once into `comm_times` and `exec_times` and
/// returns their composition.
std::int64_t score_phases(const TaskGraph& graph,
                          const std::vector<int>& proc_of_task,
                          const std::vector<PhaseRouting>& routing,
                          const Topology& topo, const CostModel& model,
                          const std::vector<std::int64_t>& link_factor,
                          std::vector<std::int64_t>& comm_times,
                          std::vector<std::int64_t>& exec_times) {
  OREGAMI_ASSERT(routing.size() == graph.comm_phases().size(),
                 "routing must cover every phase");
  comm_times.resize(graph.comm_phases().size());
  for (std::size_t k = 0; k < comm_times.size(); ++k) {
    comm_times[k] = comm_phase_time(graph, static_cast<int>(k), routing[k],
                                    topo, model, link_factor);
  }
  exec_times.resize(graph.exec_phases().size());
  for (std::size_t k = 0; k < exec_times.size(); ++k) {
    exec_times[k] = exec_phase_time(graph, static_cast<int>(k),
                                    proc_of_task, topo.num_procs());
  }
  return compose_phase_times(graph, comm_times, exec_times);
}

}  // namespace

std::int64_t compose_phase_times(const TaskGraph& graph,
                                 const std::vector<std::int64_t>& comm_times,
                                 const std::vector<std::int64_t>& exec_times) {
  if (graph.phase_expr().kind == PhaseTree::Kind::Idle) {
    return std::accumulate(comm_times.begin(), comm_times.end(),
                           std::accumulate(exec_times.begin(),
                                           exec_times.end(),
                                           std::int64_t{0}));
  }
  return compose(graph.phase_expr(), comm_times, exec_times);
}

std::int64_t completion_time(const TaskGraph& graph,
                             const std::vector<int>& proc_of_task,
                             const std::vector<PhaseRouting>& routing,
                             const Topology& topo, const CostModel& model) {
  std::vector<std::int64_t> comm_times;
  std::vector<std::int64_t> exec_times;
  return score_phases(graph, proc_of_task, routing, topo, model, {},
                      comm_times, exec_times);
}

PlacementObjectives extract_objectives(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const Topology& topo,
    const CostModel& model) {
  PlacementObjectives obj;
  obj.completion = score_phases(graph, proc_of_task, routing, topo, model,
                                {}, obj.comm_times, obj.exec_times);

  const auto comm_mult = graph.comm_phase_multiplicity();
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    std::int64_t phase_volume = 0;
    for (const auto& e : graph.comm_phases()[k].edges) {
      if (proc_of_task[static_cast<std::size_t>(e.src)] !=
          proc_of_task[static_cast<std::size_t>(e.dst)]) {
        phase_volume += e.volume;
      }
    }
    obj.external_ipc += phase_volume * comm_mult[k];
  }

  const std::vector<std::int64_t> weight = graph.exec_weights();
  std::vector<std::int64_t> load(static_cast<std::size_t>(topo.num_procs()),
                                 0);
  for (std::size_t t = 0; t < weight.size(); ++t) {
    load[static_cast<std::size_t>(proc_of_task[t])] += weight[t];
  }
  obj.max_load =
      load.empty() ? 0 : *std::max_element(load.begin(), load.end());
  return obj;
}

std::int64_t degraded_completion_time(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const FaultedTopology& faults,
    const CostModel& model) {
  OREGAMI_ASSERT(routing.size() == graph.comm_phases().size(),
                 "routing must cover every phase");
  faults.check_placement(proc_of_task);
  for (std::size_t k = 0; k < routing.size(); ++k) {
    faults.check_routes(static_cast<int>(k), routing[k]);
  }
  std::vector<std::int64_t> comm_times;
  std::vector<std::int64_t> exec_times;
  return score_phases(graph, proc_of_task, routing, faults.base(), model,
                      faults.link_slowdowns(), comm_times, exec_times);
}

}  // namespace oregami
