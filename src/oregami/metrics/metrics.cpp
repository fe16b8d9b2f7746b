#include "oregami/metrics/metrics.hpp"

#include <algorithm>

#include "oregami/support/error.hpp"

namespace oregami {

MappingMetrics compute_metrics(const TaskGraph& graph,
                               const std::vector<int>& proc_of_task,
                               const std::vector<PhaseRouting>& routing,
                               const Topology& topo,
                               const CostModel& model) {
  OREGAMI_ASSERT(proc_of_task.size() ==
                     static_cast<std::size_t>(graph.num_tasks()),
                 "proc_of_task must cover every task");
  OREGAMI_ASSERT(routing.size() == graph.comm_phases().size(),
                 "routing must cover every phase");
  MappingMetrics out;
  const int p = topo.num_procs();

  // --- load metrics.
  out.load.tasks_per_proc.assign(static_cast<std::size_t>(p), 0);
  out.load.exec_per_proc.assign(static_cast<std::size_t>(p), 0);
  for (int t = 0; t < graph.num_tasks(); ++t) {
    ++out.load
          .tasks_per_proc[static_cast<std::size_t>(
              proc_of_task[static_cast<std::size_t>(t)])];
  }
  const std::vector<std::int64_t> weight = graph.exec_weights();
  for (std::size_t t = 0; t < weight.size(); ++t) {
    out.load.exec_per_proc[static_cast<std::size_t>(proc_of_task[t])] +=
        weight[t];
  }
  out.load.max_tasks = *std::max_element(out.load.tasks_per_proc.begin(),
                                         out.load.tasks_per_proc.end());
  out.load.avg_tasks =
      static_cast<double>(graph.num_tasks()) / static_cast<double>(p);
  out.load.max_exec = *std::max_element(out.load.exec_per_proc.begin(),
                                        out.load.exec_per_proc.end());
  std::int64_t total_exec = 0;
  for (const auto e : out.load.exec_per_proc) {
    total_exec += e;
  }
  out.load.exec_imbalance =
      total_exec == 0 ? 1.0
                      : static_cast<double>(out.load.max_exec) * p /
                            static_cast<double>(total_exec);

  // --- link metrics per phase.
  const auto comm_mult = graph.comm_phase_multiplicity();
  std::vector<std::int64_t> comm_times;
  long total_edges = 0;
  long total_dilation = 0;
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    const auto& phase = graph.comm_phases()[k];
    PhaseLinkMetrics pm;
    pm.phase_name = phase.name;
    pm.contention_per_link.assign(
        static_cast<std::size_t>(topo.num_links()), 0);
    pm.volume_per_link.assign(static_cast<std::size_t>(topo.num_links()),
                              0);
    long phase_dilation = 0;
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& route = routing[k].route_of_edge[i];
      for (const int link : route.links) {
        ++pm.contention_per_link[static_cast<std::size_t>(link)];
        pm.volume_per_link[static_cast<std::size_t>(link)] +=
            phase.edges[i].volume;
      }
      pm.max_dilation = std::max(pm.max_dilation, route.hops());
      phase_dilation += route.hops();
      if (route.hops() > 0) {
        out.total_ipc += comm_mult[k] * phase.edges[i].volume;
      }
    }
    pm.avg_dilation =
        phase.edges.empty()
            ? 0.0
            : static_cast<double>(phase_dilation) /
                  static_cast<double>(phase.edges.size());
    int links_used = 0;
    long contention_sum = 0;
    for (const int c : pm.contention_per_link) {
      if (c > 0) {
        ++links_used;
        contention_sum += c;
      }
      pm.max_contention = std::max(pm.max_contention, c);
    }
    pm.avg_contention =
        links_used == 0 ? 0.0
                        : static_cast<double>(contention_sum) /
                              static_cast<double>(links_used);
    pm.phase_time = model.comm_time(
        pm.volume_per_link.empty()
            ? 0
            : *std::max_element(pm.volume_per_link.begin(),
                                pm.volume_per_link.end()),
        pm.max_dilation);
    comm_times.push_back(pm.phase_time);
    out.max_dilation = std::max(out.max_dilation, pm.max_dilation);
    total_edges += static_cast<long>(phase.edges.size());
    total_dilation += phase_dilation;
    out.phases.push_back(std::move(pm));
  }
  out.avg_dilation = total_edges == 0
                         ? 0.0
                         : static_cast<double>(total_dilation) /
                               static_cast<double>(total_edges);

  std::vector<std::int64_t> exec_times;
  for (std::size_t k = 0; k < graph.exec_phases().size(); ++k) {
    exec_times.push_back(
        exec_phase_time(graph, static_cast<int>(k), proc_of_task, p));
  }
  out.completion = compose_phase_times(graph, comm_times, exec_times);
  return out;
}

MappingMetrics compute_metrics(const TaskGraph& graph,
                               const Mapping& mapping, const Topology& topo,
                               const CostModel& model) {
  return compute_metrics(graph, mapping.proc_of_task(), mapping.routing,
                         topo, model);
}

}  // namespace oregami
