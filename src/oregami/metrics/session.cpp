#include "oregami/metrics/session.hpp"

#include "oregami/arch/routes.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

MetricsSession::MetricsSession(const TaskGraph& graph, const Topology& topo,
                               const Mapping& mapping, CostModel model)
    : graph_(graph),
      topo_(topo),
      model_(model),
      proc_of_task_(mapping.proc_of_task()),
      routing_(mapping.routing) {
  recompute_metrics();
}

void MetricsSession::recompute_metrics() {
  metrics_ = compute_metrics(graph_, proc_of_task_, routing_, topo_,
                             model_);
}

void MetricsSession::reroute_task_edges(int task) {
  for (std::size_t k = 0; k < graph_.comm_phases().size(); ++k) {
    const auto& phase = graph_.comm_phases()[k];
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& e = phase.edges[i];
      if (e.src != task && e.dst != task) {
        continue;
      }
      const int src = proc_of_task_[static_cast<std::size_t>(e.src)];
      const int dst = proc_of_task_[static_cast<std::size_t>(e.dst)];
      routing_[k].route_of_edge[i] = greedy_shortest_route(topo_, src, dst);
    }
  }
}

EditReport MetricsSession::move_task(int task, int proc) {
  if (task < 0 || task >= graph_.num_tasks()) {
    throw MappingError("move_task: task id out of range");
  }
  if (proc < 0 || proc >= topo_.num_procs()) {
    throw MappingError("move_task: processor id out of range");
  }
  EditReport report;
  report.before = metrics_;
  history_.push_back({proc_of_task_, routing_, metrics_});
  proc_of_task_[static_cast<std::size_t>(task)] = proc;
  reroute_task_edges(task);
  recompute_metrics();
  report.after = metrics_;
  return report;
}

EditReport MetricsSession::reroute_edge(int phase_index, int edge_index,
                                        Route route) {
  if (phase_index < 0 ||
      static_cast<std::size_t>(phase_index) >=
          graph_.comm_phases().size()) {
    throw MappingError("reroute_edge: phase index out of range");
  }
  const auto& phase =
      graph_.comm_phases()[static_cast<std::size_t>(phase_index)];
  if (edge_index < 0 ||
      static_cast<std::size_t>(edge_index) >= phase.edges.size()) {
    throw MappingError("reroute_edge: edge index out of range");
  }
  const auto& e = phase.edges[static_cast<std::size_t>(edge_index)];
  const int src = proc_of_task_[static_cast<std::size_t>(e.src)];
  const int dst = proc_of_task_[static_cast<std::size_t>(e.dst)];
  if (!is_valid_route(topo_, route, src, dst)) {
    throw MappingError(
        "reroute_edge: route is not a valid walk between the edge's "
        "processors");
  }
  EditReport report;
  report.before = metrics_;
  history_.push_back({proc_of_task_, routing_, metrics_});
  routing_[static_cast<std::size_t>(phase_index)]
      .route_of_edge[static_cast<std::size_t>(edge_index)] =
      std::move(route);
  recompute_metrics();
  report.after = metrics_;
  return report;
}

bool MetricsSession::undo() {
  if (history_.empty()) {
    return false;
  }
  Snapshot snapshot = std::move(history_.back());
  history_.pop_back();
  proc_of_task_ = std::move(snapshot.proc_of_task);
  routing_ = std::move(snapshot.routing);
  metrics_ = std::move(snapshot.metrics);
  return true;
}

}  // namespace oregami
