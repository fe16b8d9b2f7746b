#include "oregami/mapper/migration.hpp"

#include <algorithm>

#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

namespace {

void linearize(const PhaseTree& node, std::vector<int>& out,
               std::size_t max_steps) {
  if (out.size() > max_steps) {
    throw MappingError("phase expression expansion exceeds the step cap");
  }
  switch (node.kind) {
    case PhaseTree::Kind::Idle:
      return;
    case PhaseTree::Kind::Comm:
      out.push_back(node.phase_index);
      return;
    case PhaseTree::Kind::Exec:
      out.push_back(~node.phase_index);
      return;
    case PhaseTree::Kind::Seq:
    case PhaseTree::Kind::Par:
      for (const auto& child : node.children) {
        linearize(child, out, max_steps);
      }
      return;
    case PhaseTree::Kind::Repeat:
      for (long i = 0; i < node.count; ++i) {
        linearize(node.children.front(), out, max_steps);
        if (out.size() > max_steps) {
          throw MappingError(
              "phase expression expansion exceeds the step cap");
        }
      }
      return;
  }
}

}  // namespace

std::vector<int> linearize_phase_expr(const TaskGraph& graph,
                                      std::size_t max_steps) {
  std::vector<int> out;
  if (graph.phase_expr().kind == PhaseTree::Kind::Idle) {
    for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
      out.push_back(static_cast<int>(k));
    }
    for (std::size_t k = 0; k < graph.exec_phases().size(); ++k) {
      out.push_back(~static_cast<int>(k));
    }
    return out;
  }
  linearize(graph.phase_expr(), out, max_steps);
  return out;
}

namespace {

/// A task graph containing only phase `k` of `graph` (exec phases kept
/// so the mapper balances load too).
TaskGraph single_phase_view(const TaskGraph& graph, std::size_t k) {
  TaskGraph view;
  for (int t = 0; t < graph.num_tasks(); ++t) {
    view.add_task(graph.task_name(t), graph.task_label(t));
  }
  const auto& phase = graph.comm_phases()[k];
  const int p = view.add_comm_phase(phase.name);
  for (const auto& e : phase.edges) {
    view.add_comm_edge(p, e.src, e.dst, e.volume);
  }
  for (const auto& exec : graph.exec_phases()) {
    view.add_exec_phase(exec.name, exec.cost);
  }
  view.set_node_symmetric(graph.declared_node_symmetric());
  return view;
}

long moved_tasks(const std::vector<int>& from, const std::vector<int>& to) {
  long count = 0;
  for (std::size_t t = 0; t < from.size(); ++t) {
    if (from[t] != to[t]) {
      ++count;
    }
  }
  return count;
}

}  // namespace

MigrationReport evaluate_phase_migration(const TaskGraph& graph,
                                         const Topology& topo,
                                         const MigrationConfig& config) {
  MigrationReport report;

  // Static reference: the ordinary driver mapping.
  const MapperReport static_report = map_computation(graph, topo);
  report.static_time =
      completion_time(graph, static_report.mapping.proc_of_task(),
                      static_report.mapping.routing, topo);

  // Tailored mapping and routing per comm phase.
  const std::size_t num_comm = graph.comm_phases().size();
  std::vector<std::vector<PhaseRouting>> routing_per(num_comm);
  for (std::size_t k = 0; k < num_comm; ++k) {
    const TaskGraph view = single_phase_view(graph, k);
    const MapperReport phase_report = map_computation(view, topo);
    report.placement_per_comm_phase.push_back(
        phase_report.mapping.proc_of_task());
    // Route the *original* phase under that placement.
    routing_per[k] =
        mm_route(graph, report.placement_per_comm_phase.back(), topo);
  }

  // Walk the timeline: start at the first comm phase's placement.
  constexpr std::size_t kMaxSteps = 100'000;
  const auto timeline = linearize_phase_expr(graph, kMaxSteps);
  std::vector<int> current =
      num_comm > 0 ? report.placement_per_comm_phase.front()
                   : static_report.mapping.proc_of_task();
  for (const int step : timeline) {
    if (step >= 0) {
      const auto k = static_cast<std::size_t>(step);
      const auto& target = report.placement_per_comm_phase[k];
      const long moves = moved_tasks(current, target);
      if (moves > 0) {
        report.task_moves += moves;
        ++report.migrations;
        report.migrating_time += moves * config.cost_per_task_move;
        current = target;
      }
      report.migrating_time += comm_phase_time(
          graph, step, routing_per[k][k], topo, CostModel{});
    } else {
      report.migrating_time += exec_phase_time(
          graph, ~step, current, topo.num_procs());
    }
  }
  return report;
}

}  // namespace oregami
