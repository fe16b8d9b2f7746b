#include "oregami/schedule/synchrony.hpp"

#include <algorithm>

#include "oregami/support/error.hpp"

namespace oregami {

ScheduleResult derive_synchrony_sets(const TaskGraph& graph,
                                     const std::vector<int>& proc_of_task,
                                     int num_procs) {
  OREGAMI_ASSERT(proc_of_task.size() ==
                     static_cast<std::size_t>(graph.num_tasks()),
                 "placement must cover every task");
  ScheduleResult result;
  result.local_order.resize(static_cast<std::size_t>(num_procs));
  for (int t = 0; t < graph.num_tasks(); ++t) {
    result.local_order[static_cast<std::size_t>(
                           proc_of_task[static_cast<std::size_t>(t)])]
        .push_back(t);
  }
  std::size_t depth = 0;
  for (auto& order : result.local_order) {
    std::sort(order.begin(), order.end());
    depth = std::max(depth, order.size());
  }
  result.set_of_task.assign(static_cast<std::size_t>(graph.num_tasks()),
                            -1);
  for (std::size_t k = 0; k < depth; ++k) {
    SynchronySet set;
    set.index = static_cast<int>(k);
    for (const auto& order : result.local_order) {
      if (k < order.size()) {
        set.tasks.push_back(order[k]);
        result.set_of_task[static_cast<std::size_t>(order[k])] =
            static_cast<int>(k);
      }
    }
    std::sort(set.tasks.begin(), set.tasks.end());
    result.sets.push_back(std::move(set));
  }
  return result;
}

namespace {

std::string local_tasks_string(const TaskGraph& graph,
                               const std::vector<int>& order) {
  if (order.empty()) {
    return "idle";
  }
  std::string out = "(";
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i != 0) {
      out += "; ";
    }
    out += graph.task_name(order[i]);
  }
  return out + ")";
}

}  // namespace

std::string local_directive(const TaskGraph& graph,
                            const ScheduleResult& schedule, int processor) {
  OREGAMI_ASSERT(
      processor >= 0 &&
          static_cast<std::size_t>(processor) < schedule.local_order.size(),
      "processor out of range");
  const std::string local_exec = local_tasks_string(
      graph, schedule.local_order[static_cast<std::size_t>(processor)]);
  if (graph.phase_expr().kind == PhaseTree::Kind::Idle) {
    return local_exec;
  }
  // Every exec phase reads as the processor's own tasks.
  const std::vector<ExecPhase> local_phases(graph.exec_phases().size(),
                                            ExecPhase{local_exec, {}});
  return graph.phase_expr().to_string(graph.comm_phases(), local_phases);
}

}  // namespace oregami
