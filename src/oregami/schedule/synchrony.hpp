// Task synchrony sets and local scheduling directives (paper §6,
// "Scheduling"): many OREGAMI workloads run lockstep through their
// phases, so once MAPPER has assigned several tasks to one processor it
// pays to coordinate *which* of them executes when across the machine.
//
// A synchrony set is "a set of tasks, one on each processor, that
// should be executing at the same time". This module derives the sets
// and emits per-processor scheduling directives in a path-expression-
// like notation (after [CH74], as the paper proposes).
#pragma once

#include <string>
#include <vector>

#include "oregami/core/task_graph.hpp"

namespace oregami {

/// One synchrony set: at most one task per processor.
struct SynchronySet {
  int index = 0;
  std::vector<int> tasks;  ///< sorted task ids
};

struct ScheduleResult {
  /// Sets in execution order; their union covers every task.
  std::vector<SynchronySet> sets;
  /// sets-index of each task.
  std::vector<int> set_of_task;
  /// Tasks of each processor in local execution order.
  std::vector<std::vector<int>> local_order;
};

/// Derives synchrony sets from a placement. Each processor's tasks are
/// ordered by task id (LaRCS numbers tasks along the label space, so
/// equal ranks across processors correspond across the computation);
/// set k holds every processor's k-th task.
[[nodiscard]] ScheduleResult derive_synchrony_sets(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    int num_procs);

/// The processor's local scheduling directive: the phase expression
/// with each execution phase expanded to the processor's task sequence,
/// e.g. "((ring; (body(0); body(8)))^8; chordal; (body(0); body(8)))^4".
[[nodiscard]] std::string local_directive(const TaskGraph& graph,
                                          const ScheduleResult& schedule,
                                          int processor);

}  // namespace oregami
