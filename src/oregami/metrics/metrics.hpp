// The METRICS analysis suite (paper §5): load-balancing metrics (tasks
// per processor, execution time per processor), link metrics (dilation,
// volume, per-phase contention), and overall metrics (completion time,
// total inter-processor communication).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/core/task_graph.hpp"
#include "oregami/metrics/completion_model.hpp"

namespace oregami {

struct LoadMetrics {
  std::vector<int> tasks_per_proc;
  std::vector<std::int64_t> exec_per_proc;  ///< phase-multiplicity weighted

  int max_tasks = 0;
  double avg_tasks = 0.0;
  std::int64_t max_exec = 0;
  /// max_exec over the mean exec load of all P processors, idle ones
  /// included; 1.0 = perfectly balanced.
  double exec_imbalance = 0.0;
};

struct PhaseLinkMetrics {
  std::string phase_name;
  std::vector<int> contention_per_link;        ///< routes crossing link
  std::vector<std::int64_t> volume_per_link;   ///< volume through link
  int max_contention = 0;
  double avg_contention = 0.0;  ///< over links used by the phase
  int max_dilation = 0;
  double avg_dilation = 0.0;  ///< over the phase's edges
  std::int64_t phase_time = 0;
};

struct MappingMetrics {
  LoadMetrics load;
  std::vector<PhaseLinkMetrics> phases;

  /// Volume crossing processor boundaries (counted once per edge,
  /// multiplicity-weighted).
  std::int64_t total_ipc = 0;
  double avg_dilation = 0.0;  ///< over all comm edges of all phases
  int max_dilation = 0;
  /// completion_time() under `model`: the phase times composed by
  /// compose_phase_times().
  std::int64_t completion = 0;
};

/// Computes the full metric suite for a task-level placement +
/// routing. `proc_of_task` and `routing` may come from a Mapping
/// (Mapping::proc_of_task()) or from a MetricsSession edit state.
[[nodiscard]] MappingMetrics compute_metrics(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const Topology& topo,
    const CostModel& model = {});

/// Convenience overload for a Mapping.
[[nodiscard]] MappingMetrics compute_metrics(const TaskGraph& graph,
                                             const Mapping& mapping,
                                             const Topology& topo,
                                             const CostModel& model = {});

}  // namespace oregami
