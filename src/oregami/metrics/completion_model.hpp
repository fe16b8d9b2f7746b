// The analytic communication/computation cost model behind METRICS'
// "completion time of the computation" (paper §5).
//
// OREGAMI never executes the program; like the original METRICS tool it
// scores a mapping with a model:
//   * an execution phase costs the maximum, over processors, of the
//     summed task costs assigned there (processors run in parallel);
//   * a communication phase is synchronous: its cost is the maximum
//     volume serialised through any one link (contention x volume x
//     per-unit cost) plus the longest route's hop latency;
//   * the phase expression composes phases: sequence adds, parallel
//     takes the maximum, repetition multiplies.
//
// Every scorer -- completion_time(), extract_objectives(),
// degraded_completion_time(), compute_metrics(), IncrementalCompletion
// and the simulator -- scores each phase once and hands the per-phase
// costs to compose_phase_times(), the one walk of the phase expression.
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/core/task_graph.hpp"

namespace oregami {

struct CostModel {
  std::int64_t hop_latency = 1;    ///< per-hop switching cost
  std::int64_t per_unit_cost = 1;  ///< per volume unit per link

  /// The comm formula: `volume` serialised through one link plus
  /// `hops` switching delays.
  [[nodiscard]] std::int64_t comm_time(std::int64_t volume,
                                       std::int64_t hops) const {
    return volume * per_unit_cost + hops * hop_latency;
  }
};

/// Cost of comm phase `phase_index` under `routing` (that phase's
/// routes): max over links of serialised volume + latency of the
/// longest route. `link_factor` (index = link id in `topo`, every entry
/// >= 1; empty means all 1) multiplies each link's volume, so a slowed
/// link serialises its traffic that many times slower.
[[nodiscard]] std::int64_t comm_phase_time(
    const TaskGraph& graph, int phase_index, const PhaseRouting& routing,
    const Topology& topo, const CostModel& model,
    const std::vector<std::int64_t>& link_factor = {});

/// Cost of exec phase `phase_index`: max over processors of assigned
/// task cost.
[[nodiscard]] std::int64_t exec_phase_time(
    const TaskGraph& graph, int phase_index,
    const std::vector<int>& proc_of_task, int num_procs);

/// Combines per-phase costs (index-aligned with graph.comm_phases()
/// and graph.exec_phases()) through the phase expression: a sequence
/// adds, a parallel block takes the maximum, a repetition multiplies.
/// An Idle expression runs every phase once, in sequence.
[[nodiscard]] std::int64_t compose_phase_times(
    const TaskGraph& graph, const std::vector<std::int64_t>& comm_times,
    const std::vector<std::int64_t>& exec_times);

/// Scores every phase once and composes the costs
/// (compose_phase_times()).
[[nodiscard]] std::int64_t completion_time(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const Topology& topo,
    const CostModel& model = {});

/// The three objectives the portfolio's Pareto report ranks a placement
/// on. All are minimised; all are exact model quantities, so extraction
/// is deterministic.
struct PlacementObjectives {
  /// Modelled completion time (completion_time()).
  std::int64_t completion = 0;
  /// Multiplicity-weighted communication volume crossing processor
  /// boundaries (the METRICS total-IPC headline).
  std::int64_t external_ipc = 0;
  /// Maximum per-processor execution load, multiplicity-weighted and
  /// summed over every exec phase (the load-balance objective).
  std::int64_t max_load = 0;
  /// The per-phase costs that composed into `completion`, index-aligned
  /// with graph.comm_phases() and graph.exec_phases().
  std::vector<std::int64_t> comm_times;
  std::vector<std::int64_t> exec_times;
};

/// Extracts all three objectives of a placement in one pass (shared by
/// portfolio scoring and the Pareto report).
[[nodiscard]] PlacementObjectives extract_objectives(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const Topology& topo,
    const CostModel& model = {});

/// completion_time() on the degraded machine: each link's serialised
/// volume is multiplied by its slowdown factor
/// (FaultedTopology::link_slowdowns() as comm_phase_time()'s
/// `link_factor`), so the phase bottleneck is max over links of
/// (volume * factor). Routes and placement are in BASE ids; the
/// FaultedTopology liveness check throws MappingError when a task sits
/// on a dead processor or a route crosses a dead link/processor (the
/// mapping is invalid on the faulted machine -- repair it first). With
/// an empty FaultSpec this equals completion_time() exactly.
[[nodiscard]] std::int64_t degraded_completion_time(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const FaultedTopology& faults,
    const CostModel& model = {});

}  // namespace oregami
