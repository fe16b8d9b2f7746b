// A discrete-event store-and-forward network simulator.
//
// OREGAMI's METRICS scores mappings with an analytic model (max link
// volume + hop latency per phase). The original tool had no execution
// substrate either -- but a reproduction can do better: this simulator
// executes the mapped computation phase by phase, serialising messages
// through link FIFOs, and reports an independent makespan that the
// bench suite compares against the analytic model (they should agree on
// ranking and be within a small factor on magnitude).
//
// Model:
//   * store-and-forward: a message occupies one link at a time for
//     CostModel::comm_time(volume, 1) cycles: its volume serialised at
//     the per-unit cost, plus one hop latency;
//   * each link is half-duplex and serves one message at a time, FIFO
//     by readiness (ties broken by message id -- deterministic);
//   * a communication phase is synchronous: all its messages inject at
//     the phase start, the phase ends when the last message lands;
//   * an execution phase occupies each processor for the sum of its
//     assigned task costs; processors run in parallel;
//   * the phase expression composes: sequence barriers between steps,
//     parallel branches overlap (max), repetition multiplies (each
//     iteration is identical under barrier semantics).
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/core/task_graph.hpp"
#include "oregami/metrics/completion_model.hpp"

namespace oregami {

struct SimConfig {
  /// The costs of a hop, in cycles: the analytic model's own, so a
  /// cross-check states them once.
  CostModel model;
  /// Optional degraded machine of `topo` (not owned; must outlive the
  /// call). When set, the placement and every route pass the
  /// FaultedTopology liveness check before injection -- a route over a
  /// dead link or dead processor, or a task placed on a dead processor,
  /// raises a clean MappingError (never a hang or assert) -- and
  /// serialisation through a slowed link is multiplied by its
  /// degradation factor.
  const FaultedTopology* faults = nullptr;
};

/// Result of simulating one communication phase.
struct PhaseSimResult {
  std::int64_t makespan = 0;  ///< cycles from injection to last delivery
  std::vector<std::int64_t> link_busy;   ///< busy cycles per link
  std::vector<std::int64_t> delivery;    ///< completion time per message
  double avg_link_utilisation = 0.0;     ///< busy / makespan over used links
  std::int64_t max_link_busy = 0;
};

/// Simulates comm phase `phase_index` of `graph` under `routing` (that
/// phase's routes). Messages between co-located tasks deliver at 0.
[[nodiscard]] PhaseSimResult simulate_comm_phase(
    const TaskGraph& graph, int phase_index, const PhaseRouting& routing,
    const Topology& topo, const SimConfig& config = {});

/// Full simulation: simulates each phase once and composes the
/// per-phase cycles through the phase expression
/// (compose_phase_times()); returns total cycles.
struct SimResult {
  std::int64_t total_cycles = 0;
  std::vector<std::int64_t> comm_phase_cycles;  ///< per comm phase (one pass)
  std::vector<std::int64_t> exec_phase_cycles;  ///< per exec phase (one pass)
};

[[nodiscard]] SimResult simulate(const TaskGraph& graph,
                                 const std::vector<int>& proc_of_task,
                                 const std::vector<PhaseRouting>& routing,
                                 const Topology& topo,
                                 const SimConfig& config = {});

}  // namespace oregami
