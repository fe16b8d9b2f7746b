// Phase-shift migration analysis (paper §6, "Mapping algorithms"):
// OREGAMI's default is one mapping that accommodates every phase; the
// paper proposes investigating "algorithms that consider migrating
// processes at run time in order to accommodate phase shifts". This
// module implements that what-if analysis: compute a tailored mapping
// per communication phase, walk the phase-expression timeline charging
// task-migration costs at every phase shift, and compare the result
// against the best static mapping. Every mapping is the driver's at its
// default options, and every time is the completion model's at its
// default costs.
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/arch/topology.hpp"
#include "oregami/core/task_graph.hpp"

namespace oregami {

struct MigrationConfig {
  /// Cost of moving one task's state to another processor.
  std::int64_t cost_per_task_move = 10;
};

struct MigrationReport {
  /// Modelled completion with per-phase remapping + migration charges.
  std::int64_t migrating_time = 0;
  /// Modelled completion of the single static mapping (driver output).
  std::int64_t static_time = 0;
  /// Total task moves across the whole timeline.
  long task_moves = 0;
  /// Number of phase shifts that triggered a migration.
  int migrations = 0;
  /// The tailored placement per comm phase.
  std::vector<std::vector<int>> placement_per_comm_phase;

  [[nodiscard]] bool migration_wins() const {
    return migrating_time < static_time;
  }
};

/// Linearises the phase expression into a sequence of phase
/// occurrences (comm index >= 0 encoded as index, exec encoded as
/// ~index). Parallel branches are concatenated (conservative for
/// migration accounting). Throws MappingError when the expansion
/// exceeds `max_steps`.
[[nodiscard]] std::vector<int> linearize_phase_expr(
    const TaskGraph& graph, std::size_t max_steps);

/// Runs the analysis. Each comm phase gets its own MAPPER run over a
/// single-phase view of the graph; the timeline then charges
/// cost_per_task_move * moved tasks at every placement change. Throws
/// MappingError when the timeline exceeds 100,000 steps.
[[nodiscard]] MigrationReport evaluate_phase_migration(
    const TaskGraph& graph, const Topology& topo,
    const MigrationConfig& config = {});

}  // namespace oregami
