// Text renderers standing in for the original METRICS colour displays
// (see DESIGN.md substitution table): tabular metric reports, an ASCII
// picture of mesh/ring placements, and Graphviz DOT export of the task
// graph.
#pragma once

#include <string>

#include "oregami/metrics/metrics.hpp"

namespace oregami {

/// Processor table: proc | tasks | task names | exec load.
[[nodiscard]] std::string render_assignment_table(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const Topology& topo);

/// Per-phase link table: link | endpoints | contention | volume.
[[nodiscard]] std::string render_link_table(const MappingMetrics& metrics,
                                            const Topology& topo);

/// Headline metrics (completion, IPC, dilation, balance).
[[nodiscard]] std::string render_summary(const MappingMetrics& metrics);

/// ASCII grid of a mesh/torus placement (task counts per cell) or a
/// one-line ring/chain layout; falls back to the assignment table for
/// other topologies.
[[nodiscard]] std::string render_ascii_layout(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const Topology& topo);

/// Graphviz DOT of the colored task graph (one edge color per phase).
[[nodiscard]] std::string render_task_graph_dot(const TaskGraph& graph);

}  // namespace oregami
