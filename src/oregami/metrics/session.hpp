// Programmatic stand-in for METRICS' interactive click-and-drag loop
// (paper §5): the user inspects a mapping, reassigns tasks or re-routes
// individual communication edges, and METRICS recomputes the
// performance metrics. Every edit validates, is undoable, and reports
// the metric delta it caused.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "oregami/metrics/metrics.hpp"

namespace oregami {

/// Result of one session edit: the recomputed metrics plus the change
/// in completion time (a negative delta is an improvement).
struct EditReport {
  MappingMetrics before;
  MappingMetrics after;

  [[nodiscard]] std::int64_t completion_delta() const {
    return after.completion - before.completion;
  }
};

class MetricsSession {
 public:
  /// Starts from a MAPPER-produced mapping. The session works at task
  /// granularity (per-task processor assignments, which is what
  /// click-and-drag edits manipulate).
  MetricsSession(const TaskGraph& graph, const Topology& topo,
                 const Mapping& mapping, CostModel model = {});

  [[nodiscard]] const std::vector<int>& proc_of_task() const {
    return proc_of_task_;
  }
  [[nodiscard]] const std::vector<PhaseRouting>& routing() const {
    return routing_;
  }
  [[nodiscard]] const MappingMetrics& metrics() const { return metrics_; }

  /// Moves `task` to `proc` and re-routes every comm edge incident to
  /// it (other routes are untouched). Throws MappingError on a bad
  /// task/processor id.
  EditReport move_task(int task, int proc);

  /// Replaces the route of edge `edge_index` of phase `phase_index`
  /// with a user-supplied route; the route must be a valid walk between
  /// the current endpoint processors. Throws MappingError otherwise.
  EditReport reroute_edge(int phase_index, int edge_index, Route route);

  /// Undoes the most recent edit; returns false when the history is
  /// empty.
  bool undo();

  /// Number of edits applied and not undone.
  [[nodiscard]] std::size_t history_size() const {
    return history_.size();
  }

 private:
  struct Snapshot {
    std::vector<int> proc_of_task;
    std::vector<PhaseRouting> routing;
    MappingMetrics metrics;
  };

  void recompute_metrics();
  void reroute_task_edges(int task);

  const TaskGraph& graph_;
  const Topology& topo_;
  CostModel model_;
  std::vector<int> proc_of_task_;
  std::vector<PhaseRouting> routing_;
  MappingMetrics metrics_;
  std::vector<Snapshot> history_;
};

}  // namespace oregami
