// Incremental completion-model scoring (the mapper hot path).
//
// completion_time() walks every comm edge and every task on every
// call; a refinement sweep that probes "what if task t moved to
// processor q" thousands of times cannot afford that. This evaluator
// caches, per phase, the per-processor execution loads and per-link
// communication volumes (plus max trackers and a hop histogram), so a
// single-task move is scored from the caches:
//
//   * delta_move(t, q)  -- O(1) per exec phase via (max, count, second)
//     trackers, O(links + incident routes) per affected comm phase;
//     no allocation in the steady state; pure probe, no state change;
//   * apply_move(t, q)  -- commits the move, greedily re-routing the
//     edges incident to t (same rule as MetricsSession::move_task) in
//     place and refreshing the caches;
//   * undo()            -- exact restoration of the previous placement,
//     routes, caches, and completion time.
//
// Probes and commits take each greedy route from walk_greedy_route
// (arch/routes.hpp), which reads the machine's route table when it has
// one. The undo history keeps the routes a commit replaced in one flat
// pool, so once the pool and the routes have grown to fit, neither a
// commit nor an undo allocates.
//
// It scores the completion model at its default costs (CostModel{}),
// the model every MAPPER strategy optimises.
//
// Invariants (when caches must be rebuilt): the evaluator owns its
// placement + routing copies, so they can only drift from the caches
// through apply_move/undo, which maintain them. Mutating the TaskGraph
// or Topology it references invalidates the evaluator; construct a
// fresh one. An instance is not thread-safe (probes use
// internal scratch); give each thread its own.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "oregami/metrics/completion_model.hpp"

namespace oregami {

/// Read-only view of one comm phase's tracked state, for observability
/// consumers (trace counters, --explain, bench counter snapshots).
struct CommPhaseSnapshot {
  std::int64_t max_volume = 0;    ///< weighted serialised bottleneck
  std::int64_t total_volume = 0;  ///< summed weighted volume over links
  int used_links = 0;             ///< links carrying any volume
  int max_hops = 0;               ///< longest route
  std::vector<int> hops_hist;     ///< routes per hop count
};

class IncrementalCompletion {
 public:
  /// Hop-histogram bucket cap: bucket h counts routes of exactly h
  /// hops for h < kHopHistCap - 1; the final bucket aggregates every
  /// longer route, and max_hops saturates there. Exact for any
  /// topology whose diameter is below the cap — i.e. every built-in
  /// regular family up to ~half a million processors (a torus needs
  /// 1024x1024 before a shortest route reaches 1024 hops).
  ///
  /// Memory bound (exact, the reason the cap exists): per comm phase
  /// the evaluator keeps one 64-bit counter per link plus at most
  /// kHopHistCap histogram buckets; per exec phase one 64-bit load per
  /// processor; plus the incidence index, two flat arrays: one offset
  /// per task and one entry per comm-edge endpoint. Total resident
  /// state is
  ///   O(K_comm * (num_links + kHopHistCap) + K_exec * num_procs
  ///     + num_tasks + total_comm_edges)
  /// — linear in the machine and the graph, no P^2 term, independent
  /// of route lengths. On torus:64x64 (P = 4096, L = 8192) a comm
  /// phase costs 64 KiB of link counters + at most 8 KiB of histogram.
  /// Probe scratch is one O(num_links) dense array (zeroed after each
  /// probe) plus vectors linear in the links a move actually touches.
  static constexpr int kHopHistCap = 1024;

  /// Takes ownership of a task-level placement and its routing (e.g.
  /// Mapping::proc_of_task() + Mapping::routing). Requires every comm
  /// volume and exec cost to be non-negative (the cost model's domain).
  ///
  /// `link_factor` (optional) is a per-link serialisation multiplier
  /// (index = link id in `topo`, every entry >= 1; empty means all 1):
  /// a link's volume contribution is weighted by its factor, so the
  /// phase bottleneck is max over links of (volume * factor), the same
  /// convention as comm_phase_time(). This is how degraded-mode scoring
  /// charges slowed links their real cost: pass HealthySub::link_factor
  /// on the healthy machine, FaultedTopology::link_slowdowns() on the
  /// base one.
  IncrementalCompletion(const TaskGraph& graph, const Topology& topo,
                        std::vector<int> proc_of_task,
                        std::vector<PhaseRouting> routing,
                        std::vector<std::int64_t> link_factor = {});

  /// Convenience: start from a MAPPER-produced mapping.
  IncrementalCompletion(const TaskGraph& graph, const Topology& topo,
                        const Mapping& mapping,
                        std::vector<std::int64_t> link_factor = {});

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] std::int64_t completion() const { return completion_; }
  [[nodiscard]] const std::vector<int>& proc_of_task() const {
    return proc_of_task_;
  }
  [[nodiscard]] const std::vector<PhaseRouting>& routing() const& {
    return routing_;
  }
  /// Moves the placement and the routes out of an evaluator that is
  /// done with them: `std::move(inc).mapping()`. Only destruction may
  /// follow.
  [[nodiscard]] Mapping mapping() && {
    return Mapping(std::move(proc_of_task_), std::move(routing_));
  }

  /// Completion-time change if `task` moved to `to_proc` (incident
  /// edges re-routed greedily). Negative = improvement. Probe only.
  [[nodiscard]] std::int64_t delta_move(int task, int to_proc) const;

  /// Commits the move probed by delta_move; returns the realised delta
  /// (always equal to the probe's answer). Moving a task to its own
  /// processor is a no-op returning 0 (and records no history).
  std::int64_t apply_move(int task, int to_proc);

  /// Reverts the most recent apply_move; false when nothing to undo.
  bool undo();

  [[nodiscard]] std::size_t history_size() const {
    return history_.size();
  }

  /// Snapshot of comm phase `phase`'s per-link volumes and hop
  /// histogram (the trackers delta_move maintains). O(links).
  [[nodiscard]] CommPhaseSnapshot comm_snapshot(int phase) const;

  /// Max per-processor load of exec phase `phase` (the phase's
  /// modelled time).
  [[nodiscard]] std::int64_t exec_max_load(int phase) const;

  /// Emits the per-phase trackers as trace counters under the current
  /// span: for each comm phase "<name>/max_link_volume",
  /// "/total_volume", "/used_links", "/max_hops" and one "hops=<h>"
  /// bucket per histogram entry; for each exec phase "/max_load".
  /// No-op when tracing is disabled.
  void trace_phase_counters() const;

 private:
  struct ExecState {
    std::vector<std::int64_t> load;  ///< per processor
    std::int64_t max = 0;
    int count_at_max = 0;
    std::int64_t second = 0;  ///< largest load strictly below max
  };
  struct CommState {
    std::vector<std::int64_t> volume;  ///< per link
    std::vector<int> hops_hist;        ///< routes per hop count
    std::int64_t max_volume = 0;
    int max_hops = 0;
  };
  struct EdgeRef {
    int phase = 0;
    int edge = 0;
  };
  struct UndoRecord {
    int task = 0;
    int from_proc = 0;
    std::size_t pool_begin = 0;  ///< its replaced routes in undo_pool_
    std::int64_t old_completion = 0;
  };

  void rebuild_exec_tracker(ExecState& state) const;
  void rebuild_comm_maxima(CommState& state) const;
  /// The comm edges of `task`, grouped by ascending phase.
  [[nodiscard]] std::span<const EdgeRef> incident(int task) const {
    const auto t = static_cast<std::size_t>(task);
    return {incident_.data() + incident_begin_[t],
            incident_.data() + incident_begin_[t + 1]};
  }
  /// Moves `task` and rewrites its incident routes in place: greedily
  /// when `replaced` is null, else from an undo-pool record.
  void place_task(int task, int to_proc, const int* replaced);

  /// Histogram index of a route length under the kHopHistCap bucket
  /// scheme. Used symmetrically on increment and decrement, so
  /// apply/undo round-trips stay exact even in the saturated bucket.
  [[nodiscard]] static int hop_bucket(int hops) {
    return hops < kHopHistCap ? hops : kHopHistCap - 1;
  }

  [[nodiscard]] std::int64_t link_weight(int link) const {
    return link_factor_.empty()
               ? 1
               : link_factor_[static_cast<std::size_t>(link)];
  }

  const TaskGraph& graph_;
  const Topology& topo_;
  std::vector<int> proc_of_task_;
  std::vector<PhaseRouting> routing_;
  std::vector<std::int64_t> link_factor_;  ///< empty = all links factor 1

  std::vector<ExecState> exec_;
  std::vector<CommState> comm_;
  std::vector<std::int64_t> exec_times_;
  std::vector<std::int64_t> comm_times_;
  std::int64_t completion_ = 0;
  /// The incidence index in CSR form: task t's comm edges are
  /// incident_[incident_begin_[t], incident_begin_[t + 1]), in
  /// (phase, edge) order.
  std::vector<std::int32_t> incident_begin_;
  std::vector<EdgeRef> incident_;
  std::vector<UndoRecord> history_;
  /// The routes each history record replaced, records back to back; in
  /// a record, per incident edge in incident() order, the hop count and
  /// then the links.
  std::vector<int> undo_pool_;

  // Probe scratch (mutable: delta_move is logically const). Reused
  // across probes so the steady state allocates nothing.
  mutable std::vector<std::int64_t> probe_comm_times_;
  mutable std::vector<std::int64_t> probe_exec_times_;
  mutable std::vector<std::int64_t> link_delta_;  ///< dense, zeroed after use
  mutable std::vector<int> touched_links_;
  mutable std::vector<int> hops_scratch_;
};

}  // namespace oregami
