// Local search on contractions and placements, after the paper's §6
// promise to "continue to augment the MAPPER library with new and
// improved algorithms for contraction". refine_contraction hill-climbs
// a contraction's external communication weight (KL/FM moves and
// swaps). greedy_sweep is the one best-improvement loop over
// IncrementalCompletion; refine_placement, repair's migrate rung and
// the multilevel commit differ only in the tasks they visit and the
// processors they list. anneal_placement (anneal.hpp) keeps its own
// loop: a random single target, a Metropolis coin and a best-state
// unwind share only the probe and apply calls with this sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "oregami/core/mapping.hpp"
#include "oregami/graph/graph.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/support/deadline.hpp"

namespace oregami {

class IncrementalCompletion;

struct RefineResult {
  Contraction contraction;
  std::int64_t external_before = 0;
  std::int64_t external_after = 0;
  int moves = 0;
  int swaps = 0;
  int passes = 0;

  [[nodiscard]] std::int64_t improvement() const {
    return external_before - external_after;
  }
};

/// Greedy refinement: repeatedly applies the single task move (to a
/// cluster with room) or pairwise task swap with the largest positive
/// reduction in external weight, until a pass finds nothing or after
/// eight passes. Clusters never exceed `load_bound_B` and never empty
/// (the contraction keeps its cluster count).
[[nodiscard]] RefineResult refine_contraction(const Graph& task_graph,
                                              Contraction contraction,
                                              int load_bound_B);

struct PlacementRefineResult {
  Mapping mapping;  ///< moved edges re-routed greedily
  std::int64_t completion_before = 0;
  std::int64_t completion_after = 0;
  int moves = 0;
  int passes = 0;

  [[nodiscard]] std::int64_t improvement() const {
    return completion_before - completion_after;
  }
};

/// What one greedy_sweep call did.
struct SweepResult {
  int passes = 0;  ///< sweeps begun (one the deadline cut short counts)
  int moves = 0;   ///< moves applied
  std::int64_t probes = 0;  ///< delta_move calls
  bool deadline_hit = false;
};

/// Appends the processors to probe for `task` on sweep `pass`
/// (0-based) to `out`, which arrives empty.
using SweepCandidates =
    std::function<void(int task, int pass, std::vector<int>& out)>;

/// Greedy best-improvement sweeps. Each sweep visits the tasks of
/// `order` in turn, probes every processor `candidates` lists for the
/// task with IncrementalCompletion::delta_move, and applies the most
/// negative delta (ties: the first listed). The task's own processor is
/// never probed, nor one already hosting `load_bound` tasks (0 =
/// unbounded). Stops after a sweep that applies nothing, after
/// `max_passes` sweeps, or once `deadline` has passed (checked before
/// each sweep and before each task). Never worsens the completion
/// time; deterministic unless the deadline budget is positive.
[[nodiscard]] SweepResult greedy_sweep(
    IncrementalCompletion& inc, const std::vector<int>& order,
    const SweepCandidates& candidates, int load_bound = 0,
    int max_passes = 1, const Deadline& deadline = Deadline(0));

/// Processor-level hill climbing on the completion model itself, after
/// contraction and embedding are fixed: greedy_sweep over the tasks in
/// id order, each probing the network neighbours of its processor plus
/// the processors hosting its communication partners (sorted, so ties
/// go to the lowest processor id). A move is admitted only while the
/// destination hosts fewer than `load_bound_B` tasks (0 = unbounded).
/// Scores the completion model at its default costs. Deterministic;
/// never worsens the completion time; at most four sweeps.
///
/// `link_factor` (optional, empty = all 1) is a per-link serialisation
/// multiplier forwarded to IncrementalCompletion, so refinement on a
/// degraded machine steers traffic away from slowed links.
[[nodiscard]] PlacementRefineResult refine_placement(
    const TaskGraph& graph, const Topology& topo,
    std::vector<int> proc_of_task, std::vector<PhaseRouting> routing,
    int load_bound_B = 0, std::vector<std::int64_t> link_factor = {});

}  // namespace oregami
