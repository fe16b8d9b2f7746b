// Simulated annealing over processor placements (paper §6's "new and
// improved algorithms" commitment; the modern recipe of Glantz et al.
// and the HTI-OVGU task-mapping field).
//
// The chain walks single-task moves scored by the completion model via
// IncrementalCompletion::delta_move -- the exact O(touched-state)
// evaluator built for placement refinement -- so one proposal costs the
// same as one refinement probe rather than a full model re-score.
// Downhill and sideways moves are always accepted; uphill moves are
// accepted with probability exp(-delta / T). The schedule is fixed: T
// starts at max(1, initial completion / 20) and is multiplied by 0.999
// after every proposal.
//
// Determinism contract: the result is a pure function of the inputs
// and `AnnealOptions::seed`. The proposal stream comes from a private
// SplitMix64, the chain is strictly sequential, and the returned state
// is the *best* state visited, reconstructed exactly by unwinding the
// evaluator's undo history past the last strict improvement. Two
// consequences the tests rely on:
//   * the result is never worse than the initial placement;
//   * when no proposal strictly improves on the start state, the
//     final placement, routing, and completion are bit-identical to
//     the input (the whole apply/undo chain round-trips).
// A timed `deadline` (support/deadline.hpp) consults the wall clock and
// may cut the chain short; the portfolio passes its search deadline, so
// a chain stops when the search's budget runs out. Budgets of 0 and
// below never read the clock, so those modes stay bit-deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/metrics/completion_model.hpp"
#include "oregami/support/deadline.hpp"

namespace oregami {

struct AnnealOptions {
  /// Number of move proposals (the chain length). 0 = return the
  /// initial state untouched.
  int iterations = 4000;
  /// Seed of the private proposal stream.
  std::uint64_t seed = 0x5EEDA11u;
};

struct AnnealResult {
  Mapping mapping;  ///< the best state; moved edges re-routed greedily
  std::int64_t completion_before = 0;
  std::int64_t completion_after = 0;  ///< best completion visited
  int proposed = 0;                   ///< proposals actually evaluated
  int accepted = 0;                   ///< moves committed to the chain
  int uphill = 0;                     ///< accepted with delta > 0
  bool deadline_hit = false;          ///< a timed deadline cut the chain

  [[nodiscard]] std::int64_t improvement() const {
    return completion_before - completion_after;
  }
};

/// Runs the annealing chain from `proc_of_task` + `routing` (e.g. a
/// MAPPER-produced mapping), scored by the completion model at its
/// default costs. `deadline` is checked every 64 proposals: an expired
/// one (budget < 0) runs no proposal and leaves deadline_hit false; a
/// timed one stops the chain once it passes.
[[nodiscard]] AnnealResult anneal_placement(
    const TaskGraph& graph, const Topology& topo,
    std::vector<int> proc_of_task, std::vector<PhaseRouting> routing,
    const AnnealOptions& options = {},
    const Deadline& deadline = Deadline(0));

}  // namespace oregami
