#include "oregami/mapper/anneal.hpp"

#include <cmath>

#include "oregami/metrics/incremental.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {

AnnealResult anneal_placement(const TaskGraph& graph, const Topology& topo,
                              std::vector<int> proc_of_task,
                              std::vector<PhaseRouting> routing,
                              const AnnealOptions& options,
                              const Deadline& deadline) {
  const trace::Span span("anneal");
  const int n = graph.num_tasks();
  const int p = topo.num_procs();
  IncrementalCompletion inc(graph, topo, std::move(proc_of_task),
                            std::move(routing));

  AnnealResult result;
  result.completion_before = inc.completion();

  // A chain needs a task to move and somewhere else to move it.
  if (n >= 1 && p >= 2 && options.iterations > 0) {
    SplitMix64 rng(options.seed);
    // Geometric cooling from max(1, initial completion / 20).
    constexpr double kCooling = 0.999;
    double temp =
        std::max(1.0, static_cast<double>(inc.completion()) / 20.0);

    std::int64_t best_completion = inc.completion();
    std::size_t best_history = inc.history_size();

    for (int i = 0; i < options.iterations; ++i) {
      // The clock is only consulted for positive budgets, and only
      // every 64 proposals (a probe is microseconds; the syscall is
      // not).
      if ((i & 63) == 0 && deadline.passed()) {
        result.deadline_hit = deadline.timed();
        trace::instant("deadline_hit",
                       "after " + std::to_string(i) + " proposals");
        break;
      }
      const int task = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const int here = inc.proc_of_task()[static_cast<std::size_t>(task)];
      // Proposal mix: half the moves hop to a network neighbour of the
      // current processor (local polish), half jump uniformly (escape).
      int target;
      const auto& neighbors = topo.graph().neighbors(here);
      if (!neighbors.empty() && rng.next_below(2) == 0) {
        target = neighbors[static_cast<std::size_t>(rng.next_below(
                               static_cast<std::uint64_t>(neighbors.size())))]
                     .neighbor;
      } else {
        // Uniform over the other p-1 processors.
        const int draw = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(p - 1)));
        target = draw >= here ? draw + 1 : draw;
      }
      temp *= kCooling;
      if (target == here) {
        continue;  // neighbour draw can land on `here` in multigraphs
      }
      ++result.proposed;
      const std::int64_t delta = inc.delta_move(task, target);
      bool accept = delta <= 0;
      if (!accept && temp > 0.0) {
        accept = rng.next_double() <
                 std::exp(-static_cast<double>(delta) / temp);
      }
      if (!accept) {
        continue;
      }
      inc.apply_move(task, target);
      ++result.accepted;
      if (delta > 0) {
        ++result.uphill;
      }
      if (inc.completion() < best_completion) {
        best_completion = inc.completion();
        best_history = inc.history_size();
      }
    }

    // Return the best state visited, not wherever the chain ended:
    // unwind the exact undo history past the last strict improvement.
    // When nothing ever improved, this rewinds the whole chain and the
    // result is bit-identical to the input.
    while (inc.history_size() > best_history) {
      const bool undone = inc.undo();
      OREGAMI_ASSERT(undone, "anneal history unwind underflow");
    }
    OREGAMI_ASSERT(inc.completion() == best_completion,
                   "anneal unwind must land on the best visited state");
  }

  result.completion_after = inc.completion();
  OREGAMI_ASSERT(result.completion_after <= result.completion_before,
                 "annealing must never worsen the initial placement");
  trace::counter("proposed", result.proposed);
  trace::counter("accepted", result.accepted);
  trace::counter("uphill", result.uphill);
  trace::counter("improvement", result.improvement());
  result.mapping = std::move(inc).mapping();
  return result;
}

}  // namespace oregami
