#include "oregami/mapper/multilevel.hpp"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "oregami/core/csr_graph.hpp"
#include "oregami/mapper/baselines.hpp"
#include "oregami/mapper/nn_embed.hpp"
#include "oregami/mapper/refine.hpp"
#include "oregami/metrics/incremental.hpp"
#include "oregami/support/deadline.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {

namespace {

// One rung of the V-cycle: the graph at this resolution, plus the
// projection onto the next-coarser level (empty at the coarsest).
struct Level {
  CsrTaskGraph csr;
  std::vector<std::int32_t> coarse_of_fine;
};

// Best strictly-gainful destination for `v` under the frozen
// `placement`, or -1. Gain is the weighted-distance improvement of v's
// own incident edges (the same objective NN-Embed greedily optimises);
// the serial commit re-probes with the exact completion delta, so this
// only has to be a good filter, not a perfect score. Pure function of
// (csr, topo, placement).
int propose_move(const CsrTaskGraph& csr, const Topology& topo,
                 const std::vector<int>& placement, int v,
                 std::vector<int>& candidates) {
  const int p = placement[static_cast<std::size_t>(v)];
  candidates.clear();
  for (std::size_t i = csr.edge_begin(v); i < csr.edge_end(v); ++i) {
    const int q = placement[static_cast<std::size_t>(csr.neighbors[i])];
    if (q != p) candidates.push_back(q);
  }
  for (const Adjacency& a : topo.graph().neighbors(p)) {
    candidates.push_back(a.neighbor);
  }

  const DistanceRow row_p = topo.distance_row(p);
  std::int64_t base = 0;
  for (std::size_t i = csr.edge_begin(v); i < csr.edge_end(v); ++i) {
    base += csr.edge_weight[i] *
            row_p[placement[static_cast<std::size_t>(csr.neighbors[i])]];
  }

  int best = -1;
  std::int64_t best_gain = 0;
  for (const int q : candidates) {
    if (q == p) continue;
    const DistanceRow row_q = topo.distance_row(q);
    std::int64_t cost = 0;
    for (std::size_t i = csr.edge_begin(v); i < csr.edge_end(v); ++i) {
      cost += csr.edge_weight[i] *
              row_q[placement[static_cast<std::size_t>(csr.neighbors[i])]];
    }
    const std::int64_t gain = base - cost;
    // Strictly positive gain, ties to the lowest processor id; a
    // candidate listed twice can never displace itself.
    if (gain > best_gain || (gain == best_gain && best != -1 && q < best)) {
      best = q;
      best_gain = gain;
    }
  }
  return best;
}

// One level's boundary refinement. Each round proposes a move for
// every boundary task against the frozen placement, then commits the
// proposals through greedy_sweep in ascending task order: each is
// re-probed with the exact incremental delta and applied only when
// strictly improving.
long refine_level(const CsrTaskGraph& csr, IncrementalCompletion& inc,
                  const Topology& topo, int rounds,
                  const Deadline& deadline) {
  const int n = csr.num_vertices();
  long total_moves = 0;
  // proposal[v] is read only for the tasks in `movers`, which the
  // current round has just written.
  std::vector<int> proposal(static_cast<std::size_t>(n));
  std::vector<int> movers;
  std::vector<int> scratch;
  for (int round = 0; round < rounds; ++round) {
    if (deadline.passed()) break;
    const std::vector<int>& placement = inc.proc_of_task();

    std::int64_t boundary = 0;
    movers.clear();
    {
      trace::Span span("propose");
      for (int v = 0; v < n; ++v) {
        const int p = placement[static_cast<std::size_t>(v)];
        bool on_boundary = false;
        for (std::size_t i = csr.edge_begin(v); i < csr.edge_end(v); ++i) {
          if (placement[static_cast<std::size_t>(csr.neighbors[i])] != p) {
            on_boundary = true;
            break;
          }
        }
        if (!on_boundary) continue;
        ++boundary;
        const int q = propose_move(csr, topo, placement, v, scratch);
        if (q != -1) {
          proposal[static_cast<std::size_t>(v)] = q;
          movers.push_back(v);
        }
      }
    }
    if (boundary == 0) break;

    const SweepResult sweep = greedy_sweep(
        inc, movers,
        [&proposal](int v, int /*pass*/, std::vector<int>& out) {
          out.push_back(proposal[static_cast<std::size_t>(v)]);
        },
        /*load_bound=*/0, /*max_passes=*/1, deadline);
    trace::counter("boundary", boundary);
    trace::counter("moves", sweep.moves);
    total_moves += sweep.moves;
    if (sweep.moves == 0) break;
  }
  return total_moves;
}

}  // namespace

MapperReport map_multilevel(const TaskGraph& graph, const Topology& topo,
                            const MultilevelOptions& options) {
  if (graph.num_tasks() == 0) {
    throw MappingError("multilevel: empty task graph");
  }
  if (topo.num_procs() > 1 && topo.num_links() == 0) {
    throw MappingError("multilevel: topology has no links");
  }
  trace::Span span("multilevel");
  const Deadline deadline(options.time_budget_ms);
  const int num_procs = topo.num_procs();

  // 1. Coarsen until one super-task per processor (or a level cap /
  // stalled matching — an edgeless graph matches nothing).
  std::vector<Level> levels;
  levels.push_back({CsrTaskGraph::from_task_graph(graph), {}});
  const int max_levels = options.max_levels <= 0
                             ? std::numeric_limits<int>::max()
                             : options.max_levels;
  while (static_cast<int>(levels.size()) - 1 < max_levels) {
    const CsrTaskGraph& cur = levels.back().csr;
    if (cur.num_vertices() <= num_procs) break;
    trace::Span coarsen_span("coarsen#" + std::to_string(levels.size() - 1));
    CoarsenResult step = coarsen_heavy_edge(
        cur, options.seed + levels.size() - 1, num_procs);
    if (step.coarse.num_vertices() == cur.num_vertices()) break;
    trace::counter("vertices", step.coarse.num_vertices());
    trace::counter("edges", step.coarse.num_edges());
    trace::counter("internalized_volume", step.internalized_weight);
    levels.back().coarse_of_fine = std::move(step.coarse_of_fine);
    levels.push_back({std::move(step.coarse), {}});
  }

  // 2. Initial map of the coarsest graph with the seed machinery.
  std::vector<int> placement;
  const char* init_how = nullptr;
  {
    trace::Span init_span("initial_map");
    const CsrTaskGraph& coarsest = levels.back().csr;
    const int nc = coarsest.num_vertices();
    placement.assign(static_cast<std::size_t>(nc), 0);
    if (nc <= num_procs) {
      const Embedding embedding =
          nn_embed_seeded(coarsest.to_graph(), topo, options.seed);
      for (int c = 0; c < nc; ++c) {
        placement[static_cast<std::size_t>(c)] =
            embedding.proc_of_cluster[static_cast<std::size_t>(c)];
      }
      init_how = "NN-Embed";
    } else {
      // A level cap can leave more super-tasks than processors;
      // round-robin balances loads and refinement untangles the rest.
      for (int c = 0; c < nc; ++c) {
        placement[static_cast<std::size_t>(c)] = c % num_procs;
      }
      init_how = "round-robin";
    }
  }

  // 3. Uncoarsen level by level, refining at each resolution. Level k
  // and the projection onto it are freed once the finer placement is
  // projected, so the details line takes its counts now.
  const std::string shape =
      std::to_string(levels.size()) + " level(s), " +
      std::to_string(levels.front().csr.num_vertices()) + " -> " +
      std::to_string(levels.back().csr.num_vertices()) + " super-tasks";
  long total_moves = 0;
  Mapping mapping;
  for (int k = static_cast<int>(levels.size()) - 1; k >= 0; --k) {
    trace::Span level_span("level#" + std::to_string(k));
    trace::counter("vertices", levels[static_cast<std::size_t>(k)]
                                   .csr.num_vertices());
    if (k == 0) {
      // Finest level scores the *real* task graph (all phases, the
      // true phase expression), so the last sweeps optimise the exact
      // completion objective.
      std::vector<PhaseRouting> routing =
          route_greedy_shortest(graph, placement, topo);
      IncrementalCompletion inc(graph, topo, placement, std::move(routing));
      if (!deadline.passed()) {
        total_moves += refine_level(levels[0].csr, inc, topo,
                                    options.refine_rounds, deadline);
      }
      trace::counter("completion", inc.completion());
      mapping = mapping_from_placement(
          inc.proc_of_task(), std::move(inc).routing(), num_procs);
    } else {
      // Intermediate levels score the coarse aggregate (single folded
      // comm + exec phase) — same bottleneck structure, far fewer
      // vertices.
      const TaskGraph level_graph =
          levels[static_cast<std::size_t>(k)].csr.to_task_graph();
      std::vector<PhaseRouting> routing =
          route_greedy_shortest(level_graph, placement, topo);
      IncrementalCompletion inc(level_graph, topo, placement,
                                std::move(routing));
      if (!deadline.passed()) {
        total_moves += refine_level(levels[static_cast<std::size_t>(k)].csr,
                                    inc, topo, options.refine_rounds,
                                    deadline);
      }
      std::vector<std::int32_t>& projection =
          levels[static_cast<std::size_t>(k - 1)].coarse_of_fine;
      std::vector<int> fine(projection.size());
      for (std::size_t v = 0; v < fine.size(); ++v) {
        fine[v] = inc.proc_of_task()[static_cast<std::size_t>(projection[v])];
      }
      placement = std::move(fine);
      levels[static_cast<std::size_t>(k)] = Level{};
      projection = std::vector<std::int32_t>();
    }
  }

  MapperReport report;
  report.strategy = MapStrategy::Multilevel;
  report.details = "multilevel V-cycle: " + shape + "; coarsest map " +
                   init_how + "; " + std::to_string(total_moves) +
                   " refining moves";
  report.mapping = std::move(mapping);
  return report;
}

}  // namespace oregami
