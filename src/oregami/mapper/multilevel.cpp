#include "oregami/mapper/multilevel.hpp"

#include <algorithm>
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

// propose_move's answer when no move gains.
constexpr int kNoMove = -1;

// Boundary-refinement rounds per level. Eight rounds end map_100k at
// the same completion as two.
constexpr int kRefineRounds = 2;

// Best strictly-gainful destination for `v` under the frozen
// `placement`, or kNoMove. Gain is the weighted-distance improvement of v's
// own incident edges (the same objective NN-Embed greedily optimises);
// the serial commit re-probes with the exact completion delta, so this
// only has to be a good filter, not a perfect score. Pure function of
// v's processor and its neighbours' processors (given csr and topo).
int propose_move(const CsrTaskGraph& csr, const Topology& topo,
                 const std::vector<int>& placement, int v,
                 std::vector<int>& procs) {
  const int p = placement[static_cast<std::size_t>(v)];
  // procs[i] is the processor of v's i-th neighbour, weight[i] the edge.
  procs.clear();
  for (std::size_t i = csr.edge_begin(v); i < csr.edge_end(v); ++i) {
    procs.push_back(placement[static_cast<std::size_t>(csr.neighbors[i])]);
  }
  const std::int64_t* weight = csr.edge_weight.data() + csr.edge_begin(v);

  return topo.with_oracle([&](const auto& dist) {
    // Weighted distance from processor `at` to v's neighbours.
    const auto cost_at = [&](int at) {
      std::int64_t cost = 0;
      for (std::size_t i = 0; i < procs.size(); ++i) {
        cost += weight[i] * dist(at, procs[i]);
      }
      return cost;
    };
    const std::int64_t base = cost_at(p);
    int best = kNoMove;
    std::int64_t best_gain = 0;
    // Strictly positive gain, ties to the lowest processor id: the
    // answer does not depend on the order of the candidates, so each
    // distinct one is scored once.
    const auto consider = [&](int q) {
      if (q == p) return;
      const std::int64_t gain = base - cost_at(q);
      if (gain > best_gain ||
          (gain == best_gain && best != kNoMove && q < best)) {
        best = q;
        best_gain = gain;
      }
    };
    // Candidates: the neighbours' processors, then p's network
    // neighbours that are not among them.
    for (auto it = procs.begin(); it != procs.end(); ++it) {
      if (std::find(procs.begin(), it, *it) == it) consider(*it);
    }
    for (const Adjacency& a : topo.graph().neighbors(p)) {
      if (std::find(procs.begin(), procs.end(), a.neighbor) == procs.end()) {
        consider(a.neighbor);
      }
    }
    return best;
  });
}

// One level's boundary refinement. Each round proposes a move for
// every boundary task against the frozen placement, then commits the
// proposals through greedy_sweep in ascending task order: each is
// re-probed with the exact incremental delta and applied only when
// strictly improving.
//
// A task's boundary flag and proposal depend only on its own processor
// and its neighbours' processors, so after the first round only the
// tasks that moved and their neighbours are proposed again; every other
// task keeps its flag and proposal from the round before. A proposer
// moved iff its processor now equals its proposal (the sweep moves it
// there or nowhere).
long refine_level(const CsrTaskGraph& csr, IncrementalCompletion& inc,
                  const Topology& topo, const Deadline& deadline) {
  const int n = csr.num_vertices();
  const std::vector<int>& placement = inc.proc_of_task();
  long total_moves = 0;
  // proposal[v] is v's destination, kNoMove when v is on the boundary
  // without a gainful move, or kInterior when v is off the boundary.
  // It is current for every task outside `stale`.
  constexpr int kInterior = -2;
  std::vector<int> proposal(static_cast<std::size_t>(n), kInterior);
  std::int64_t boundary = 0;
  std::int64_t proposed = 0;
  std::vector<int> scratch;
  // Re-derives v's proposal from the current placement.
  const auto refresh = [&](int v) {
    int& slot = proposal[static_cast<std::size_t>(v)];
    const int p = placement[static_cast<std::size_t>(v)];
    bool on_boundary = false;
    for (std::size_t i = csr.edge_begin(v); i < csr.edge_end(v); ++i) {
      if (placement[static_cast<std::size_t>(csr.neighbors[i])] != p) {
        on_boundary = true;
        break;
      }
    }
    boundary += static_cast<int>(on_boundary) -
                static_cast<int>(slot != kInterior);
    slot = kInterior;
    if (!on_boundary) return;
    ++proposed;
    slot = propose_move(csr, topo, placement, v, scratch);
  };
  std::vector<int> stale;
  std::vector<int> movers;
  for (int round = 0; round < kRefineRounds; ++round) {
    if (deadline.passed()) break;

    proposed = 0;
    {
      trace::Span span("propose");
      if (round == 0) {
        for (int v = 0; v < n; ++v) refresh(v);
      } else {
        for (const int v : stale) refresh(v);
      }
      movers.clear();
      for (int v = 0; v < n; ++v) {
        if (proposal[static_cast<std::size_t>(v)] >= 0) movers.push_back(v);
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
    trace::counter("proposed", proposed);
    trace::counter("probes", sweep.probes);
    trace::counter("moves", sweep.moves);
    total_moves += sweep.moves;
    if (sweep.moves == 0) break;

    stale.clear();
    for (const int v : movers) {
      if (placement[static_cast<std::size_t>(v)] !=
          proposal[static_cast<std::size_t>(v)]) {
        continue;
      }
      stale.push_back(v);
      for (std::size_t i = csr.edge_begin(v); i < csr.edge_end(v); ++i) {
        stale.push_back(csr.neighbors[i]);
      }
    }
    std::sort(stale.begin(), stale.end());
    stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
  }
  return total_moves;
}

}  // namespace

MapperReport map_multilevel(const TaskGraph& graph, const Topology& topo,
                            const MapperOptions& options) {
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
  const int max_levels = options.multilevel > 0
                             ? options.multilevel
                             : std::numeric_limits<int>::max();
  while (static_cast<int>(levels.size()) - 1 < max_levels) {
    const CsrTaskGraph& cur = levels.back().csr;
    if (cur.num_vertices() <= num_procs) break;
    trace::Span coarsen_span("coarsen#" + std::to_string(levels.size() - 1));
    CoarsenResult step = coarsen_heavy_edge(
        cur, options.portfolio_seed + levels.size() - 1, num_procs);
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
          nn_embed_seeded(coarsest.to_graph(), topo, options.portfolio_seed);
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
    Level& level = levels[static_cast<std::size_t>(k)];
    trace::counter("vertices", level.csr.num_vertices());
    // The finest level scores the *real* task graph (all phases, the
    // true phase expression), so the last sweeps optimise the exact
    // completion objective. A coarse level scores its aggregate (one
    // folded comm + exec phase): the same bottleneck structure, far
    // fewer vertices.
    const TaskGraph folded = k == 0 ? TaskGraph{} : level.csr.to_task_graph();
    const TaskGraph& level_graph = k == 0 ? graph : folded;
    std::vector<PhaseRouting> routing =
        route_greedy_shortest(level_graph, placement, topo);
    IncrementalCompletion inc(level_graph, topo, std::move(placement),
                              std::move(routing));
    if (!deadline.passed()) {
      total_moves += refine_level(level.csr, inc, topo, deadline);
    }
    if (k == 0) {
      trace::counter("completion", inc.completion());
      mapping = std::move(inc).mapping();
    } else {
      std::vector<std::int32_t>& projection =
          levels[static_cast<std::size_t>(k - 1)].coarse_of_fine;
      std::vector<int> fine(projection.size());
      for (std::size_t v = 0; v < fine.size(); ++v) {
        fine[v] = inc.proc_of_task()[static_cast<std::size_t>(projection[v])];
      }
      placement = std::move(fine);
      level = Level{};
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
