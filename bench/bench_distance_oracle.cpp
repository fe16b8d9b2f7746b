// Perf evidence for the mapper hot-path work:
//
//   1. closed-form distance oracles vs the BFS-table path (a Custom
//      topology over the same link graph -- exactly what every family
//      paid before the oracles), cold all-pairs sweep at P >= 256;
//   2. incremental completion-model scoring vs full recompute on a
//      placement-refinement sweep;
//   3. NN-Embed end to end (the dominant distance-oracle consumer):
//      256 clusters on mesh:16x16, and C = P coarsened stencils on
//      torus:64x64, hypercube:12, ring:4096 and butterfly:8, each the
//      median and IQR of 7 runs plus its weighted dilation as a
//      counter.
//
// Prints the comparison tables, emits BENCH_mapper.json with the named
// timings, then runs the google-benchmark timings.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "oregami/arch/routes.hpp"
#include "oregami/arch/topology.hpp"
#include "oregami/core/csr_graph.hpp"
#include "oregami/core/synthetic.hpp"
#include "oregami/graph/shortest_paths.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/mapper/nn_embed.hpp"
#include "oregami/mapper/refine.hpp"
#include "oregami/metrics/incremental.hpp"
#include "oregami/support/text_table.hpp"

namespace {

using namespace oregami;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// All-pairs distance sweep through the oracle visitor; returns a
/// checksum so nothing is elided.
std::int64_t sweep_all_pairs(const Topology& topo) {
  return topo.with_oracle([&](const auto& dist) {
    std::int64_t sum = 0;
    const int p = topo.num_procs();
    for (int u = 0; u < p; ++u) {
      for (int v = 0; v < p; ++v) {
        sum += dist(u, v);
      }
    }
    return sum;
  });
}

struct OracleFigureRow {
  std::string family;
  int procs = 0;
  double oracle_s = 0.0;
  double bfs_s = 0.0;
  double speedup = 0.0;
};

/// Cold sweep cost of the pre-oracle path: a fresh Custom topology must
/// run one BFS per processor to build its table before answering.
OracleFigureRow compare_family(const Topology& topo) {
  OracleFigureRow row;
  row.family = topo.name();
  row.procs = topo.num_procs();

  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t oracle_sum = sweep_all_pairs(topo);
  row.oracle_s = seconds_since(t0);

  const Topology custom = Topology::custom("bfs-" + topo.name(),
                                           topo.graph());
  const auto t1 = std::chrono::steady_clock::now();
  const std::int64_t bfs_sum = sweep_all_pairs(custom);
  row.bfs_s = seconds_since(t1);

  if (oracle_sum != bfs_sum) {
    std::fprintf(stderr, "checksum mismatch on %s!\n", row.family.c_str());
  }
  row.speedup = row.oracle_s > 0 ? row.bfs_s / row.oracle_s : 0.0;
  return row;
}

/// The refinement workload (shared with bench_anneal): every (task,
/// candidate-processor) move of a full sweep, scored either
/// incrementally or from scratch.
using RefineWorkload = bench::MapperWorkload;

RefineWorkload make_refine_workload() { return bench::make_mapper_workload(); }

std::vector<std::pair<int, int>> sweep_moves(const RefineWorkload& w) {
  std::vector<std::pair<int, int>> moves;
  for (int t = 0; t < w.graph.num_tasks(); ++t) {
    const int here = w.procs[static_cast<std::size_t>(t)];
    for (const auto& a : w.topo.graph().neighbors(here)) {
      moves.emplace_back(t, a.neighbor);
    }
  }
  return moves;
}

std::int64_t score_sweep_incremental(
    const RefineWorkload& w, const std::vector<std::pair<int, int>>& moves) {
  IncrementalCompletion inc(w.graph, w.topo, w.procs, w.routing);
  std::int64_t sum = 0;
  for (const auto& [t, q] : moves) {
    sum += inc.delta_move(t, q);
  }
  return sum;
}

std::int64_t score_sweep_full(const RefineWorkload& w,
                              const std::vector<std::pair<int, int>>& moves) {
  // The pre-incremental cost of one probe: copy the placement, re-route
  // the task's incident edges, recompute the whole model.
  const std::int64_t base =
      completion_time(w.graph, w.procs, w.routing, w.topo);
  std::int64_t sum = 0;
  std::vector<int> procs = w.procs;
  std::vector<PhaseRouting> routing = w.routing;
  for (const auto& [t, q] : moves) {
    const int old = procs[static_cast<std::size_t>(t)];
    procs[static_cast<std::size_t>(t)] = q;
    std::vector<std::pair<std::size_t, std::size_t>> touched;
    for (std::size_t k = 0; k < w.graph.comm_phases().size(); ++k) {
      const auto& phase = w.graph.comm_phases()[k];
      for (std::size_t i = 0; i < phase.edges.size(); ++i) {
        const auto& e = phase.edges[i];
        if (e.src != t && e.dst != t) {
          continue;
        }
        touched.emplace_back(k, i);
        const int src = procs[static_cast<std::size_t>(e.src)];
        const int dst = procs[static_cast<std::size_t>(e.dst)];
        routing[k].route_of_edge[i] = greedy_shortest_route(w.topo, src, dst);
      }
    }
    sum += completion_time(w.graph, procs, routing, w.topo) - base;
    procs[static_cast<std::size_t>(t)] = old;
    for (const auto& [k, i] : touched) {
      routing[k].route_of_edge[i] = w.routing[k].route_of_edge[i];
    }
  }
  return sum;
}

/// Scattered cold-source queries: one query per distinct source, the
/// access pattern of NN-Embed candidate scans and refinement probes.
/// The legacy path paid one BFS per first-touched source row (the old
/// lazy per-row table); the oracle answers each in O(1).
struct ScatterFigureRow {
  double oracle_us = 0.0;
  double bfs_us = 0.0;
  double speedup = 0.0;
};

ScatterFigureRow compare_scattered(const Topology& topo) {
  const int p = topo.num_procs();
  SplitMix64 rng(0xACE5ULL);
  std::vector<std::pair<int, int>> queries;
  queries.reserve(static_cast<std::size_t>(p));
  for (int u = 0; u < p; ++u) {
    queries.emplace_back(
        u, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p))));
  }

  ScatterFigureRow row;
  const auto t0 = std::chrono::steady_clock::now();
  std::int64_t oracle_sum = 0;
  for (const auto& [u, v] : queries) {
    oracle_sum += topo.distance(u, v);
  }
  row.oracle_us = seconds_since(t0) * 1e6;

  const auto t1 = std::chrono::steady_clock::now();
  std::int64_t bfs_sum = 0;
  for (const auto& [u, v] : queries) {
    // Row cache miss every time: sources are distinct, exactly the
    // legacy lazy-row fill cost.
    const std::vector<int> dist = bfs_distances(topo.graph(), u);
    bfs_sum += dist[static_cast<std::size_t>(v)];
  }
  row.bfs_us = seconds_since(t1) * 1e6;
  if (oracle_sum != bfs_sum) {
    std::fprintf(stderr, "scattered checksum mismatch on %s!\n",
                 topo.name().c_str());
  }
  row.speedup = row.oracle_us > 0 ? row.bfs_us / row.oracle_us : 0.0;
  return row;
}

/// A 2-D stencil coarsened by heavy-edge matching down to exactly
/// `clusters` super-tasks: the graph shape the V-cycle hands NN-Embed.
Graph coarsened_stencil(int clusters) {
  const int side = static_cast<int>(std::ceil(std::sqrt(3.0 * clusters)));
  CsrTaskGraph g =
      CsrTaskGraph::from_task_graph(make_stencil2d(side, side, 0x5EEDULL));
  for (std::uint64_t seed = 1; g.num_vertices() > clusters; ++seed) {
    CoarsenResult step = coarsen_heavy_edge(g, seed, clusters);
    if (step.coarse.num_vertices() == g.num_vertices()) {
      break;
    }
    g = std::move(step.coarse);
  }
  return g.to_graph();
}

struct NnEmbedRow {
  double median_ms = 0.0;
  double iqr_ms = 0.0;  ///< third quartile minus first
  std::int64_t weighted_dilation = 0;
};

/// nn_embed timed over kNnEmbedRepeats runs after one warm-up.
NnEmbedRow time_nn_embed(const Graph& cluster, const Topology& topo) {
  constexpr int kNnEmbedRepeats = 7;
  const Embedding embedding = nn_embed(cluster, topo);  // warm-up
  std::vector<double> ms;
  for (int i = 0; i < kNnEmbedRepeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(nn_embed(cluster, topo));
    ms.push_back(seconds_since(t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  // Quartiles of 7 sorted samples: positions 1, 3 and 5.
  NnEmbedRow row;
  row.median_ms = ms[3];
  row.iqr_ms = ms[5] - ms[1];
  row.weighted_dilation = weighted_dilation(cluster, embedding, topo);
  return row;
}

void print_figures_and_json() {
  bench::print_header(
      "distance queries, cold scattered sources: oracle vs per-row BFS");
  bench::JsonReport json("BENCH_mapper.json");
  json.load();  // BENCH_mapper.json is shared with bench_anneal
  {
    TextTable scatter(
        {"network", "queries", "oracle (us)", "row BFS (us)", "speedup"});
    std::vector<Topology> scatter_targets;
    scatter_targets.push_back(Topology::mesh(16, 16));
    scatter_targets.push_back(Topology::torus(16, 16));
    scatter_targets.push_back(Topology::hypercube(8));
    scatter_targets.push_back(Topology::ring(256));
    for (const auto& topo : scatter_targets) {
      (void)compare_scattered(topo);  // warm-up
      const ScatterFigureRow row = compare_scattered(topo);
      char oracle_us[32];
      char bfs_us[32];
      char speedup[32];
      std::snprintf(oracle_us, sizeof(oracle_us), "%.1f", row.oracle_us);
      std::snprintf(bfs_us, sizeof(bfs_us), "%.1f", row.bfs_us);
      std::snprintf(speedup, sizeof(speedup), "%.0fx", row.speedup);
      scatter.add_row({topo.name(), std::to_string(topo.num_procs()),
                       oracle_us, bfs_us, speedup});
      json.add("cold_query_speedup_" + topo.name(), row.speedup, "x");
    }
    std::printf("%s", scatter.to_string().c_str());
  }

  bench::print_header(
      "all-pairs sweep incl. table build: closed form vs BFS table");

  std::vector<Topology> targets;
  targets.push_back(Topology::mesh(16, 16));
  targets.push_back(Topology::torus(16, 16));
  targets.push_back(Topology::hypercube(8));
  targets.push_back(Topology::ring(256));
  targets.push_back(Topology::complete_binary_tree(8));
  targets.push_back(Topology::butterfly(5));

  TextTable table(
      {"network", "procs", "oracle (ms)", "bfs table (ms)", "speedup"});
  for (const auto& topo : targets) {
    // Warm-up pass so first-touch noise does not pollute the timing.
    (void)compare_family(topo);
    const OracleFigureRow row = compare_family(topo);
    char oracle_ms[32];
    char bfs_ms[32];
    char speedup[32];
    std::snprintf(oracle_ms, sizeof(oracle_ms), "%.3f",
                  row.oracle_s * 1e3);
    std::snprintf(bfs_ms, sizeof(bfs_ms), "%.3f", row.bfs_s * 1e3);
    std::snprintf(speedup, sizeof(speedup), "%.1fx", row.speedup);
    table.add_row({row.family, std::to_string(row.procs), oracle_ms,
                   bfs_ms, speedup});
    json.add("distance_sweep_oracle_" + row.family, row.oracle_s * 1e3,
             "ms");
    json.add("distance_sweep_bfs_" + row.family, row.bfs_s * 1e3, "ms");
    json.add("distance_sweep_speedup_" + row.family, row.speedup, "x");
  }
  std::printf("%s", table.to_string().c_str());

  bench::print_header("refinement sweep: incremental vs full recompute");
  const RefineWorkload w = make_refine_workload();
  const auto moves = sweep_moves(w);
  (void)score_sweep_incremental(w, moves);  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t inc_sum = score_sweep_incremental(w, moves);
  const double inc_s = seconds_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  const std::int64_t full_sum = score_sweep_full(w, moves);
  const double full_s = seconds_since(t1);
  if (inc_sum != full_sum) {
    std::fprintf(stderr, "refinement checksum mismatch (%lld vs %lld)!\n",
                 static_cast<long long>(inc_sum),
                 static_cast<long long>(full_sum));
  }
  const double refine_speedup = inc_s > 0 ? full_s / inc_s : 0.0;
  std::printf(
      "%zu probes over %d tasks on %s:\n"
      "  incremental  %8.3f ms\n"
      "  full model   %8.3f ms\n"
      "  speedup      %8.1fx  (probe checksums agree: %s)\n",
      moves.size(), w.graph.num_tasks(), w.topo.name().c_str(),
      inc_s * 1e3, full_s * 1e3, refine_speedup,
      inc_sum == full_sum ? "yes" : "NO");
  json.add("refine_sweep_incremental", inc_s * 1e3, "ms");
  json.add("refine_sweep_full", full_s * 1e3, "ms");
  json.add("refine_sweep_speedup", refine_speedup, "x");
  // Workload shape snapshot: per-phase tracker state of the mapping the
  // sweep probes, so perf diffs can tell a slower code path from a
  // changed workload.
  json.add_phase_counters(
      "refine_sweep", w.graph,
      IncrementalCompletion(w.graph, w.topo, w.procs, w.routing));

  bench::print_header("NN-Embed end to end (oracle consumer)");
  TextTable nn_table({"series", "clusters", "procs", "median (ms)",
                      "IQR (ms)", "weighted dilation"});
  auto nn_row = [&](const std::string& series, const Graph& cluster,
                    const Topology& topo) {
    const NnEmbedRow row = time_nn_embed(cluster, topo);
    char median_ms[32];
    char iqr_ms[32];
    std::snprintf(median_ms, sizeof(median_ms), "%.2f", row.median_ms);
    std::snprintf(iqr_ms, sizeof(iqr_ms), "%.2f", row.iqr_ms);
    nn_table.add_row({series, std::to_string(cluster.num_vertices()),
                      std::to_string(topo.num_procs()), median_ms, iqr_ms,
                      std::to_string(row.weighted_dilation)});
    json.add(series, row.median_ms, "ms");
    json.add(series + "_iqr", row.iqr_ms, "ms");
    json.add_counter(series + "/weighted_dilation", row.weighted_dilation);
  };
  nn_row("nn_embed_256_mesh16x16",
         bench::random_task_graph(256, 0.05, 0xC0FFEEULL).aggregate_graph(),
         Topology::mesh(16, 16));
  // C = P: every processor taken, as at the V-cycle's coarsest level
  // (4096 super-tasks on torus:64x64 in the 100k map).
  for (const Topology& topo :
       {Topology::torus(64, 64), Topology::hypercube(12), Topology::ring(4096),
        Topology::butterfly(8)}) {
    nn_row("nn_embed_cp_" + topo.name(), coarsened_stencil(topo.num_procs()),
           topo);
  }
  std::printf("%s", nn_table.to_string().c_str());

  json.write();
}

void BM_OracleAllPairsMesh16(benchmark::State& state) {
  const Topology topo = Topology::mesh(16, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_all_pairs(topo));
  }
}
BENCHMARK(BM_OracleAllPairsMesh16);

void BM_BfsTableAllPairsMesh16(benchmark::State& state) {
  const Topology topo = Topology::mesh(16, 16);
  for (auto _ : state) {
    const Topology custom = Topology::custom("bfs", topo.graph());
    benchmark::DoNotOptimize(sweep_all_pairs(custom));
  }
}
BENCHMARK(BM_BfsTableAllPairsMesh16);

void BM_IncrementalRefineSweep(benchmark::State& state) {
  const RefineWorkload w = make_refine_workload();
  const auto moves = sweep_moves(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(score_sweep_incremental(w, moves));
  }
}
BENCHMARK(BM_IncrementalRefineSweep);

void BM_RefinePlacementMesh8x8(benchmark::State& state) {
  const RefineWorkload w = make_refine_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        refine_placement(w.graph, w.topo, w.procs, w.routing));
  }
}
BENCHMARK(BM_RefinePlacementMesh8x8);

}  // namespace

int main(int argc, char** argv) {
  print_figures_and_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
