// Size-sweep evidence for the multilevel V-cycle mapper: 2D stencil
// task graphs of 1k / 10k / 100k tasks mapped onto torus:64x64,
// multilevel vs the flat baseline (seeded random placement + greedy
// routes + refine_placement). Prints the sweep table and merges the
// "multilevel_*" series into the shared BENCH_mapper.json, with the
// number of operator new calls each map_multilevel call makes as the
// "multilevel_<size>/operator_new" counter: unlike the wall time, it
// repeats exactly.
//
// The compile stage gets the same two figures: the LaRCS compiler
// expands torus_stencil (the map_100k program) at 10k tasks, with its
// median and interquartile compile time as "compile_<size>_time[_iqr]"
// and the operator new calls of one compile as
// "compile_<size>/operator_new".
//
// The 100k row takes minutes on the flat side (that is the point), so
// it only runs with OREGAMI_BENCH_FULL=1 in the environment, as do the
// 100k and 1M compile rows; the committed BENCH_mapper.json carries the
// full-sweep numbers, and JsonReport::load() keeps them when the smoke
// run refreshes the small rows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "oregami/core/csr_graph.hpp"
#include "oregami/core/synthetic.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/baselines.hpp"
#include "oregami/mapper/multilevel.hpp"
#include "oregami/mapper/refine.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/support/text_table.hpp"

namespace {
std::atomic<std::int64_t> g_operator_new_calls{0};
}  // namespace

// Counts every operator new in this binary (the array and nothrow forms
// call this one).
void* operator new(std::size_t size) {
  ++g_operator_new_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace {

using namespace oregami;

constexpr std::uint64_t kSeed = 0x5CA1EULL;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void run_size(const std::string& label, int rows, int cols,
              const Topology& topo, TextTable& table,
              bench::JsonReport& json) {
  const TaskGraph graph = make_stencil2d(rows, cols, kSeed);
  const int n = graph.num_tasks();

  // Multilevel V-cycle.
  const std::int64_t news_before = g_operator_new_calls.load();
  const auto t_ml = std::chrono::steady_clock::now();
  const MapperReport report = map_multilevel(graph, topo);
  const double ml_s = seconds_since(t_ml);
  const std::int64_t ml_news = g_operator_new_calls.load() - news_before;
  const std::vector<int> ml_procs = report.mapping.proc_of_task();
  const std::int64_t ml_completion =
      completion_time(graph, ml_procs, report.mapping.routing, topo);

  // Flat baseline: seeded random placement + greedy routes +
  // refine_placement (the PR-2 sweep, no coarsening).
  SplitMix64 rng(kSeed);
  std::vector<int> flat_procs(static_cast<std::size_t>(n));
  for (int& p : flat_procs) {
    p = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(topo.num_procs())));
  }
  const auto t_flat = std::chrono::steady_clock::now();
  const PlacementRefineResult flat = refine_placement(
      graph, topo, flat_procs, route_greedy_shortest(graph, flat_procs, topo));
  const double flat_s = seconds_since(t_flat);

  const double speedup = ml_s > 0.0 ? flat_s / ml_s : 0.0;
  char ml_ms[32];
  char flat_ms[32];
  char sp[32];
  std::snprintf(ml_ms, sizeof(ml_ms), "%.0f", ml_s * 1e3);
  std::snprintf(flat_ms, sizeof(flat_ms), "%.0f", flat_s * 1e3);
  std::snprintf(sp, sizeof(sp), "%.1fx", speedup);
  table.add_row({label, std::to_string(n), std::to_string(ml_completion),
                 ml_ms, std::to_string(ml_news),
                 std::to_string(flat.completion_after), flat_ms, sp});

  json.add("multilevel_" + label + "_completion_multilevel",
           static_cast<double>(ml_completion), "model");
  json.add("multilevel_" + label + "_time_multilevel", ml_s * 1e3, "ms");
  json.add("multilevel_" + label + "_completion_flat",
           static_cast<double>(flat.completion_after), "model");
  json.add("multilevel_" + label + "_time_flat", flat_s * 1e3, "ms");
  json.add("multilevel_" + label + "_speedup", speedup, "x");
  json.add_counter("multilevel_" + label + "/operator_new", ml_news);
}

/// Compiles torus_stencil at side x side tasks kCompileRepeats times
/// after one counted compile: the median and interquartile wall time,
/// and the operator new calls of the counted one.
void run_compile(const std::string& label, long side, TextTable& table,
                 bench::JsonReport& json) {
  constexpr int kCompileRepeats = 7;
  const larcs::Program ast =
      larcs::parse_program(larcs::programs::torus_stencil());
  const std::map<std::string, long> bindings = {
      {"r", side}, {"c", side}, {"iters", 1}};

  const std::int64_t news_before = g_operator_new_calls.load();
  int tasks = 0;
  {
    const larcs::CompiledProgram counted = larcs::compile(ast, bindings);
    tasks = counted.graph.num_tasks();
  }
  const std::int64_t news = g_operator_new_calls.load() - news_before;
  std::vector<double> ms;
  for (int i = 0; i < kCompileRepeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(larcs::compile(ast, bindings));
    ms.push_back(seconds_since(t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  // Quartiles of 7 sorted samples: positions 1, 3 and 5.
  const double median_ms = ms[3];
  const double iqr_ms = ms[5] - ms[1];
  char median[32];
  char iqr[32];
  std::snprintf(median, sizeof(median), "%.1f", median_ms);
  std::snprintf(iqr, sizeof(iqr), "%.1f", iqr_ms);
  table.add_row({label, std::to_string(tasks), median, iqr,
                 std::to_string(news)});
  json.add("compile_" + label + "_time", median_ms, "ms");
  json.add("compile_" + label + "_time_iqr", iqr_ms, "ms");
  json.add_counter("compile_" + label + "/operator_new", news);
}

void print_figures_and_json() {
  bench::print_header(
      "size sweep on torus:64x64: multilevel V-cycle vs flat "
      "refine_placement from random start");
  const Topology topo = Topology::torus(64, 64);
  bench::JsonReport json("BENCH_mapper.json");
  json.load();  // shared with the other mapper benches
  const char* full_env = std::getenv("OREGAMI_BENCH_FULL");
  const bool full = full_env != nullptr && full_env[0] == '1';

  TextTable table({"size", "tasks", "ml completion", "ml ms",
                   "ml operator new", "flat completion", "flat ms",
                   "speedup"});
  run_size("1k", 32, 32, topo, table, json);
  run_size("10k", 100, 100, topo, table, json);
  if (full) {
    run_size("100k", 316, 316, topo, table, json);
  } else {
    std::printf(
        "(100k row skipped; set OREGAMI_BENCH_FULL=1 to run the full "
        "sweep — the committed numbers stay in BENCH_mapper.json)\n");
  }
  std::printf("%s", table.to_string().c_str());

  bench::print_header("LaRCS compile of torus_stencil (r = c = side)");
  TextTable compile_table(
      {"size", "tasks", "median ms", "iqr ms", "operator new"});
  run_compile("10k", 100, compile_table, json);
  if (full) {
    run_compile("100k", 316, compile_table, json);
    run_compile("1M", 1000, compile_table, json);
  }
  std::printf("%s", compile_table.to_string().c_str());
  json.write();
}

void BM_Coarsen10k(benchmark::State& state) {
  const TaskGraph graph = make_stencil2d(100, 100, kSeed);
  const CsrTaskGraph csr = CsrTaskGraph::from_task_graph(graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coarsen_heavy_edge(csr, kSeed, 4096));
  }
}
BENCHMARK(BM_Coarsen10k);

void BM_Multilevel10kTorus64(benchmark::State& state) {
  const TaskGraph graph = make_stencil2d(100, 100, kSeed);
  const Topology topo = Topology::torus(64, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map_multilevel(graph, topo));
  }
}
BENCHMARK(BM_Multilevel10kTorus64);

}  // namespace

int main(int argc, char** argv) {
  print_figures_and_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
