// Experiment C7: the parallel portfolio mapper.
//
// Figure 1 -- quality: best-of-portfolio completion vs the single-shot
// Fig-3 pipeline over the whole LaRCS corpus (the portfolio always
// contains the single-shot candidate, so its completion can only match
// or improve).
//
// Figure 2 -- speedup: wall-clock of a 16-candidate portfolio at 1, 2,
// 4, and hardware_concurrency workers on the heaviest corpus entries.
// The candidates are byte-identical across worker counts, so any
// scaling is pure parallel win.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench_util.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/support/text_table.hpp"

namespace {

using namespace oregami;

struct Workload {
  std::string name;
  larcs::Program ast;
  larcs::CompiledProgram cp;
};

std::vector<Workload> corpus() {
  std::vector<Workload> result;
  for (const auto& entry : larcs::programs::catalog()) {
    std::map<std::string, long> bindings(entry.example_bindings.begin(),
                                         entry.example_bindings.end());
    larcs::Program ast = larcs::parse_program(entry.source);
    larcs::CompiledProgram cp = larcs::compile(ast, bindings);
    result.push_back({entry.name, std::move(ast), std::move(cp)});
  }
  return result;
}

void print_quality_figure() {
  bench::print_header(
      "C7a: portfolio (best of N) vs single-shot completion");
  TextTable table({"workload", "network", "single-shot", "portfolio",
                   "winner", "gain"});
  PortfolioOptions popts;
  popts.num_seeded = 12;
  popts.jobs = 0;
  for (const auto& w : corpus()) {
    for (const auto& topo :
         {Topology::hypercube(3), Topology::mesh(4, 4)}) {
      const auto single = map_program(w.ast, w.cp, topo);
      const auto single_completion =
          compute_metrics(w.cp.graph, single.mapping, topo).completion;
      const auto pf = portfolio_map_program(w.ast, w.cp, topo, {}, popts);
      const auto& best =
          pf.candidates[static_cast<std::size_t>(pf.best_id)];
      table.add_row(
          {w.name, topo.name(), std::to_string(single_completion),
           std::to_string(best.completion), best.label,
           format_fixed(single_completion == 0
                            ? 1.0
                            : static_cast<double>(single_completion) /
                                  static_cast<double>(std::max<std::int64_t>(
                                      1, best.completion)),
                        2)});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("(gain > 1.00 means the portfolio found a strictly better "
              "mapping; it can never be < 1.00 because candidate 0 is the "
              "single-shot pipeline)\n");
}

/// Heavy workloads for the speedup figure: candidate cost must dwarf
/// the pool's thread-spawn overhead for parallel scaling to be
/// visible, so these use production-scale bindings, not the corpus
/// defaults.
struct HeavyWorkload {
  const char* name;
  const char* program;
  std::map<std::string, long> bindings;
  Topology topo;
};

std::vector<HeavyWorkload> heavy_workloads() {
  std::vector<HeavyWorkload> result;
  result.push_back({"jacobi-1024", "jacobi",
                    {{"n", 32}, {"iters", 10}},
                    Topology::mesh(8, 8)});
  result.push_back({"nbody-255", "nbody",
                    {{"n", 255}, {"s", 2}, {"m", 8}},
                    Topology::hypercube(6)});
  result.push_back({"sor-576", "sor",
                    {{"n", 24}, {"iters", 10}},
                    Topology::mesh(8, 8)});
  return result;
}

larcs::Program parse_corpus(const char* program_name) {
  const auto* entry = larcs::programs::find(program_name);
  if (entry == nullptr) {
    throw std::runtime_error("unknown corpus program");
  }
  return larcs::parse_program(entry->source);
}

/// 16-candidate portfolio: 4 strategy/toggle candidates + 12 seeded
/// variants. Canned/systolic are disabled so every candidate pays the
/// full general-path cost -- the honest setting for a scaling figure.
PortfolioOptions speedup_options(int jobs) {
  PortfolioOptions popts;
  popts.num_seeded = 12;
  popts.jobs = jobs;
  return popts;
}

MapperOptions general_only() {
  MapperOptions base;
  base.allow_canned = false;
  base.allow_group = false;
  base.allow_systolic = false;
  return base;
}

void print_speedup_figure() {
  bench::print_header(
      "C7b: 16-candidate portfolio wall-clock vs worker count");
  std::printf("hardware_concurrency: %u (speedup saturates at the core "
              "count; expect ~1.0x throughout on a 1-core machine)\n",
              std::thread::hardware_concurrency());
  TextTable table({"workload", "tasks", "jobs=1", "jobs=2", "jobs=4",
                   "speedup@4"});
  for (const auto& w : heavy_workloads()) {
    const auto ast = parse_corpus(w.program);
    const auto cp = larcs::compile(ast, w.bindings);
    double wall_ms[3] = {0, 0, 0};
    const int jobs_of[3] = {1, 2, 4};
    for (int j = 0; j < 3; ++j) {
      const auto popts = speedup_options(jobs_of[j]);
      // One warmup (fills the topology distance cache), then the
      // median of 3 timed runs.
      (void)portfolio_map_program(ast, cp, w.topo, general_only(), popts);
      std::vector<double> runs;
      for (int r = 0; r < 3; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(
            portfolio_map_program(ast, cp, w.topo, general_only(), popts));
        const auto t1 = std::chrono::steady_clock::now();
        runs.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      std::sort(runs.begin(), runs.end());
      wall_ms[j] = runs[1];
    }
    table.add_row({w.name, std::to_string(cp.graph.num_tasks()),
                   format_fixed(wall_ms[0], 1) + " ms",
                   format_fixed(wall_ms[1], 1) + " ms",
                   format_fixed(wall_ms[2], 1) + " ms",
                   format_fixed(wall_ms[0] / std::max(0.001, wall_ms[2]),
                                2) + "x"});
  }
  std::fputs(table.to_string().c_str(), stdout);
}

void BM_Portfolio(benchmark::State& state, const HeavyWorkload& w,
                  int jobs) {
  const auto ast = parse_corpus(w.program);
  const auto cp = larcs::compile(ast, w.bindings);
  const auto popts = speedup_options(jobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        portfolio_map_program(ast, cp, w.topo, general_only(), popts));
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_quality_figure();
  print_speedup_figure();
  static const auto workloads = heavy_workloads();
  for (const auto& w : workloads) {
    for (const int jobs :
         {1, 2, 4,
          std::max(1, static_cast<int>(
                          std::thread::hardware_concurrency()))}) {
      ::benchmark::RegisterBenchmark(
          (std::string("BM_Portfolio/") + w.name + "/jobs:" +
           std::to_string(jobs))
              .c_str(),
          [&w, jobs](benchmark::State& state) {
            BM_Portfolio(state, w, jobs);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
