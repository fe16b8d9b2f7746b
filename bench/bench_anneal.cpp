// Quality/time evidence for the extended candidate families: simulated
// annealing vs placement refinement vs the HEFT list scheduler vs the
// full portfolio, all on the shared 512-task mesh:16x16 workload of
// bench_distance_oracle, so the series line up point for point.
//
// Prints the comparison table, merges the "anneal_512_*" series into
// the shared BENCH_mapper.json, then runs the google-benchmark timings.
// The SA chain's operator new calls go in as the
// "anneal_512/operator_new" counter: unlike its wall time, the count
// repeats exactly.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "oregami/mapper/anneal.hpp"
#include "oregami/mapper/list_schedule.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/mapper/portfolio.hpp"
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

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

constexpr int kAnnealIterations = 20000;

void print_figures_and_json() {
  bench::print_header(
      "placement quality at 512 tasks on mesh:16x16: SA vs refine vs "
      "HEFT vs portfolio");
  const bench::MapperWorkload w = bench::make_mapper_workload();
  const std::int64_t init =
      completion_time(w.graph, w.procs, w.routing, w.topo);

  bench::JsonReport json("BENCH_mapper.json");
  json.load();  // shared with bench_distance_oracle
  TextTable table({"family", "completion", "vs init", "time (ms)"});
  const auto emit = [&](const std::string& family, std::int64_t completion,
                        double time_s) {
    char vs[32];
    char ms[32];
    std::snprintf(vs, sizeof(vs), "%+.1f%%",
                  100.0 * static_cast<double>(completion - init) /
                      static_cast<double>(init));
    std::snprintf(ms, sizeof(ms), "%.2f", time_s * 1e3);
    table.add_row({family, std::to_string(completion), vs, ms});
    json.add("anneal_512_completion_" + family,
             static_cast<double>(completion), "model");
    json.add("anneal_512_time_" + family, time_s * 1e3, "ms");
  };
  emit("init", init, 0.0);

  {
    const auto t0 = std::chrono::steady_clock::now();
    const PlacementRefineResult refined =
        refine_placement(w.graph, w.topo, w.procs, w.routing);
    emit("refine", refined.completion_after, seconds_since(t0));
  }
  {
    AnnealOptions opts;
    opts.iterations = kAnnealIterations;
    // Copy the start outside the counted window: the count is the
    // chain's own.
    std::vector<int> procs = w.procs;
    std::vector<PhaseRouting> routing = w.routing;
    const std::int64_t news_before = g_operator_new_calls.load();
    const auto t0 = std::chrono::steady_clock::now();
    const AnnealResult annealed = anneal_placement(
        w.graph, w.topo, std::move(procs), std::move(routing), opts);
    const double anneal_s = seconds_since(t0);
    const std::int64_t anneal_news =
        g_operator_new_calls.load() - news_before;
    emit("anneal", annealed.completion_after, anneal_s);
    json.add_counter("anneal_512/operator_new", anneal_news);
    json.add_counter("anneal_512/proposed", annealed.proposed);
    json.add_counter("anneal_512/accepted", annealed.accepted);
    json.add_counter("anneal_512/uphill", annealed.uphill);
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    const ListScheduleResult heft = list_schedule(w.graph, w.topo);
    const auto routing = mm_route(w.graph, heft.proc_of_task, w.topo);
    emit("heft",
         completion_time(w.graph, heft.proc_of_task, routing, w.topo),
         seconds_since(t0));
  }
  {
    PortfolioOptions popts;
    popts.num_seeded = 2;
    popts.num_anneal = 2;
    popts.anneal_iterations = kAnnealIterations;
    popts.heft = true;
    const auto t0 = std::chrono::steady_clock::now();
    const auto result =
        portfolio_map_computation(w.graph, w.topo, {}, popts);
    emit("portfolio",
         result.candidates[static_cast<std::size_t>(result.best_id)]
             .completion,
         seconds_since(t0));
  }

  std::printf("%s", table.to_string().c_str());
  json.write();
}

void BM_Anneal512Mesh16x16(benchmark::State& state) {
  const bench::MapperWorkload w = bench::make_mapper_workload();
  AnnealOptions opts;
  opts.iterations = 2000;  // short chain: the timing unit, not quality
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        anneal_placement(w.graph, w.topo, w.procs, w.routing, opts));
  }
}
BENCHMARK(BM_Anneal512Mesh16x16);

void BM_ListSchedule512Mesh16x16(benchmark::State& state) {
  const bench::MapperWorkload w = bench::make_mapper_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(list_schedule(w.graph, w.topo));
  }
}
BENCHMARK(BM_ListSchedule512Mesh16x16);

}  // namespace

int main(int argc, char** argv) {
  print_figures_and_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
