// map_100k: the oregami_map CLI path without printing, as a closed loop
// of back-to-back maps. Each map is parse_program(torus_stencil) ->
// compile (r = c = 316, iters = 1: 99,856 tasks) ->
// parse_topology_spec("torus:64x64") -> map_program with the multilevel
// V-cycle (automatic depth, 2 workers) -> compute_metrics.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/core/csr_graph.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/support/error.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace oregami;

constexpr long kSide = 316;
constexpr const char* kTopology = "torus:64x64";
constexpr int kWorkers = 2;
/// Warm-up maps before timing; setup_s is their median.
constexpr int kSetupMaps = 3;
/// Measured maps per run, at least.
constexpr int kMinMaps = 5;
/// Traced and untraced maps per traced run, at least.
constexpr int kMinTracedMaps = 2;

/// The integer just before `suffix` in `text` (-1 when absent), e.g.
/// the level count in "multilevel V-cycle: 7 level(s), ...".
std::int64_t count_before(const std::string& text, const char* suffix) {
  const std::size_t at = text.find(suffix);
  if (at == std::string::npos) return -1;
  std::size_t begin = at;
  while (begin > 0 && text[begin - 1] >= '0' && text[begin - 1] <= '9') --begin;
  return begin == at ? -1 : std::atoll(text.c_str() + begin);
}

struct MapRun {
  double wall_s = 0.0;
  Counters counters;
};

template <class Fn>
decltype(auto) timed(SpanLog* log, const char* layer, Fn&& fn) {
  if (log == nullptr) return fn();
  return log->stage(layer, std::forward<Fn>(fn));
}

/// One map, timed end to end, then checked: validate_mapping passes and
/// a completion_time re-score equals the reported completion.
MapRun map_once(const std::string& source, SpanLog* log,
                std::vector<double>* csr_build_us) {
  const std::map<std::string, long> bindings = {
      {"r", kSide}, {"c", kSide}, {"iters", 1}};
  MapperOptions options;
  options.multilevel = -1;
  options.jobs = kWorkers;

  if (log != nullptr) log->begin_job(0);
  const Clock::time_point start = Clock::now();
  const larcs::Program ast =
      timed(log, "larcs.parse", [&] { return larcs::parse_program(source); });
  const larcs::CompiledProgram compiled = timed(
      log, "larcs.compile", [&] { return larcs::compile(ast, bindings); });
  const Topology topo = timed(log, "arch.topology_spec",
                              [&] { return parse_topology_spec(kTopology); });
  const MapperReport report = timed(log, "mapper.map", [&] {
    return map_program(ast, compiled, topo, options);
  });
  const MappingMetrics metrics = timed(log, "metrics.compute", [&] {
    return compute_metrics(compiled.graph, report.mapping, topo);
  });
  MapRun run;
  run.wall_s = seconds_between(start, Clock::now());
  if (log != nullptr) log->end_job();

  const TaskGraph& graph = compiled.graph;
  try {
    validate_mapping(report.mapping, graph, topo);
  } catch (const MappingError& e) {
    throw CheckError(std::string("map_100k: validate_mapping failed: ") +
                     e.what());
  }
  const std::int64_t rescored = completion_time(
      graph, report.mapping.proc_of_task(), report.mapping.routing, topo);
  check(rescored == metrics.completion,
        "map_100k: completion_time re-score " + std::to_string(rescored) +
            " differs from the reported completion " +
            std::to_string(metrics.completion));
  check(report.strategy == MapStrategy::Multilevel,
        "map_100k: the map did not take the multilevel path");
  if (csr_build_us != nullptr) {
    const Clock::time_point t0 = Clock::now();
    const CsrTaskGraph csr = CsrTaskGraph::from_task_graph(graph);
    csr_build_us->push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    check(csr.num_vertices() == graph.num_tasks(), "map_100k: CSR size");
  }
  run.counters = {
      {"tasks", graph.num_tasks()},
      {"levels", count_before(report.details, " level(s)")},
      {"moves", count_before(report.details, " refining moves")},
      {"completion", metrics.completion},
      {"max_load", metrics.load.max_exec},
      {"max_tasks_per_proc", metrics.load.max_tasks},
      {"total_ipc", metrics.total_ipc},
  };
  return run;
}

}  // namespace

RunResult run_map_100k(const Args& args) {
  const std::string source = [] {
    for (const auto& entry : larcs::programs::catalog()) {
      if (entry.name == "torus_stencil") return entry.source;
    }
    throw CheckError("map_100k: no torus_stencil in the catalog");
  }();
  std::printf("workload map_100k  seed %llu  seconds %d  trace %d\n",
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("  torus_stencil r=c=%ld iters=1 onto %s, multilevel auto "
              "depth, %d workers, closed loop (the seed does not change "
              "the input)\n",
              kSide, kTopology, kWorkers);

  // Set-up: warm-up maps, untimed for map_s, so allocator growth and lazy
  // first-use costs land here. Maps are timed in reference seconds
  // (harness.hpp); the report also prints the wall times.
  ReferenceTimer timer;
  MapRun warm;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  for (int r = 0; r < kSetupMaps; ++r) {
    MapRun run = map_once(source, nullptr, nullptr);
    if (r > 0) expect_same_counters(warm.counters, run.counters, "map_100k set-up");
    setup_s.push_back(timer.to_reference(run.wall_s));
    setup_wall_s.push_back(run.wall_s);
    warm = std::move(run);
  }
  print_counters("  exact-repeat counters (every map):", warm.counters);
  std::printf("  set-up x%d (warm-up maps): median %.4f reference s (wall "
              "%.4f s)\n",
              kSetupMaps, median(setup_s), median(setup_wall_s));

  RunResult result;
  result.attempted = kSetupMaps;
  const Clock::time_point loop_start = Clock::now();
  const auto elapsed = [&] { return seconds_between(loop_start, Clock::now()); };

  if (!args.trace) {
    std::vector<double> walls;
    std::vector<double> reference_s;
    while (walls.size() < kMinMaps || elapsed() < 0.85 * args.seconds) {
      const MapRun run = map_once(source, nullptr, nullptr);
      reference_s.push_back(timer.to_reference(run.wall_s));
      expect_same_counters(warm.counters, run.counters, "map_100k repeat");
      walls.push_back(run.wall_s);
    }
    result.attempted += static_cast<std::int64_t>(walls.size());
    double total = 0.0;
    for (const double w : walls) total += w;
    std::printf("  %zu maps in %.3f s of map time; per map (wall s):",
                walls.size(), total);
    for (const double w : walls) std::printf(" %.3f", w);
    std::printf("\n  host speed after each set-up and timed map:");
    for (const double v : timer.speeds()) std::printf(" %.2f", v);
    std::printf("\n");
    // One client in a closed loop: its throughput is 1 / map_s. p50_ms
    // and p99_ms (wall time; the slowest map, with far fewer than 1000
    // maps) are reported, not gated, as on the serve workloads.
    const double map_s = median(reference_s);
    std::printf("  map_s %.4f reference s; wall p50_ms %.3f p99_ms %.3f\n",
                map_s, 1000.0 * median(walls), 1000.0 * quantile(walls, 0.99));
    result.add("setup_s", median(setup_s), "s");
    result.add("capacity_maps_per_s", 1.0 / map_s, "1/s");
    result.add("map_s", map_s, "s");
    result.add("completion", static_cast<double>(warm.counters.at("completion")),
               "cost");
    result.add("max_load", static_cast<double>(warm.counters.at("max_load")),
               "cost");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // Traced run: untraced and traced maps alternate; the traced ones feed
  // the span log with the library's multilevel spans.
  SpanLog log;
  std::vector<trace::Event> events;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> coarsen_us;
  std::vector<double> initial_us;
  std::vector<double> refine_us;
  std::vector<double> csr_us;
  while (traced_s.size() < kMinTracedMaps || elapsed() < 0.85 * args.seconds) {
    const MapRun plain = map_once(source, nullptr, nullptr);
    expect_same_counters(warm.counters, plain.counters, "map_100k repeat");
    untraced_s.push_back(plain.wall_s);

    trace::clear();
    trace::enable();
    const MapRun traced = map_once(source, &log, &csr_us);
    trace::disable();
    expect_same_counters(warm.counters, traced.counters, "map_100k traced");
    traced_s.push_back(traced.wall_s);
    double coarsen = 0.0;
    double initial = 0.0;
    double refine = 0.0;
    for (trace::Event& e : trace::snapshot()) {
      if (e.kind != trace::Event::Kind::Span) continue;
      const std::string leaf = span_leaf(e.path);
      const bool top = e.path.rfind("multilevel/", 0) == 0 &&
                       e.path.find('/', 11) == std::string::npos;
      if (top && leaf == "coarsen") coarsen += static_cast<double>(e.dur_us);
      if (top && leaf == "initial_map") initial += static_cast<double>(e.dur_us);
      if (top && leaf == "level") refine += static_cast<double>(e.dur_us);
      events.push_back(std::move(e));
    }
    coarsen_us.push_back(coarsen);
    initial_us.push_back(initial);
    refine_us.push_back(refine);
  }
  trace::clear();
  result.attempted += static_cast<std::int64_t>(untraced_s.size() + traced_s.size());

  const LayerTable table(log, events,
                         {{"parse", "larcs.parse"},
                          {"lex", "larcs.parse"},
                          {"compile", "larcs.compile"},
                          {"", "mapper.map"}});
  table.print("  per-layer table (" + std::to_string(traced_s.size()) +
                  " traced maps, self time per layer):",
              log.job_total_us());
  const double overhead =
      100.0 * (median(traced_s) - median(untraced_s)) / median(untraced_s);
  std::printf("  tracing overhead: %.2f%% (median map %.3f s untraced, %.3f s "
              "traced)\n",
              overhead, median(untraced_s), median(traced_s));

  LayerMetrics layers;
  for (const auto& [metric, layer] : std::vector<std::pair<std::string, std::string>>{
           {"larcs.parse_us", "larcs.parse"},
           {"larcs.compile_us", "larcs.compile"},
           {"arch.topology_spec_us", "arch.topology_spec"},
           {"mapper.map_us", "mapper.map"},
           {"metrics.compute_us", "metrics.compute"},
       }) {
    layers.set(metric, table.p50_us(layer));
  }
  layers.set("mapper.map_calls", static_cast<double>(table.calls("mapper.map")));
  layers.set("core.csr_build_us", median(csr_us));
  layers.set("mapper.multilevel.coarsen_us", median(coarsen_us));
  layers.set("mapper.multilevel.initial_map_us", median(initial_us));
  layers.set("mapper.multilevel.refine_us", median(refine_us));
  layers.set("mapper.multilevel.levels",
             static_cast<double>(warm.counters.at("levels")));
  layers.set("mapper.multilevel.moves",
             static_cast<double>(warm.counters.at("moves")));
  layers.set("mapper.multilevel.max_tasks_per_proc",
             static_cast<double>(warm.counters.at("max_tasks_per_proc")));
  layers.set("trace.overhead_pct", overhead);
  layers.set("trace.accounted_share", table.accounted_us() / log.job_total_us());
  layers.emit(result);
  return result;
}

}  // namespace perfbench
