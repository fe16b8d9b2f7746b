// Throughput/latency evidence for the mapping server: a mixed replay
// of the built-in program library (every catalog program on two
// topologies, heavy portfolio options, configurable repeat ratio)
// first against a cold result cache, then replayed against the warm
// one. Reports sustained mappings/sec and p50/p99 per-job latency for
// both phases, prints the comparison table, writes the "server_*"
// series into BENCH_server.json, then runs the google-benchmark
// micro timings (digest, cache lookup, one-job serve).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/result_cache.hpp"
#include "oregami/server/server.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/support/metrics.hpp"
#include "oregami/support/text_table.hpp"

namespace {

using namespace oregami;

/// One replay stream: every catalog program on both topologies (the
/// unique set), then repeats cycling through the unique set until
/// `total` lines. repeat ratio = 1 - unique/total.
std::string replay_stream(int total) {
  const auto catalog = larcs::programs::catalog();
  std::vector<std::string> unique;
  for (const auto& entry : catalog) {
    for (const char* topo : {"mesh:4x4", "ring:16"}) {
      std::string line = "\"program\":\"" + entry.name + "\",\"bind\":{";
      bool first = true;
      for (const auto& [name, value] : entry.example_bindings) {
        if (!first) {
          line += ',';
        }
        first = false;
        line += "\"" + name + "\":" + std::to_string(value);
      }
      // Portfolio + SA + HEFT: the compute-heavy service configuration,
      // so a replay measures mapping work, not JSON parsing.
      line += "},\"topology\":\"" + std::string(topo) +
              "\",\"options\":{\"portfolio\":4,\"anneal\":1,\"heft\":true}";
      unique.push_back(line);
    }
  }
  std::string stream;
  for (int i = 0; i < total; ++i) {
    stream += "{\"id\":" + std::to_string(i + 1) + "," +
              unique[static_cast<std::size_t>(i) % unique.size()] + "}\n";
  }
  return stream;
}

struct ReplayResult {
  double wall_s = 0.0;
  double mappings_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  server::ServerStats stats;
};

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

/// Runs the stream through serve() against `cache`, collecting wall
/// time and per-job latency (the wall_ms field of every result line).
ReplayResult replay(const std::string& stream, server::ResultCache& cache,
                    int jobs) {
  server::ServerOptions options;
  options.jobs = jobs;
  options.queue_capacity = 1 << 12;  // measure service time, not rejects
  options.cache = &cache;
  std::istringstream in(stream);
  std::ostringstream out;
  const auto start = std::chrono::steady_clock::now();
  ReplayResult r;
  r.stats = server::serve(in, out, options);
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  std::vector<double> latencies_ms;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto at = line.find("\"wall_ms\":");
    if (at != std::string::npos) {
      latencies_ms.push_back(std::strtod(line.c_str() + at + 10, nullptr));
    }
  }
  r.mappings_per_sec =
      r.wall_s > 0 ? static_cast<double>(r.stats.ok) / r.wall_s : 0.0;
  r.p50_ms = percentile(latencies_ms, 0.50);
  r.p99_ms = percentile(latencies_ms, 0.99);
  return r;
}

constexpr int kTotalJobs = 100;

void print_figures_and_json() {
  bench::print_header(
      "mapping server replay: library x {mesh:4x4, ring:16}, portfolio "
      "options, cold vs warm cache");

  const std::string stream = replay_stream(kTotalJobs);
  const auto unique =
      static_cast<int>(larcs::programs::catalog().size()) * 2;
  std::printf("%d jobs, %d unique (repeat ratio %.0f%%), 1 worker\n",
              kTotalJobs, unique,
              100.0 * (1.0 - static_cast<double>(unique) / kTotalJobs));

  server::ResultCache cache(1024, 8);
  const ReplayResult cold = replay(stream, cache, 1);
  const ReplayResult warm = replay(stream, cache, 1);

  TextTable table({"phase", "mappings/sec", "p50 (ms)", "p99 (ms)", "hits",
                   "misses"});
  const auto row = [&table](const char* phase, const ReplayResult& r) {
    char rate[32];
    char p50[32];
    char p99[32];
    std::snprintf(rate, sizeof(rate), "%.1f", r.mappings_per_sec);
    std::snprintf(p50, sizeof(p50), "%.3f", r.p50_ms);
    std::snprintf(p99, sizeof(p99), "%.3f", r.p99_ms);
    table.add_row({phase, rate, p50, p99, std::to_string(r.stats.cache_hits),
                   std::to_string(r.stats.cache_misses)});
  };
  row("cold", cold);
  row("warm", warm);
  std::printf("%s", table.to_string().c_str());
  const double speedup = cold.mappings_per_sec > 0
                             ? warm.mappings_per_sec / cold.mappings_per_sec
                             : 0.0;
  std::printf("warm/cold throughput: %.1fx\n", speedup);

  bench::JsonReport json("BENCH_server.json");
  json.load();
  json.add("server_cold_mappings_per_sec", cold.mappings_per_sec, "1/s");
  json.add("server_warm_mappings_per_sec", warm.mappings_per_sec, "1/s");
  json.add("server_cold_p50_ms", cold.p50_ms, "ms");
  json.add("server_cold_p99_ms", cold.p99_ms, "ms");
  json.add("server_warm_p50_ms", warm.p50_ms, "ms");
  json.add("server_warm_p99_ms", warm.p99_ms, "ms");
  json.add("server_warm_speedup", speedup, "x");
  json.add_counter("server_replay_jobs", kTotalJobs);
  json.add_counter("server_replay_unique", unique);
  json.add_counter("server_cold_cache_misses", cold.stats.cache_misses);
  json.add_counter("server_cold_cache_hits", cold.stats.cache_hits);
  json.add_counter("server_warm_cache_hits", warm.stats.cache_hits);
  json.add_counter("server_warm_cache_misses", warm.stats.cache_misses);
  json.write();
}

/// Telemetry overhead evidence: the warm replay (every job a cache
/// hit, so per-request overhead dominates) with the metrics registry
/// disabled vs enabled, plus single-site record costs. The enabled
/// warm replay carries every server metric site live -- counters,
/// gauges, and five histograms per job.
///
/// A warm hit takes microseconds, so one short replay is noisier than
/// the effect measured. Each pair replays 2000 warm lines once with
/// metrics off and once on, and the figure is the median of the pairs'
/// overheads with its quartiles.
void print_telemetry_figures() {
  bench::print_header(
      "telemetry overhead: warm replay, metrics disabled vs enabled");

  constexpr int kWarmLines = 2000;
  constexpr int kPairs = 11;
  const std::string stream = replay_stream(kWarmLines);
  server::ResultCache cache(1024, 8);
  metrics::disable();
  (void)replay(stream, cache, 1);  // prime the cache once, untimed
  server::server_metrics();  // register every series before timing
  metrics::reset_values();

  std::vector<double> base_rates;
  std::vector<double> telemetry_rates;
  std::vector<double> overheads_pct;
  for (int pair = 0; pair < kPairs; ++pair) {
    double rate[2] = {0.0, 0.0};  // [metrics off, metrics on]
    // Alternate which side goes first, so drift within a pair cancels.
    for (const int on : {pair % 2, 1 - pair % 2}) {
      if (on == 1) {
        metrics::enable();
      } else {
        metrics::disable();
      }
      rate[on] = replay(stream, cache, 1).mappings_per_sec;
    }
    metrics::disable();
    base_rates.push_back(rate[0]);
    telemetry_rates.push_back(rate[1]);
    overheads_pct.push_back(
        rate[0] > 0.0 ? 100.0 * (rate[0] - rate[1]) / rate[0] : 0.0);
  }
  const double base = percentile(base_rates, 0.50);
  const double telemetry = percentile(telemetry_rates, 0.50);
  const double overhead_pct = percentile(overheads_pct, 0.50);
  const double overhead_q1 = percentile(overheads_pct, 0.25);
  const double overhead_q3 = percentile(overheads_pct, 0.75);
  std::printf("warm replay (%d lines, median of %d off/on pairs): "
              "%.1f/s disabled, %.1f/s enabled (overhead %.2f%%, "
              "quartiles %.2f%% .. %.2f%%)\n",
              kWarmLines, kPairs, base, telemetry, overhead_pct,
              overhead_q1, overhead_q3);

  // Single-site costs, amortised over a tight loop.
  metrics::enable();
  metrics::Counter& counter = metrics::counter("bench_metrics_total");
  metrics::Histogram& hist = metrics::histogram("bench_metrics_us");
  counter.add(0);  // warm this thread's stripe assignment
  constexpr int kOps = 1 << 21;
  const auto time_ns_per_op = [](auto&& op) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) {
      op(i);
    }
    const auto wall =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start)
            .count();
    return wall / kOps;
  };
  const double counter_ns =
      time_ns_per_op([&](int) { counter.increment(); });
  const double histogram_ns =
      time_ns_per_op([&](int i) { hist.record(i & 1023); });
  metrics::disable();
  const double disabled_ns =
      time_ns_per_op([&](int i) { hist.record(i & 1023); });
  std::printf("record cost: counter %.1f ns, histogram %.1f ns, "
              "disabled site %.2f ns\n",
              counter_ns, histogram_ns, disabled_ns);

  bench::JsonReport json("BENCH_server.json");
  json.load();
  json.add("metrics_warm_base_mappings_per_sec", base, "1/s");
  json.add("metrics_warm_telemetry_mappings_per_sec", telemetry, "1/s");
  json.add("metrics_warm_overhead_pct", overhead_pct, "%");
  json.add("metrics_warm_overhead_q1_pct", overhead_q1, "%");
  json.add("metrics_warm_overhead_q3_pct", overhead_q3, "%");
  json.add("metrics_counter_add_ns", counter_ns, "ns");
  json.add("metrics_histogram_record_ns", histogram_ns, "ns");
  json.add("metrics_disabled_site_ns", disabled_ns, "ns");
  json.add_counter(
      "metrics_series_registered",
      static_cast<std::int64_t>(metrics::snapshot().series.size()));
  json.write();
}

// ------------------------------------------------- micro benchmarks

const larcs::programs::CatalogEntry& jacobi_entry() {
  return *larcs::programs::find("jacobi");
}

void BM_JobDigest(benchmark::State& state) {
  const auto& entry = jacobi_entry();
  const larcs::Program ast = larcs::parse_program(entry.source);
  const std::map<std::string, long> binds(entry.example_bindings.begin(),
                                          entry.example_bindings.end());
  const larcs::CompiledProgram compiled = larcs::compile(ast, binds);
  const Topology topo = parse_topology_spec("mesh:4x4");
  const MapperOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server::job_digest(compiled.graph, topo, options));
  }
}
BENCHMARK(BM_JobDigest);

void BM_CacheLookupHit(benchmark::State& state) {
  server::ResultCache cache(1024, 8);
  auto outcome = std::make_shared<server::CachedOutcome>();
  outcome->ok = true;
  cache.insert(0x12345678abcdefULL, outcome);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(0x12345678abcdefULL));
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_ServeOneJobWarm(benchmark::State& state) {
  // End-to-end cost of one fully-cached job: parse + compile + digest
  // + hit + format. The gap to BM_CacheLookupHit is the non-cacheable
  // per-request overhead.
  const std::string line =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";
  server::ResultCache cache(64, 4);
  server::ServerOptions options;
  options.cache = &cache;
  {
    std::istringstream in(line);
    std::ostringstream out;
    (void)server::serve(in, out, options);  // prime
  }
  for (auto _ : state) {
    std::istringstream in(line);
    std::ostringstream out;
    const auto stats = server::serve(in, out, options);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_ServeOneJobWarm);

}  // namespace

int main(int argc, char** argv) {
  print_figures_and_json();
  print_telemetry_figures();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
