// The repository benchmark:
//
//   perfbench --workload serve_hits|serve_misses|map_100k --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a human-readable report, then, as the last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 runs the traced variant and
// reports the per-layer metrics. A failed output check prints no
// numbers and exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"server.wire.parse_us", "us"},
        {"server.wire.format_us", "us"},
        {"larcs.parse_us", "us"},
        {"larcs.compile_us", "us"},
        {"arch.topology_spec_us", "us"},
        {"server.digest_us", "us"},
        {"server.cache.lookup_us", "us"},
        {"server.cache.hit_ratio", "ratio"},
        {"server.cache.hits", "count"},
        {"server.cache.misses", "count"},
        {"server.cache.insert_us", "us"},
        {"server.cache.evictions", "count"},
        {"server.persist.append_us", "us"},
        {"server.persist.compactions", "count"},
        {"server.persist.compact_us", "us"},
        {"server.queue_wait_p50_us", "us"},
        {"server.queue_wait_p99_us", "us"},
        {"server.write_us", "us"},
        {"mapper.map_us", "us"},
        {"mapper.map_calls", "count"},
        {"metrics.score_us", "us"},
    };
    for (const char* family :
         {"canned", "group", "systolic", "general", "anneal", "heft"}) {
      m.emplace_back(std::string("mapper.portfolio.") + family + "_us", "us");
      m.emplace_back(std::string("mapper.portfolio.") + family + "_wins",
                     "count");
    }
    for (const auto& entry : std::vector<std::pair<std::string, std::string>>{
             {"mapper.contract_us", "us"},
             {"mapper.embed_us", "us"},
             {"mapper.route_us", "us"},
             {"core.csr_build_us", "us"},
             {"mapper.multilevel.coarsen_us", "us"},
             {"mapper.multilevel.levels", "count"},
             {"mapper.multilevel.max_tasks_per_proc", "count"},
             {"mapper.multilevel.initial_map_us", "us"},
             {"mapper.multilevel.refine_us", "us"},
             {"mapper.multilevel.moves", "count"},
             {"metrics.compute_us", "us"},
             {"gen.late_p99_ms", "ms"},
             {"trace.overhead_pct", "%"},
             {"trace.accounted_share", "ratio"},
         }) {
      m.push_back(entry);
    }
    return m;
  }();
  return kMetrics;
}

LayerMetrics::LayerMetrics() : values_(per_layer_metrics().size(), 0.0) {}

void LayerMetrics::set(const std::string& name, double value) {
  const auto& names = per_layer_metrics();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].first == name) {
      values_[i] = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void LayerMetrics::emit(RunResult& result) const {
  const auto& names = per_layer_metrics();
  for (std::size_t i = 0; i < names.size(); ++i) {
    result.add(names[i].first, values_[i], names[i].second);
  }
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_hits|serve_misses|map_100k --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (args.seconds < 1) usage("--seconds must be >= 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') usage("bad value for " + flag);
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.workload != "serve_hits" && args.workload != "serve_misses" &&
      args.workload != "map_100k") {
    usage("unknown workload " + args.workload);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  // Every return below ends the reference helper and waits for it.
  const perfbench::ReferenceHelper helper;
  perfbench::RunResult result;
  try {
    if (args.workload == "map_100k") {
      result = perfbench::run_map_100k(args);
    } else {
      result = perfbench::run_serve_workload(args, args.workload == "serve_hits");
    }
  } catch (const perfbench::CheckError& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.what());
    std::printf("%s\n", perfbench::RunResult{}.to_json(false).c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.to_json(true).c_str());
  return 0;
}
