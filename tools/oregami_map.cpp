// oregami_map -- command-line front end for the OREGAMI pipeline.
//
//   oregami_map --program nbody --bind n=15 --bind s=4 --bind m=8
//               --topology hypercube:3 --ascii --links
//   oregami_map --larcs samples/jacobi.larcs --bind n=8 --bind iters=10
//               --topology mesh:4x4 --simulate --directives
//   oregami_map --program wavefront --bind n=6 --topology mesh:4x4
//               --inject-faults p5,s2:4 --repair
//   oregami_map --list-programs
//
// Outputs the MAPPER strategy, the METRICS summary, and optionally the
// assignment layout (--ascii), per-link tables (--links), Graphviz DOT
// (--dot), the discrete-event simulation cross-check (--simulate) and
// per-processor scheduling directives (--directives).
//
// Exit codes (stable; scripted callers rely on them):
//   0  success
//   1  internal error (a bug in oregami_map, not in the input)
//   2  usage error (bad flags / missing required arguments)
//   3  bad input (unreadable file, malformed LaRCS source, bad
//      topology or fault spec, unknown program)
//   4  mapping infeasible (the pipeline or repair could not produce a
//      valid mapping for these inputs)
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/mapper/repair.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/metrics/render.hpp"
#include "oregami/schedule/synchrony.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/persist.hpp"
#include "oregami/sim/network_sim.hpp"
#include "oregami/support/deadline.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/hash.hpp"
#include "oregami/support/metrics.hpp"
#include "oregami/support/trace.hpp"

namespace {

using namespace oregami;

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBadInput = 3;
constexpr int kExitInfeasible = 4;

struct Options {
  std::optional<std::string> larcs_file;
  std::optional<std::string> program_name;
  std::map<std::string, long> bindings;
  std::optional<std::string> topology_spec;
  bool list_programs = false;
  bool ascii = false;
  bool dot = false;
  bool links = false;
  bool simulate_flag = false;
  bool directives = false;
  std::optional<std::string> fault_spec;
  std::uint64_t fault_seed = 0;
  bool repair = false;
  std::optional<std::string> trace_file;
  bool trace_summary = false;
  bool explain = false;
  bool pareto = false;
  bool digest = false;
  std::optional<std::string> cache_file;
  std::optional<std::string> metrics_file;
  MapperOptions mapper;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --program NAME         pick a built-in LaRCS program\n"
      << "  --larcs FILE           read a LaRCS source file\n"
      << "  --bind NAME=VALUE      bind an algorithm parameter/import\n"
      << "  --topology SPEC        target architecture\n"
      << "  --list-programs        list the built-in corpus and exit\n"
      << "  --ascii                print the placement layout\n"
      << "  --links                print per-phase link tables\n"
      << "  --dot                  print Graphviz DOT of the task graph\n"
      << "  --simulate             run the discrete-event cross-check\n"
      << "  --directives           print per-processor schedules\n"
      << "  --no-canned | --no-group | --no-systolic\n"
      << "                         disable a MAPPER strategy\n"
      << "  --refine-placement     hill-climb the final placement on the\n"
      << "                         completion model (incremental scoring)\n"
      << "  --portfolio N          portfolio mode: run every admissible\n"
      << "                         strategy plus N seeded general variants\n"
      << "                         and keep the best (prints the table)\n"
      << "  --jobs J               portfolio worker threads (0 = all\n"
      << "                         cores); never changes the result\n"
      << "  --seed S               base seed of the portfolio candidates\n"
      << "                         and of the multilevel V-cycle\n"
      << "  --anneal N             add N seeded simulated-annealing\n"
      << "                         candidates to the portfolio; requires\n"
      << "                         --portfolio\n"
      << "  --heft                 add the HEFT critical-path list-schedule\n"
      << "                         candidate to the portfolio; requires\n"
      << "                         --portfolio\n"
      << "  --pareto               print the Pareto front over (completion,\n"
      << "                         external IPC, max exec load) instead of\n"
      << "                         only the scalar winner; requires\n"
      << "                         --portfolio\n"
      << "  --multilevel [LEVELS]  map with the multilevel V-cycle\n"
      << "                         (coarsen / map / refine; built for\n"
      << "                         10k+ task graphs). LEVELS caps the\n"
      << "                         coarsening depth (1..64); omit it for\n"
      << "                         automatic depth. Incompatible with\n"
      << "                         --portfolio\n"
      << "  --time-budget MS       wall-clock deadline in milliseconds for\n"
      << "                         portfolio search, multilevel refinement\n"
      << "                         and repair (0 = none)\n"
      << "  --inject-faults SPEC   degrade the machine before mapping;\n"
      << "                         " << FaultSpec::grammar_help() << "\n"
      << "  --fault-seed S         seed for rand:PxLxS fault tokens\n"
      << "  --repair               map the healthy machine first, then\n"
      << "                         repair the mapping onto the degraded\n"
      << "                         one (prints both completions)\n"
      << "  --trace FILE           record a structured pipeline trace and\n"
      << "                         write Chrome trace-event JSON to FILE\n"
      << "                         (load in Perfetto / chrome://tracing)\n"
      << "  --trace-summary        print an ASCII span tree with\n"
      << "                         inclusive/exclusive times and counters\n"
      << "  --explain              print the decision-provenance report\n"
      << "                         (why the portfolio winner won, with the\n"
      << "                         per-phase cost breakdown); requires\n"
      << "                         --portfolio\n"
      << "  --digest               print the canonical content digest of\n"
      << "                         (program, topology, options) -- the\n"
      << "                         mapping server's cache key -- and exit\n"
      << "                         without mapping\n"
      << "  --cache-file PATH      inspect a mapping-server cache file:\n"
      << "                         print the recovery report and one line\n"
      << "                         per valid entry (sorted by digest),\n"
      << "                         then exit without mapping\n"
      << "  --metrics-file PATH    one-shot dump of the metrics registry\n"
      << "                         (Prometheus text exposition) after the\n"
      << "                         run\n"
      << topology_spec_help() << "\n"
      << "exit codes: 0 ok, 1 internal error, 2 usage, 3 bad input, "
         "4 mapping infeasible\n";
  return kExitUsage;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs an argument\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    if (arg == "--program") {
      if (auto v = next()) {
        options.program_name = *v;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--larcs") {
      if (auto v = next()) {
        options.larcs_file = *v;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--bind") {
      const auto v = next();
      if (!v) {
        return std::nullopt;
      }
      const auto eq = v->find('=');
      if (eq == std::string::npos) {
        std::cerr << "--bind expects NAME=VALUE, got '" << *v << "'\n";
        return std::nullopt;
      }
      try {
        options.bindings[v->substr(0, eq)] = std::stol(v->substr(eq + 1));
      } catch (const std::exception&) {
        std::cerr << "bad --bind value in '" << *v << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--topology") {
      if (auto v = next()) {
        options.topology_spec = *v;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--inject-faults") {
      if (auto v = next()) {
        options.fault_spec = *v;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--list-programs") {
      options.list_programs = true;
    } else if (arg == "--ascii") {
      options.ascii = true;
    } else if (arg == "--dot") {
      options.dot = true;
    } else if (arg == "--links") {
      options.links = true;
    } else if (arg == "--simulate") {
      options.simulate_flag = true;
    } else if (arg == "--directives") {
      options.directives = true;
    } else if (arg == "--repair") {
      options.repair = true;
    } else if (arg == "--no-canned") {
      options.mapper.allow_canned = false;
    } else if (arg == "--no-group") {
      options.mapper.allow_group = false;
    } else if (arg == "--no-systolic") {
      options.mapper.allow_systolic = false;
    } else if (arg == "--refine-placement") {
      options.mapper.refine_placement = true;
    } else if (arg == "--trace") {
      if (auto v = next()) {
        options.trace_file = *v;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--trace-summary") {
      options.trace_summary = true;
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--digest") {
      options.digest = true;
    } else if (arg == "--cache-file") {
      if (auto v = next()) {
        options.cache_file = *v;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--metrics-file") {
      if (auto v = next()) {
        options.metrics_file = *v;
      } else {
        return std::nullopt;
      }
    } else if (arg == "--heft") {
      options.mapper.heft = true;
    } else if (arg == "--multilevel") {
      // The level cap is optional: consume the next token only when it
      // parses fully as an integer, so "--multilevel --ascii" works.
      options.mapper.multilevel = -1;  // auto depth
      if (i + 1 < argc) {
        const std::string peek = argv[i + 1];
        std::size_t pos = 0;
        int levels = 0;
        try {
          levels = std::stoi(peek, &pos);
        } catch (const std::exception&) {
          pos = 0;
        }
        if (pos == peek.size() && !peek.empty()) {
          ++i;
          if (levels < 1 || levels > 64) {
            std::cerr << "--multilevel expects 1 <= LEVELS <= 64, got '"
                      << peek << "'\n";
            return std::nullopt;
          }
          options.mapper.multilevel = levels;
        }
      }
    } else if (arg == "--pareto") {
      options.pareto = true;
    } else if (arg == "--portfolio" || arg == "--anneal" || arg == "--jobs" ||
               arg == "--seed" || arg == "--fault-seed" ||
               arg == "--time-budget") {
      const auto v = next();
      if (!v) {
        return std::nullopt;
      }
      try {
        if (arg == "--portfolio") {
          options.mapper.portfolio = std::stoi(*v);
        } else if (arg == "--anneal") {
          options.mapper.anneal = std::stoi(*v);
        } else if (arg == "--jobs") {
          options.mapper.jobs = std::stoi(*v);
        } else if (arg == "--seed") {
          options.mapper.portfolio_seed = std::stoull(*v);
        } else if (arg == "--fault-seed") {
          options.fault_seed = std::stoull(*v);
        } else {
          options.mapper.time_budget_ms = std::stoll(*v);
        }
      } catch (const std::exception&) {
        std::cerr << "bad " << arg << " value '" << *v << "'\n";
        return std::nullopt;
      }
      if (arg == "--time-budget" && (options.mapper.time_budget_ms < 0 ||
                                     options.mapper.time_budget_ms >
                                         kMaxBudgetMs)) {
        std::cerr << "--time-budget expects 0 <= MS <= " << kMaxBudgetMs
                  << " (0 = none)\n";
        return std::nullopt;
      }
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return std::nullopt;
    }
  }
  const std::string violation = option_violation(options.mapper, "--");
  if (!violation.empty()) {
    std::cerr << violation << "\n";
    return std::nullopt;
  }
  return options;
}

/// Maps, measures, and prints. Only MappingError (= the pipeline could
/// not produce a mapping for these inputs) escapes classification here.
int map_and_report(const Options& options, const larcs::Program& ast,
                   const larcs::CompiledProgram& compiled,
                   const Topology& topo,
                   const std::optional<FaultedTopology>& faulted) {
  try {
    MapperOptions mapper = options.mapper;
    // Degraded-mode mapping (no --repair): run the pipeline directly
    // on the healthy sub-machine.
    if (faulted && !options.repair) {
      mapper.faults = &*faulted;
    }
    PortfolioReport portfolio;
    MapperReport report = map_program(ast, compiled, topo, mapper, &portfolio);
    const auto& graph = compiled.graph;

    std::cout << "algorithm: " << ast.name << "  (" << graph.num_tasks()
              << " tasks, " << graph.num_comm_edges() << " comm edges)\n"
              << "network:   " << topo.name() << "  (" << topo.num_procs()
              << " processors, " << topo.num_links() << " links)\n";
    if (faulted) {
      std::cout << "faults:    " << faulted->spec().to_string() << "  ("
                << faulted->healthy_procs().size() << "/"
                << topo.num_procs() << " processors healthy, "
                << faulted->num_alive_links() << "/" << topo.num_links()
                << " links alive)\n";
    }
    std::cout << "strategy:  " << to_string(report.strategy) << "\n"
              << "           " << report.details << "\n\n";
    if (portfolio.best_id >= 0) {
      // The timed table: wall-ms columns, with skipped candidates
      // showing the elapsed time at the cut-off.
      std::cout << (options.explain
                        ? portfolio.explain()
                        : "portfolio candidates:\n" + portfolio.timed_table())
                << "\n";
      if (options.pareto) {
        std::cout << portfolio.pareto() << "\n";
      }
    }

    // Repair path: the mapping above is the healthy one; repair it onto
    // the degraded machine and print both completions side by side.
    if (faulted && options.repair) {
      RepairOptions ropts;
      ropts.remap_options = options.mapper;
      ropts.remap_options.faults = nullptr;
      const RepairResult repaired =
          repair_mapping(graph, *faulted, report.mapping, ropts);
      std::cout << "repair:    rung " << to_string(repaired.rung) << "; "
                << repaired.details << "\n"
                << "           healthy completion:  "
                << repaired.healthy_completion << "\n"
                << "           degraded completion: "
                << repaired.degraded_completion << "\n";
      for (const RepairMove& move : repaired.migrations) {
        std::cout << "           task " << move.task << ": proc "
                  << move.from_proc << " -> " << move.to_proc << "\n";
      }
      std::cout << "\n";
      report.mapping = repaired.mapping;
    }

    // In repair mode these metrics describe the repaired mapping (the
    // degraded-completion line above charges the slow links on top).
    const auto metrics = compute_metrics(graph, report.mapping, topo);
    const std::vector<int>& procs = report.mapping.proc_of_task();
    std::cout << render_summary(metrics) << "\n";
    if (faulted && !options.repair) {
      std::cout << "degraded completion (slow links charged): "
                << degraded_completion_time(graph, procs,
                                            report.mapping.routing,
                                            *faulted)
                << "\n\n";
    }

    if (options.ascii) {
      std::cout << "placement:\n"
                << render_ascii_layout(graph, procs, topo) << "\n";
    }
    if (options.links) {
      std::cout << render_link_table(metrics, topo) << "\n";
    }
    if (options.simulate_flag) {
      SimConfig sim_config;
      if (faulted) {
        sim_config.faults = &*faulted;
      }
      const SimResult sim = simulate(graph, procs, report.mapping.routing,
                                     topo, sim_config);
      std::cout << "discrete-event simulation: " << sim.total_cycles
                << " cycles (analytic model: " << metrics.completion
                << ")\n\n";
    }
    if (options.directives) {
      const auto schedule =
          derive_synchrony_sets(graph, procs, topo.num_procs());
      std::cout << "per-processor scheduling directives:\n";
      for (int p = 0; p < topo.num_procs(); ++p) {
        std::cout << "  proc " << p << ": "
                  << local_directive(graph, schedule, p) << "\n";
      }
      std::cout << "\n";
    }
    if (options.dot) {
      std::cout << render_task_graph_dot(graph);
    }
    return kExitOk;
  } catch (const MappingError& e) {
    std::cerr << "error: mapping infeasible: " << e.what() << "\n";
    return kExitInfeasible;
  }
}

/// The --cache-file inspection mode: recover PATH exactly like the
/// daemon would and print what a warm boot would serve. Deterministic
/// output (entries sorted by digest), so two cache files can be
/// diffed.
int inspect_cache_file(const std::string& path) {
  // Big enough that inspection never evicts what the file holds.
  server::ResultCache cache(1 << 20, 1);
  const server::RecoveryStats stats = server::recover_cache_file(path, cache);
  if (stats.missing) {
    std::cerr << "error: cannot open cache file '" << path << "'\n";
    return kExitBadInput;
  }
  std::cout << "cache-file " << path << ": " << stats.to_string() << "\n";
  for (const auto& [digest, outcome] : cache.snapshot_entries()) {
    std::cout << digest_hex(digest) << "  ";
    if (outcome->ok) {
      std::cout << "ok     strategy=" << outcome->strategy
                << " completion=" << outcome->completion
                << " external_ipc=" << outcome->external_ipc
                << " max_load=" << outcome->max_load
                << " tasks=" << outcome->proc_of_task.size()
                << " procs=" << outcome->num_procs;
    } else {
      std::cout << "error  code=" << outcome->error_code << " \""
                << outcome->error << "\"";
    }
    std::cout << "\n";
  }
  return kExitOk;
}

int run(const Options& options) {
  // Input stage: everything that can fail here is the user's input, not
  // the pipeline -- unreadable files, unknown programs, malformed LaRCS
  // source, bad topology/fault specs.
  std::string source;
  if (options.larcs_file) {
    std::ifstream in(*options.larcs_file);
    if (!in) {
      std::cerr << "error: cannot open '" << *options.larcs_file << "'\n";
      return kExitBadInput;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  } else {
    const auto* entry = larcs::programs::find(*options.program_name);
    if (entry == nullptr) {
      std::cerr << "error: unknown program '" << *options.program_name
                << "' (see --list-programs)\n";
      return kExitBadInput;
    }
    source = entry->source;
  }

  try {
    const auto ast = larcs::parse_program(source);
    const auto compiled = larcs::compile(ast, options.bindings);
    const Topology topo = parse_topology_spec(*options.topology_spec);
    std::optional<FaultedTopology> faulted;
    if (options.fault_spec) {
      faulted.emplace(topo, FaultSpec::parse(*options.fault_spec, topo,
                                             options.fault_seed));
    }
    if (options.digest) {
      // Print the mapping server's cache key for these inputs (used to
      // pre-warm a server or debug why two requests don't share an
      // entry) and skip the mapping itself.
      MapperOptions mapper = options.mapper;
      if (faulted && !options.repair) {
        mapper.faults = &*faulted;
      }
      std::cout << "digest: "
                << digest_hex(
                       server::job_digest(compiled.graph, topo, mapper))
                << "\n";
      return kExitOk;
    }
    return map_and_report(options, ast, compiled, topo, faulted);
  } catch (const LarcsError& e) {
    std::cerr << "error: " << e.loc().to_string() << ": " << e.what()
              << "\n";
    return kExitBadInput;
  } catch (const MappingError& e) {
    // Reaching here means a bad topology or fault spec (the mapping
    // stage classifies its own MappingErrors as exit code 4).
    std::cerr << "error: " << e.what() << "\n";
    return kExitBadInput;
  }
}

/// Flushes the tracer after the pipeline ran (success or not): Chrome
/// trace-event JSON to --trace FILE, ASCII span tree to stdout for
/// --trace-summary. Never changes the exit code.
void emit_trace(const Options& options) {
  if (!options.trace_file && !options.trace_summary) {
    return;
  }
  trace::disable();
  const auto events = trace::snapshot();
  if (options.trace_file) {
    std::ofstream out(*options.trace_file);
    if (!out) {
      std::cerr << "warning: cannot write trace to '" << *options.trace_file
                << "'\n";
    } else {
      trace::write_chrome_json(out, events);
    }
  }
  if (options.trace_summary) {
    std::cout << trace::summary_tree(events);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto parsed = parse_args(argc, argv);
    if (!parsed) {
      return usage(argv[0]);
    }
    const Options& options = *parsed;

    if (options.list_programs) {
      for (const auto& entry : larcs::programs::catalog()) {
        std::string binds;
        for (const auto& [name, value] : entry.example_bindings) {
          binds += " --bind " + name + "=" + std::to_string(value);
        }
        std::cout << entry.name << binds << "\n";
      }
      return kExitOk;
    }
    if (options.cache_file) {
      return inspect_cache_file(*options.cache_file);
    }
    if ((!options.larcs_file && !options.program_name) ||
        !options.topology_spec) {
      return usage(argv[0]);
    }
    if (options.repair && !options.fault_spec) {
      std::cerr << "--repair requires --inject-faults\n";
      return usage(argv[0]);
    }
    if (options.explain && options.mapper.portfolio <= 0) {
      std::cerr << "--explain requires --portfolio N (the provenance "
                   "report describes the portfolio decision)\n";
      return usage(argv[0]);
    }
    if (options.pareto && options.mapper.portfolio <= 0) {
      std::cerr << "--pareto requires --portfolio N (the front ranks the "
                   "portfolio candidates)\n";
      return usage(argv[0]);
    }
    if (options.trace_file || options.trace_summary) {
      trace::enable();
    }
    if (options.metrics_file) {
      metrics::enable();
      metrics::set_deterministic(false);
    }
    const auto run_start = std::chrono::steady_clock::now();
    const int code = run(options);
    if (options.metrics_file) {
      // One-shot exposition: the run's wall time plus whatever the
      // pipeline recorded, published exactly like the daemon does.
      metrics::counter("oregami_map_runs_total").increment();
      metrics::counter("oregami_map_exit_code_total{code=\"" +
                       std::to_string(code) + "\"}")
          .increment();
      metrics::histogram("oregami_map_run_ms")
          .record(std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - run_start)
                      .count());
      if (!metrics::write_prometheus_file(*options.metrics_file)) {
        std::cerr << "warning: cannot write metrics to '"
                  << *options.metrics_file << "'\n";
      }
    }
    emit_trace(options);
    return code;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return kExitInternal;
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    return kExitInternal;
  }
}
