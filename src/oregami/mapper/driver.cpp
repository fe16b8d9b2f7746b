#include "oregami/mapper/driver.hpp"

#include <algorithm>

#include "oregami/arch/routes.hpp"
#include "oregami/core/recognize.hpp"
#include "oregami/mapper/canned.hpp"
#include "oregami/mapper/group_contract.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/mapper/multilevel.hpp"
#include "oregami/mapper/mwm_contract.hpp"
#include "oregami/mapper/nn_embed.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/mapper/refine.hpp"
#include "oregami/mapper/systolic.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {

std::string to_string(MapStrategy strategy) {
  switch (strategy) {
    case MapStrategy::Canned:
      return "canned";
    case MapStrategy::GroupTheoretic:
      return "group-theoretic";
    case MapStrategy::Systolic:
      return "systolic";
    case MapStrategy::General:
      return "general (MWM-Contract + NN-Embed)";
    case MapStrategy::Anneal:
      return "simulated annealing";
    case MapStrategy::ListSchedule:
      return "HEFT list schedule";
    case MapStrategy::Multilevel:
      return "multilevel V-cycle";
  }
  return "?";
}

Graph cluster_graph_of(const TaskGraph& graph,
                       const Contraction& contraction) {
  Graph g(contraction.num_clusters);
  for (const auto& phase : graph.comm_phases()) {
    for (const auto& e : phase.edges) {
      const int cu =
          contraction.cluster_of_task[static_cast<std::size_t>(e.src)];
      const int cv =
          contraction.cluster_of_task[static_cast<std::size_t>(e.dst)];
      if (cu != cv && e.volume > 0) {
        g.add_edge(cu, cv, e.volume);
      }
    }
  }
  return g;
}

Embedding embed_clusters(const TaskGraph& graph,
                         const Contraction& contraction,
                         const Topology& topo, std::string* how,
                         std::uint64_t nn_seed) {
  const Graph cg = cluster_graph_of(graph, contraction);
  if (nn_seed != 0) {
    // Seeded portfolio candidate: the whole point is tie-break
    // diversity, so bypass the canned shortcut (which is seed-blind).
    if (how != nullptr) {
      *how = "NN-Embed seeded placement (seed " + std::to_string(nn_seed) +
             ")";
    }
    return nn_embed_seeded(cg, topo, nn_seed);
  }
  const RecognizedFamily family = recognize_family(cg);
  if (family.family != GraphFamily::Unknown) {
    // A canned entry for the *cluster* graph: its contraction must be
    // the identity (clusters are already processor-grained).
    if (auto canned = canned_mapping(family, topo)) {
      if (canned->contraction.num_clusters == cg.num_vertices()) {
        if (how != nullptr) {
          *how = "canned embedding of " + to_string(family.family) +
                 " cluster graph: " + canned->description;
        }
        // canned->contraction is identity here (same cluster count);
        // compose embeddings accordingly.
        Embedding result;
        result.proc_of_cluster.resize(
            static_cast<std::size_t>(cg.num_vertices()));
        for (int c = 0; c < cg.num_vertices(); ++c) {
          const int cc =
              canned->contraction.cluster_of_task[static_cast<std::size_t>(c)];
          result.proc_of_cluster[static_cast<std::size_t>(c)] =
              canned->embedding.proc_of_cluster[static_cast<std::size_t>(cc)];
        }
        result.validate(topo.num_procs());
        return result;
      }
    }
  }
  if (how != nullptr) {
    *how = "NN-Embed greedy placement";
  }
  return nn_embed(cg, topo);
}

namespace {

MapperReport finish(MapStrategy strategy, std::string details,
                    const Contraction& contraction,
                    const Embedding& embedding, const TaskGraph& graph,
                    const Topology& topo, const MapperOptions& options) {
  contraction.validate(graph.num_tasks());
  embedding.validate(topo.num_procs());
  if (embedding.proc_of_cluster.size() !=
      static_cast<std::size_t>(contraction.num_clusters)) {
    throw MappingError("embedding does not cover every cluster");
  }
  std::vector<int> placement;
  placement.reserve(contraction.cluster_of_task.size());
  for (const int c : contraction.cluster_of_task) {
    placement.push_back(embedding.proc_of_cluster[static_cast<std::size_t>(c)]);
  }
  MapperReport report;
  report.strategy = strategy;
  report.details = std::move(details);
  {
    const trace::Span span("route");
    std::vector<PhaseRouting> routing = mm_route(graph, placement, topo);
    report.mapping = Mapping(std::move(placement), std::move(routing));
  }
  if (options.refine_placement) {
    const trace::Span span("refine_placement");
    // Never loosen the load balance the strategy achieved: bound moves
    // by the explicit B when given, else the current largest cluster.
    const int bound = options.load_bound_B > 0
                          ? options.load_bound_B
                          : contraction.max_cluster_size();
    PlacementRefineResult refined =
        refine_placement(graph, topo, report.mapping.proc_of_task(),
                         report.mapping.routing, bound);
    trace::counter("moves", refined.moves);
    trace::counter("improvement", refined.improvement());
    if (refined.moves > 0) {
      report.details += "; placement refinement -" +
                        std::to_string(refined.improvement()) +
                        " completion (" + std::to_string(refined.moves) +
                        " moves)";
      report.mapping = std::move(refined.mapping);
    }
  }
  validate_mapping(report.mapping, graph, topo);
  return report;
}

MapperReport do_general(const TaskGraph& graph, const Topology& topo,
                        const MapperOptions& options,
                        std::uint64_t nn_seed = 0) {
  const Graph aggregate = graph.aggregate_graph();
  Contraction contraction;
  std::string description;
  {
    const trace::Span span("contract");
    MwmContractResult contract =
        mwm_contract(aggregate, topo.num_procs(), options.load_bound_B);
    description = std::move(contract.description);
    contraction = std::move(contract.contraction);
    trace::counter("clusters", contraction.num_clusters);
    if (options.refine) {
      const trace::Span refine_span("kl_refine");
      RefineResult refined =
          refine_contraction(aggregate, std::move(contraction),
                             contract.load_bound);
      description += "; KL refinement -" +
                     std::to_string(refined.improvement()) + " IPC";
      trace::counter("ipc_improvement", refined.improvement());
      contraction = std::move(refined.contraction);
    }
  }
  std::string how;
  Embedding embedding;
  {
    const trace::Span span("embed");
    embedding = embed_clusters(graph, contraction, topo, &how, nn_seed);
  }
  return finish(MapStrategy::General, description + "; " + how, contraction,
                embedding, graph, topo, options);
}

}  // namespace

std::optional<MapperReport> try_canned(const TaskGraph& graph,
                                       const Topology& topo,
                                       const MapperOptions& options,
                                       const RecognizedFamily& family) {
  if (family.family == GraphFamily::Unknown) {
    trace::instant("canned_rejected");
    return std::nullopt;
  }
  const trace::Span span("canned");
  auto canned = canned_mapping(family, topo);
  if (!canned) {
    trace::instant("no_canned_entry");
    return std::nullopt;
  }
  return finish(MapStrategy::Canned,
                to_string(family.family) + " recognized; " +
                    canned->description,
                canned->contraction, canned->embedding, graph, topo, options);
}

std::optional<MapperReport> try_group(const TaskGraph& graph,
                                      const Topology& topo,
                                      const MapperOptions& options) {
  const int n = graph.num_tasks();
  const int p = topo.num_procs();
  if (n < p || n % p != 0) {
    trace::instant("group_rejected");
    return std::nullopt;
  }
  const trace::Span span("group_contract");
  auto outcome = group_theoretic_contraction(graph, p);
  if (outcome.status != GroupContractStatus::Ok) {
    trace::instant("group_inadmissible");
    return std::nullopt;
  }
  std::string how;
  Embedding embedding =
      embed_clusters(graph, outcome.result->contraction, topo, &how);
  return finish(MapStrategy::GroupTheoretic,
                outcome.result->description + "; " + how,
                outcome.result->contraction, embedding, graph, topo, options);
}

std::optional<MapperReport> try_systolic(
    const larcs::Program& program, const larcs::CompiledProgram& compiled,
    const Topology& topo, const MapperOptions& options) {
  const TaskGraph& graph = compiled.graph;
  if (topo.family() != TopoFamily::Mesh &&
      topo.family() != TopoFamily::Torus &&
      topo.family() != TopoFamily::Chain &&
      topo.family() != TopoFamily::Ring) {
    trace::instant("systolic_rejected");
    return std::nullopt;
  }
  const trace::Span span("systolic");
  auto systolic = systolic_map(program, compiled);
  if (!systolic || systolic->contraction.num_clusters > topo.num_procs()) {
    trace::instant("systolic_inadmissible");
    return std::nullopt;
  }
  std::string how;
  Embedding embedding =
      embed_clusters(graph, systolic->contraction, topo, &how);
  return finish(MapStrategy::Systolic, systolic->description + "; " + how,
                systolic->contraction, embedding, graph, topo, options);
}

MapperReport map_general_seeded(const TaskGraph& graph, const Topology& topo,
                                const MapperOptions& options,
                                std::uint64_t nn_seed) {
  if (graph.num_tasks() == 0) {
    throw MappingError("cannot map an empty task graph");
  }
  return do_general(graph, topo, options, nn_seed);
}

namespace {

MapperReport dispatch(const TaskGraph& graph, const Topology& topo,
                      const MapperOptions& options,
                      const larcs::Program* program,
                      const larcs::CompiledProgram* compiled,
                      PortfolioReport* portfolio_report);

/// Degraded-mode redirect: runs the requested pipeline on the compacted
/// healthy sub-topology and translates back to base ids. `options` is
/// taken by value so the recursion sees faults == nullptr.
MapperReport map_degraded(const TaskGraph& graph,
                          const FaultedTopology& faults,
                          const Topology& topo, MapperOptions options,
                          const larcs::Program* program,
                          const larcs::CompiledProgram* compiled,
                          PortfolioReport* portfolio_report) {
  if (faults.base().num_procs() != topo.num_procs()) {
    throw MappingError(
        "MapperOptions::faults is for a different topology (" +
        faults.base().name() + " vs " + topo.name() + ")");
  }
  if (faults.healthy_procs().empty()) {
    throw MappingError(
        "cannot map onto the faulted topology: no healthy processors "
        "remain (spec: " + faults.spec().to_string() + ")");
  }
  const trace::Span span("degraded_map");
  const FaultedTopology::HealthySub& sub = faults.healthy_subtopology();
  options.faults = nullptr;
  MapperReport report = dispatch(graph, sub.topo, options, program,
                                 compiled, portfolio_report);
  report.mapping = map_to_base(sub, std::move(report.mapping));
  report.details = "degraded machine (" + faults.spec().to_string() +
                   "; " + std::to_string(sub.topo.num_procs()) + "/" +
                   std::to_string(faults.base().num_procs()) +
                   " processors healthy); " + report.details;
  validate_mapping(report.mapping, graph, faults.base());
  return report;
}

/// The Fig-3 decision tree, written once for a bare task graph and for
/// a LaRCS program (`program` and `compiled` set; `graph` is then
/// `compiled->graph`).
MapperReport dispatch(const TaskGraph& graph, const Topology& topo,
                      const MapperOptions& options,
                      const larcs::Program* program,
                      const larcs::CompiledProgram* compiled,
                      PortfolioReport* portfolio_report) {
  if (graph.num_tasks() == 0) {
    throw MappingError("cannot map an empty task graph");
  }
  if (options.faults != nullptr && !options.faults->spec().empty()) {
    return map_degraded(graph, *options.faults, topo, options, program,
                        compiled, portfolio_report);
  }
  if (options.multilevel != 0) {
    // Large-graph path: the systolic/canned recognisers are built for
    // paper-scale structure; the V-cycle takes over the whole pipeline.
    return map_multilevel(graph, topo, options);
  }
  if (options.portfolio > 0) {
    PortfolioReport searched =
        program != nullptr
            ? portfolio_map_program(*program, *compiled, topo, options,
                                    portfolio_options_from(options))
            : portfolio_map_computation(graph, topo, options,
                                        portfolio_options_from(options));
    if (portfolio_report == nullptr) {
      return std::move(searched.best);
    }
    *portfolio_report = std::move(searched);
    return portfolio_report->best;
  }
  if (program != nullptr) {
    // Systolic path: uniform recurrence onto an array-like target.
    if (options.allow_systolic) {
      if (auto report = try_systolic(*program, *compiled, topo, options)) {
        return *report;
      }
    }
    // Family hint from the LaRCS source.
    if (options.allow_canned && compiled->family_hint) {
      const GraphFamily hinted = family_from_hint(*compiled->family_hint);
      if (hinted != GraphFamily::Unknown) {
        const auto family =
            detect_specific_family(graph.aggregate_graph(), hinted);
        if (family) {
          if (auto report = try_canned(graph, topo, options, *family)) {
            report->details = "family hint '" + *compiled->family_hint +
                              "'; " + report->details;
            return *report;
          }
        }
      }
    }
  }
  const trace::Span span("map");
  if (options.allow_canned) {
    const RecognizedFamily family =
        recognize_family(graph.aggregate_graph());
    if (auto report = try_canned(graph, topo, options, family)) {
      return *report;
    }
  }
  if (options.allow_group) {
    if (auto report = try_group(graph, topo, options)) {
      return *report;
    }
  }
  return do_general(graph, topo, options);
}

}  // namespace

MapperReport map_computation(const TaskGraph& graph, const Topology& topo,
                             const MapperOptions& options) {
  return dispatch(graph, topo, options, nullptr, nullptr, nullptr);
}

MapperReport map_program(const larcs::Program& program,
                         const larcs::CompiledProgram& compiled,
                         const Topology& topo, const MapperOptions& options,
                         PortfolioReport* portfolio_report) {
  return dispatch(compiled.graph, topo, options, &program, &compiled,
                  portfolio_report);
}

std::string option_violation(const MapperOptions& options,
                             const std::string& prefix) {
  if (options.portfolio < 0) {
    return prefix + "portfolio must be >= 0";
  }
  if (options.anneal < 0) {
    return prefix + "anneal must be >= 0";
  }
  if (options.multilevel > 64 || options.multilevel < -1) {
    return prefix +
           "multilevel must be 0 (off), -1 (auto depth) or 1..64 (level "
           "cap)";
  }
  if (options.jobs < 0) {
    return prefix + "jobs must be >= 0 (0 = all cores)";
  }
  if (options.anneal > 0 && options.portfolio <= 0) {
    return prefix + "anneal requires " + prefix + "portfolio > 0";
  }
  if (options.heft && options.portfolio <= 0) {
    return prefix + "heft requires " + prefix + "portfolio > 0";
  }
  if (options.multilevel != 0 && options.portfolio > 0) {
    return prefix + "multilevel is incompatible with " + prefix +
           "portfolio";
  }
  return {};
}

void validate_mapping(const Mapping& mapping, const TaskGraph& graph,
                      const Topology& topo) {
  const std::vector<int>& proc_of_task = mapping.proc_of_task();
  if (proc_of_task.size() != static_cast<std::size_t>(graph.num_tasks())) {
    throw MappingError("placement does not cover every task");
  }
  for (const int p : proc_of_task) {
    if (p < 0 || p >= topo.num_procs()) {
      throw MappingError("placement processor id out of range");
    }
  }
  if (mapping.routing.size() != graph.comm_phases().size()) {
    throw MappingError("routing does not cover every comm phase");
  }
  for (std::size_t k = 0; k < mapping.routing.size(); ++k) {
    const auto& phase = graph.comm_phases()[k];
    const auto& routing = mapping.routing[k];
    if (routing.route_of_edge.size() != phase.edges.size()) {
      throw MappingError("phase '" + phase.name +
                         "' routing does not cover every edge");
    }
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& e = phase.edges[i];
      const int src = proc_of_task[static_cast<std::size_t>(e.src)];
      const int dst = proc_of_task[static_cast<std::size_t>(e.dst)];
      if (!is_valid_route(topo, routing.route_of_edge[i], src, dst)) {
        throw MappingError("invalid route in phase '" + phase.name +
                           "' for edge " + std::to_string(e.src) + " -> " +
                           std::to_string(e.dst));
      }
    }
  }
}

}  // namespace oregami
