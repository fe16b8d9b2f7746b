#include "oregami/mapper/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <sstream>
#include <tuple>
#include <utility>

#include "oregami/mapper/anneal.hpp"
#include "oregami/mapper/list_schedule.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/support/deadline.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"
#include "oregami/support/text_table.hpp"
#include "oregami/support/thread_pool.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {

PortfolioOptions portfolio_options_from(const MapperOptions& options) {
  PortfolioOptions popts;
  popts.num_seeded = options.portfolio;
  popts.jobs = options.jobs;
  popts.seed = options.portfolio_seed;
  popts.num_anneal = options.anneal;
  popts.heft = options.heft;
  popts.time_budget_ms = options.time_budget_ms;
  return popts;
}

namespace {

/// Independent RNG stream for candidate `id`: SplitMix64 seeded by a
/// mix of the base seed and the id, so neighbouring ids decorrelate
/// and no candidate shares draws with another.
SplitMix64 candidate_stream(std::uint64_t base_seed, int id) {
  SplitMix64 mix(base_seed ^
                 (0x9E3779B97F4A7C15ULL *
                  (static_cast<std::uint64_t>(id) + 1)));
  return mix;
}

struct CandidateSpec {
  std::string label;
  std::function<std::optional<MapperReport>()> run;
};

/// The seeded general-path variants: cycle the MWM-Contract load bound
/// through {default, tightest feasible, default+1, default+2}, toggle
/// refinement every four variants, and give every variant its own
/// NN-Embed tie-break seed.
void add_seeded_variants(std::vector<CandidateSpec>* specs,
                         const TaskGraph& graph, const Topology& topo,
                         const MapperOptions& base,
                         const PortfolioOptions& options) {
  const int n = graph.num_tasks();
  const int p = topo.num_procs();
  const int default_b = 2 * ((n + 2 * p - 1) / (2 * p));
  const int tight_b = (n + p - 1) / p;
  const int bounds[4] = {-1, tight_b, default_b + 1, default_b + 2};
  const int first_id = static_cast<int>(specs->size());
  for (int i = 0; i < options.num_seeded; ++i) {
    MapperOptions variant = base;
    variant.portfolio = 0;
    variant.load_bound_B = bounds[i % 4];
    variant.refine = (i % 8) >= 4;
    SplitMix64 stream = candidate_stream(options.seed, first_id + i);
    const std::uint64_t nn_seed = stream.next_u64() | 1;  // never 0
    const int b_used = variant.load_bound_B < 0 ? default_b
                                                : variant.load_bound_B;
    specs->push_back(
        {"general B=" + std::to_string(b_used) +
             (variant.refine ? " refine" : "") + " seed#" +
             std::to_string(i),
         [&graph, &topo, variant, nn_seed] {
           return std::optional<MapperReport>(
               map_general_seeded(graph, topo, variant, nn_seed));
         }});
  }
}

/// The opt-in extended families: the HEFT critical-path list scheduler
/// and `num_anneal` simulated-annealing chains. Appended AFTER the
/// seeded variants, so turning them on never renumbers the existing
/// candidate ids. Each annealing candidate starts from the
/// deterministic general-path mapping and walks its own
/// (seed, id)-derived move stream. Both families get the search's own
/// `deadline`, so a positive budget bounds them from the start of the
/// search, while non-positive budgets stay clock-free and
/// bit-deterministic.
void add_extended_candidates(std::vector<CandidateSpec>* specs,
                             const TaskGraph& graph, const Topology& topo,
                             const MapperOptions& base,
                             const PortfolioOptions& options,
                             const Deadline& deadline) {
  if (options.heft) {
    specs->push_back(
        {"heft critical-path",
         [&graph, &topo, deadline] {
           const ListScheduleResult ls = list_schedule(graph, topo, deadline);
           MapperReport report;
           report.strategy = MapStrategy::ListSchedule;
           report.details = "HEFT upward-rank list schedule; modelled "
                            "makespan " + std::to_string(ls.makespan);
           if (ls.deadline_degraded > 0) {
             report.details += "; " + std::to_string(ls.deadline_degraded) +
                               " task(s) placed by deadline fallback";
           }
           report.mapping =
               Mapping(ls.proc_of_task, mm_route(graph, ls.proc_of_task, topo));
           return std::optional<MapperReport>(std::move(report));
         }});
  }
  const int first_id = static_cast<int>(specs->size());
  for (int i = 0; i < options.num_anneal; ++i) {
    MapperOptions variant = base;
    variant.portfolio = 0;
    SplitMix64 stream = candidate_stream(options.seed, first_id + i);
    AnnealOptions aopts;
    aopts.seed = stream.next_u64();
    aopts.iterations = options.anneal_iterations;
    specs->push_back(
        {"anneal seed#" + std::to_string(i),
         [&graph, &topo, variant, aopts, deadline] {
           MapperReport init = map_general_seeded(graph, topo, variant, 0);
           AnnealResult sa = anneal_placement(
               graph, topo, init.mapping.proc_of_task(),
               std::move(init.mapping.routing), aopts, deadline);
           MapperReport report;
           report.strategy = MapStrategy::Anneal;
           report.details =
               "SA " + std::to_string(sa.proposed) + " proposals, " +
               std::to_string(sa.accepted) + " accepted (" +
               std::to_string(sa.uphill) + " uphill); completion " +
               std::to_string(sa.completion_before) + " -> " +
               std::to_string(sa.completion_after);
           report.mapping = std::move(sa.mapping);
           return std::optional<MapperReport>(std::move(report));
         }});
  }
}

/// Deterministic explanation of how the (completion, IPC, id) minimum
/// was decided, recorded on the report for --explain.
void record_win_reason(PortfolioReport* report) {
  const auto& winner =
      report->candidates[static_cast<std::size_t>(report->best_id)];
  int completion_ties = 0;
  int exact_ties = 0;
  std::int64_t runner_up_completion = -1;
  std::int64_t runner_up_ipc = -1;
  for (const auto& c : report->candidates) {
    if (!c.ok || c.id == winner.id) {
      continue;
    }
    if (c.completion == winner.completion) {
      ++completion_ties;
      if (c.external_ipc == winner.external_ipc) {
        ++exact_ties;
      } else if (runner_up_ipc < 0 || c.external_ipc < runner_up_ipc) {
        runner_up_ipc = c.external_ipc;
      }
    } else if (runner_up_completion < 0 ||
               c.completion < runner_up_completion) {
      runner_up_completion = c.completion;
    }
  }
  std::ostringstream why;
  if (completion_ties == 0) {
    report->tie_level = 1;
    why << "strictly best completion (" << winner.completion;
    if (runner_up_completion >= 0) {
      why << " vs " << runner_up_completion << " for the runner-up";
    }
    why << "); tie-break level 1 (completion)";
  } else if (exact_ties == 0) {
    report->tie_level = 2;
    why << "tied completion (" << winner.completion << ") with "
        << completion_ties << " candidate(s); best external IPC ("
        << winner.external_ipc;
    if (runner_up_ipc >= 0) {
      why << " vs " << runner_up_ipc;
    }
    why << "); tie-break level 2 (external IPC)";
  } else {
    report->tie_level = 3;
    why << "exact (completion, external IPC) tie with " << exact_ties
        << " candidate(s); lowest candidate id wins; tie-break level 3 "
           "(candidate id)";
  }
  report->win_reason = why.str();
}

PortfolioReport run_portfolio(const TaskGraph& graph, const Topology& topo,
                              const PortfolioOptions& options,
                              const Deadline& deadline,
                              std::vector<CandidateSpec> specs) {
  const trace::Span portfolio_span("portfolio");
  const auto search_start = std::chrono::steady_clock::now();
  // Candidate 0 is exempt from the deadline so a result always exists.
  // Shared read-only state really is read-only under the pool: regular
  // families answer distance queries with closed-form oracles, and the
  // Custom family's lazy BFS table is published under std::call_once,
  // so no pre-warm is needed before fanning out.
  ThreadPool pool(options.jobs, "portfolio");
  std::vector<std::future<PortfolioCandidate>> futures;
  futures.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    futures.push_back(pool.submit(
        [spec = std::move(specs[i]), id = static_cast<int>(i), deadline,
         search_start] {
          // Every candidate's events land under the same deterministic
          // lane path no matter which worker (or the sole jobs=1
          // worker) picked the task up.
          const trace::LaneScope lane(
              trace::enabled() ? "portfolio/cand#" + std::to_string(id)
                               : std::string(),
              id + 1);
          PortfolioCandidate candidate;
          candidate.id = id;
          candidate.label = spec.label;
          const auto t0 = std::chrono::steady_clock::now();
          if (id != 0 && deadline.passed()) {
            candidate.note = "skipped (deadline)";
            candidate.skipped = true;
            // Not "how long the candidate ran" (it never did) but when
            // the deadline cut it off, so the timed table can show a
            // timing for skipped candidates too.
            candidate.wall_ms =
                std::chrono::duration<double, std::milli>(t0 - search_start)
                    .count();
            trace::instant("skipped_deadline");
            return candidate;
          }
          try {
            if (auto report = spec.run()) {
              candidate.ok = true;
              candidate.strategy = report->strategy;
              candidate.note = report->details;
              candidate.mapping = std::move(report->mapping);
            } else {
              candidate.note = "not admissible";
              trace::instant("not_admissible");
            }
          } catch (const MappingError& e) {
            candidate.note = std::string("infeasible: ") + e.what();
            trace::instant("infeasible");
          }
          candidate.wall_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          return candidate;
        }));
  }

  PortfolioReport report;
  report.candidates.reserve(futures.size());
  for (auto& future : futures) {
    report.candidates.push_back(future.get());  // rethrows non-mapping errors
  }

  // Phase identity for the provenance report.
  report.comm_phase_mult = graph.comm_phase_multiplicity();
  report.exec_phase_mult = graph.exec_phase_multiplicity();
  for (const auto& phase : graph.comm_phases()) {
    report.comm_phase_names.push_back(phase.name);
  }
  for (const auto& phase : graph.exec_phases()) {
    report.exec_phase_names.push_back(phase.name);
  }

  // Score sequentially (cheap relative to mapping) and select the
  // winner by (completion, external IPC, id) -- never completion order.
  const trace::Span score_span("score");
  for (auto& candidate : report.candidates) {
    if (!candidate.ok) {
      continue;
    }
    PlacementObjectives objectives = extract_objectives(
        graph, candidate.mapping.proc_of_task(), candidate.mapping.routing,
        topo);
    candidate.completion = objectives.completion;
    candidate.external_ipc = objectives.external_ipc;
    candidate.max_load = objectives.max_load;
    candidate.comm_cost = std::move(objectives.comm_times);
    candidate.exec_cost = std::move(objectives.exec_times);
    if (trace::enabled()) {
      const std::string prefix = "cand#" + std::to_string(candidate.id);
      trace::counter(prefix + "/completion", candidate.completion);
      trace::counter(prefix + "/external_ipc", candidate.external_ipc);
    }
    const bool better =
        report.best_id < 0 ||
        std::tie(candidate.completion, candidate.external_ipc) <
            std::tie(report.candidates[static_cast<std::size_t>(
                                           report.best_id)]
                         .completion,
                     report.candidates[static_cast<std::size_t>(
                                           report.best_id)]
                         .external_ipc);
    if (better) {
      report.best_id = candidate.id;
    }
  }
  if (report.best_id < 0) {
    throw MappingError("portfolio: no feasible candidate");
  }
  record_win_reason(&report);

  const auto& winner =
      report.candidates[static_cast<std::size_t>(report.best_id)];
  report.best.strategy = winner.strategy;
  report.best.details = "portfolio winner '" + winner.label + "' of " +
                        std::to_string(report.candidates.size()) +
                        " candidates; " + winner.note;
  report.best.mapping = winner.mapping;
  report.elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - search_start)
                          .count();
  if (trace::enabled()) {
    trace::counter("winner_id", report.best_id);
    trace::counter("tie_level", report.tie_level);
    trace::instant("winner", report.win_reason);
  }
  return report;
}

std::string format_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}

}  // namespace

std::string PortfolioReport::table() const {
  TextTable t({"id", "candidate", "strategy", "completion", "ext-IPC",
               "status"});
  for (const auto& c : candidates) {
    t.add_row({std::to_string(c.id), c.label,
               c.ok ? to_string(c.strategy) : "-",
               c.ok ? std::to_string(c.completion) : "-",
               c.ok ? std::to_string(c.external_ipc) : "-",
               c.id == best_id ? "** best **" : (c.ok ? "ok" : c.note)});
  }
  return t.to_string();
}

std::string PortfolioReport::timed_table() const {
  TextTable t({"id", "candidate", "strategy", "completion", "ext-IPC",
               "wall-ms", "status"});
  for (const auto& c : candidates) {
    std::string status =
        c.id == best_id ? "** best **" : (c.ok ? "ok" : c.note);
    if (c.skipped) {
      status = "skipped (deadline @ " + format_ms(c.wall_ms) + "ms)";
    }
    t.add_row({std::to_string(c.id), c.label,
               c.ok ? to_string(c.strategy) : "-",
               c.ok ? std::to_string(c.completion) : "-",
               c.ok ? std::to_string(c.external_ipc) : "-",
               format_ms(c.wall_ms), status});
  }
  return t.to_string();
}

std::string PortfolioReport::explain(bool with_timing) const {
  OREGAMI_ASSERT(best_id >= 0, "explain() requires a scored report");
  const auto& w = candidates[static_cast<std::size_t>(best_id)];
  std::ostringstream out;
  out << "decision provenance: portfolio of " << candidates.size()
      << " candidates\n";
  out << "winner: candidate " << w.id << " '" << w.label << "' ("
      << to_string(w.strategy) << ")\n";
  out << "reason: " << win_reason << "\n";
  out << "modelled completion: " << w.completion
      << "  external IPC: " << w.external_ipc << "\n";
  out << "per-phase cost breakdown (winner, time = modelled phase cost,\n"
         "mult = phase-expression multiplicity):\n";
  TextTable t({"phase", "kind", "mult", "time", "mult*time"});
  for (std::size_t k = 0; k < comm_phase_names.size(); ++k) {
    const std::int64_t time = k < w.comm_cost.size() ? w.comm_cost[k] : 0;
    const auto mult = static_cast<std::int64_t>(comm_phase_mult[k]);
    t.add_row({comm_phase_names[k], "comm", std::to_string(mult),
               std::to_string(time), std::to_string(mult * time)});
  }
  for (std::size_t k = 0; k < exec_phase_names.size(); ++k) {
    const std::int64_t time = k < w.exec_cost.size() ? w.exec_cost[k] : 0;
    const auto mult = static_cast<std::int64_t>(exec_phase_mult[k]);
    t.add_row({exec_phase_names[k], "exec", std::to_string(mult),
               std::to_string(time), std::to_string(mult * time)});
  }
  out << t.to_string();
  out << "candidate table:\n" << (with_timing ? timed_table() : table());
  if (with_timing) {
    out << "portfolio search wall time: " << format_ms(elapsed_ms)
        << " ms\n";
  }
  return out.str();
}

std::vector<int> PortfolioReport::pareto_front() const {
  std::vector<const PortfolioCandidate*> feasible;
  for (const auto& c : candidates) {
    if (c.ok) {
      feasible.push_back(&c);
    }
  }
  std::vector<int> front;
  for (const auto* a : feasible) {
    bool dominated = false;
    for (const auto* b : feasible) {
      if (b == a) {
        continue;
      }
      const bool no_worse = b->completion <= a->completion &&
                            b->external_ipc <= a->external_ipc &&
                            b->max_load <= a->max_load;
      const bool strictly_better = b->completion < a->completion ||
                                   b->external_ipc < a->external_ipc ||
                                   b->max_load < a->max_load;
      // Exact-triple ties: only the lowest id survives (keeps the
      // front free of duplicates without a separate dedup pass).
      if (no_worse && (strictly_better || b->id < a->id)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      front.push_back(a->id);
    }
  }
  std::sort(front.begin(), front.end(), [this](int x, int y) {
    const auto& a = candidates[static_cast<std::size_t>(x)];
    const auto& b = candidates[static_cast<std::size_t>(y)];
    return std::make_tuple(a.completion, a.external_ipc, a.max_load, a.id) <
           std::make_tuple(b.completion, b.external_ipc, b.max_load, b.id);
  });
  return front;
}

std::string PortfolioReport::pareto() const {
  OREGAMI_ASSERT(best_id >= 0, "pareto() requires a scored report");
  const std::vector<int> front = pareto_front();
  std::size_t feasible = 0;
  for (const auto& c : candidates) {
    feasible += c.ok ? 1 : 0;
  }
  std::ostringstream out;
  out << "Pareto front over (completion, external IPC, max exec load): "
      << front.size() << " of " << feasible
      << " feasible candidate(s) non-dominated\n";
  TextTable t(
      {"id", "candidate", "completion", "ext-IPC", "max-load", "status"});
  bool best_on_front = false;
  const auto add_candidate_row = [&t, this](int id, const std::string& status) {
    const auto& c = candidates[static_cast<std::size_t>(id)];
    t.add_row({std::to_string(c.id), c.label, std::to_string(c.completion),
               std::to_string(c.external_ipc), std::to_string(c.max_load),
               status});
  };
  for (const int id : front) {
    best_on_front = best_on_front || id == best_id;
    add_candidate_row(id, id == best_id ? "** best **" : "non-dominated");
  }
  if (!best_on_front) {
    // The winner minimises (completion, IPC, id) but another candidate
    // matched both and carried a lower max load; keep the winner
    // visible rather than silently dropping it.
    add_candidate_row(best_id, "** best ** (dominated on max-load)");
  }
  out << t.to_string();
  return out.str();
}

namespace {

/// The one candidate list, in id order: the single-shot Fig-3 pipeline
/// (id 0), systolic (id 1, only with a program), canned,
/// group-theoretic, the general path with refinement flipped, the
/// seeded variants, then the opt-in families. `program` and `compiled`
/// are null for a bare task graph (`graph` is `compiled->graph`
/// otherwise).
PortfolioReport portfolio_map(const TaskGraph& graph,
                              const larcs::Program* program,
                              const larcs::CompiledProgram* compiled,
                              const Topology& topo, const MapperOptions& base,
                              const PortfolioOptions& options) {
  if (graph.num_tasks() == 0) {
    throw MappingError("cannot map an empty task graph");
  }
  // Armed once: every candidate and every chain shares this expiry.
  const Deadline deadline(options.time_budget_ms);
  MapperOptions single = base;
  single.portfolio = 0;
  std::vector<CandidateSpec> specs;
  specs.push_back({"fig3 single-shot",
                   [&graph, program, compiled, &topo, single] {
                     return std::optional<MapperReport>(
                         program != nullptr
                             ? map_program(*program, *compiled, topo, single)
                             : map_computation(graph, topo, single));
                   }});
  if (program != nullptr && single.allow_systolic) {
    specs.push_back({"systolic", [program, compiled, &topo, single] {
                       return try_systolic(*program, *compiled, topo, single);
                     }});
  }
  if (single.allow_canned) {
    specs.push_back({"canned", [&graph, &topo, single] {
                       return try_canned(
                           graph, topo, single,
                           recognize_family(graph.aggregate_graph()));
                     }});
  }
  if (single.allow_group) {
    specs.push_back({"group-theoretic", [&graph, &topo, single] {
                       return try_group(graph, topo, single);
                     }});
  }
  MapperOptions flipped = single;
  flipped.refine = !single.refine;
  specs.push_back(
      {std::string("general ") + (flipped.refine ? "refine" : "no-refine"),
       [&graph, &topo, flipped] {
         return std::optional<MapperReport>(
             map_general_seeded(graph, topo, flipped, 0));
       }});
  add_seeded_variants(&specs, graph, topo, single, options);
  add_extended_candidates(&specs, graph, topo, single, options, deadline);
  return run_portfolio(graph, topo, options, deadline, std::move(specs));
}

}  // namespace

PortfolioReport portfolio_map_computation(const TaskGraph& graph,
                                          const Topology& topo,
                                          const MapperOptions& base,
                                          const PortfolioOptions& options) {
  return portfolio_map(graph, nullptr, nullptr, topo, base, options);
}

PortfolioReport portfolio_map_program(const larcs::Program& program,
                                      const larcs::CompiledProgram& compiled,
                                      const Topology& topo,
                                      const MapperOptions& base,
                                      const PortfolioOptions& options) {
  return portfolio_map(compiled.graph, &program, &compiled, topo, base,
                       options);
}

}  // namespace oregami
