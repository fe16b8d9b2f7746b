// Tests for the parallel portfolio mapper and its thread pool.
//
// The portfolio's core contract is bit-determinism: the same inputs and
// seed produce byte-identical results no matter how many workers run
// the candidates or how the OS schedules them. The regression test
// below runs the full portfolio twice -- once serial, once with every
// core -- over library programs and requires identical mappings,
// scores, and report tables.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/support/thread_pool.hpp"

namespace oregami {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("candidate exploded"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit([&done] { ++done; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_workers(), 1);
  EXPECT_EQ(pool.num_workers(), ThreadPool::resolve_workers(0));
}

TEST(ThreadPool, SubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(1);  // single worker: a blocking submit would hang
  auto outer = pool.submit([&pool] { return pool.submit([] { return 5; }); });
  EXPECT_EQ(outer.get().get(), 5);
}

// ----------------------------------------------------- portfolio basics

struct Compiled {
  larcs::Program ast;
  larcs::CompiledProgram cp;
};

Compiled compile_catalog(const larcs::programs::CatalogEntry& entry) {
  std::map<std::string, long> bindings(entry.example_bindings.begin(),
                                       entry.example_bindings.end());
  larcs::Program ast = larcs::parse_program(entry.source);
  larcs::CompiledProgram cp = larcs::compile(ast, bindings);
  return {std::move(ast), std::move(cp)};
}

TEST(Portfolio, ContainsSingleShotCandidateAndScoresIt) {
  const auto entry = larcs::programs::catalog().front();
  const auto c = compile_catalog(entry);
  const Topology topo = Topology::hypercube(3);
  PortfolioOptions popts;
  popts.num_seeded = 4;
  const auto result = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  ASSERT_FALSE(result.candidates.empty());
  EXPECT_EQ(result.candidates.front().label, "fig3 single-shot");
  EXPECT_TRUE(result.candidates.front().ok);
  EXPECT_GE(result.best_id, 0);
  EXPECT_FALSE(result.table().empty());
  // Candidate ids are dense and ordered regardless of scheduling.
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    EXPECT_EQ(result.candidates[i].id, static_cast<int>(i));
  }
}

TEST(Portfolio, ExpiredDeadlineRunsExactlyCandidateZero) {
  // A negative budget counts as already expired and never consults the
  // clock, so the outcome is fully deterministic: candidate 0 (the
  // exact single-shot pipeline) runs, everything else is skipped.
  const auto entry = larcs::programs::catalog().front();
  const auto c = compile_catalog(entry);
  const Topology topo = Topology::hypercube(3);
  PortfolioOptions popts;
  popts.num_seeded = 6;
  popts.time_budget_ms = -1;
  const auto result = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  ASSERT_FALSE(result.candidates.empty());
  EXPECT_EQ(result.best_id, 0);
  EXPECT_TRUE(result.candidates.front().ok);
  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    EXPECT_FALSE(result.candidates[i].ok);
    EXPECT_EQ(result.candidates[i].note, "skipped (deadline)");
  }
  // Best-so-far equals the single-shot mapping bit for bit.
  const auto single = map_program(c.ast, c.cp, topo, {});
  EXPECT_EQ(result.best.mapping.proc_of_task(),
            single.mapping.proc_of_task());
}

TEST(Portfolio, GenerousDeadlineMatchesNoDeadline) {
  const auto entry = larcs::programs::catalog().front();
  const auto c = compile_catalog(entry);
  const Topology topo = Topology::hypercube(3);
  PortfolioOptions without;
  without.num_seeded = 4;
  PortfolioOptions with = without;
  with.time_budget_ms = 60'000;  // far beyond the runtime of this search
  const auto a = portfolio_map_program(c.ast, c.cp, topo, {}, without);
  const auto b = portfolio_map_program(c.ast, c.cp, topo, {}, with);
  EXPECT_EQ(a.best_id, b.best_id);
  EXPECT_EQ(a.best.mapping.proc_of_task(), b.best.mapping.proc_of_task());
  EXPECT_EQ(a.table(), b.table());
}

TEST(Portfolio, SearchDeadlineBoundsTheAnnealChains) {
  // Every candidate gets its own worker, so both SA candidates start at
  // once, and their general-path seed map of 1296 tasks outlasts a 2 ms
  // search budget many times over. A chain that starts after the
  // search deadline must not arm a budget of its own: it makes no
  // proposal.
  const auto* entry = larcs::programs::find("jacobi");
  ASSERT_NE(entry, nullptr);
  const larcs::Program ast = larcs::parse_program(entry->source);
  const larcs::CompiledProgram cp =
      larcs::compile(ast, {{"n", 36}, {"iters", 2}});
  const Topology topo = Topology::mesh(4, 4);
  MapperOptions base;
  base.allow_canned = false;
  base.allow_group = false;
  PortfolioOptions popts;
  popts.num_seeded = 0;
  popts.num_anneal = 2;
  popts.anneal_iterations = 100'000'000;
  popts.time_budget_ms = 2;
  popts.jobs = 4;  // the candidate count
  const auto result = portfolio_map_computation(cp.graph, topo, base, popts);
  ASSERT_EQ(result.candidates.size(), 4u);
  for (const auto& cand : result.candidates) {
    if (cand.label.rfind("anneal seed#", 0) != 0) continue;
    EXPECT_TRUE(cand.skipped || cand.note.rfind("SA 0 proposals", 0) == 0)
        << cand.label << ": " << cand.note;
  }
}

TEST(Portfolio, BestNeverWorseThanSingleShotOnWholeCatalog) {
  const Topology topo = Topology::hypercube(3);
  PortfolioOptions popts;
  popts.num_seeded = 8;
  popts.jobs = 4;  // always multi-worker (even on 1-core machines, so
                   // TSan sees real candidate concurrency)
  for (const auto& entry : larcs::programs::catalog()) {
    SCOPED_TRACE(entry.name);
    const auto c = compile_catalog(entry);
    const auto single = map_program(c.ast, c.cp, topo);
    const auto single_completion =
        compute_metrics(c.cp.graph, single.mapping, topo).completion;
    const auto result = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
    const auto& best =
        result.candidates[static_cast<std::size_t>(result.best_id)];
    EXPECT_LE(best.completion, single_completion);
    // The winner really is the argmin over ok candidates.
    for (const auto& candidate : result.candidates) {
      if (candidate.ok) {
        EXPECT_LE(best.completion, candidate.completion);
      }
    }
  }
}

TEST(Portfolio, MapComputationDispatchesWhenEnabled) {
  const auto c = compile_catalog(larcs::programs::catalog().front());
  const Topology topo = Topology::hypercube(3);
  MapperOptions options;
  options.portfolio = 4;
  options.jobs = 2;
  const auto via_dispatch = map_computation(c.cp.graph, topo, options);
  const auto direct = portfolio_map_computation(
      c.cp.graph, topo, options, portfolio_options_from(options));
  EXPECT_EQ(via_dispatch.details, direct.best.details);
  EXPECT_EQ(via_dispatch.mapping.proc_of_task(),
            direct.best.mapping.proc_of_task());
}

TEST(Portfolio, MapProgramReportsTheSearchOnADegradedMachine) {
  // The redirect runs the portfolio on the healthy sub-machine, and the
  // expired budget reaches it there, so only candidate 0 runs.
  const auto c = compile_catalog(larcs::programs::catalog().front());
  const Topology topo = Topology::mesh(4, 4);
  const FaultedTopology faults(topo, FaultSpec::parse("p5", topo));
  MapperOptions options;
  options.faults = &faults;
  options.portfolio = 4;
  options.time_budget_ms = -1;
  PortfolioReport report;
  const MapperReport mapped = map_program(c.ast, c.cp, topo, options, &report);
  ASSERT_GT(report.candidates.size(), 1u);
  EXPECT_EQ(report.best_id, 0);
  EXPECT_TRUE(report.candidates.front().ok);
  for (std::size_t i = 1; i < report.candidates.size(); ++i) {
    EXPECT_FALSE(report.candidates[i].ok);
    EXPECT_EQ(report.candidates[i].note, "skipped (deadline)");
  }
  EXPECT_EQ(mapped.details, "degraded machine (p5; 15/16 processors "
                            "healthy); " + report.best.details);
}

TEST(Portfolio, MapProgramLeavesTheReportAloneWithoutASearch) {
  const auto c = compile_catalog(larcs::programs::catalog().front());
  PortfolioReport report;
  (void)map_program(c.ast, c.cp, Topology::hypercube(3), {}, &report);
  EXPECT_EQ(report.best_id, -1);
  EXPECT_TRUE(report.candidates.empty());
}

TEST(Portfolio, SeededVariantsDifferAcrossSeeds) {
  const auto c = compile_catalog(larcs::programs::catalog().front());
  const Topology topo = Topology::hypercube(3);
  PortfolioOptions a;
  a.num_seeded = 8;
  PortfolioOptions b = a;
  b.seed = a.seed + 1;
  const auto ra = portfolio_map_computation(c.cp.graph, topo, {}, a);
  const auto rb = portfolio_map_computation(c.cp.graph, topo, {}, b);
  // Different base seeds must give different candidate streams (the
  // labels embed nothing seed-dependent, so compare the mappings).
  bool any_difference = false;
  for (std::size_t i = 0; i < ra.candidates.size(); ++i) {
    if (ra.candidates[i].ok && rb.candidates[i].ok &&
        ra.candidates[i].mapping.proc_of_task() !=
            rb.candidates[i].mapping.proc_of_task()) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

// ------------------------------------------- determinism regression

void expect_identical(const PortfolioReport& a, const PortfolioReport& b) {
  EXPECT_EQ(a.best_id, b.best_id);
  EXPECT_EQ(a.best.details, b.best.details);
  EXPECT_EQ(a.best.strategy, b.best.strategy);
  EXPECT_EQ(a.best.mapping.proc_of_task(), b.best.mapping.proc_of_task());
  EXPECT_EQ(a.table(), b.table());
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const auto& ca = a.candidates[i];
    const auto& cb = b.candidates[i];
    EXPECT_EQ(ca.ok, cb.ok);
    EXPECT_EQ(ca.label, cb.label);
    EXPECT_EQ(ca.note, cb.note);
    EXPECT_EQ(ca.completion, cb.completion);
    EXPECT_EQ(ca.external_ipc, cb.external_ipc);
    EXPECT_EQ(ca.max_load, cb.max_load);
    if (!ca.ok) {
      continue;
    }
    EXPECT_EQ(ca.mapping.proc_of_task(), cb.mapping.proc_of_task());
    ASSERT_EQ(ca.mapping.routing.size(), cb.mapping.routing.size());
    for (std::size_t k = 0; k < ca.mapping.routing.size(); ++k) {
      ASSERT_EQ(ca.mapping.routing[k].route_of_edge.size(),
                cb.mapping.routing[k].route_of_edge.size());
      for (std::size_t e = 0; e < ca.mapping.routing[k].route_of_edge.size();
           ++e) {
        EXPECT_EQ(ca.mapping.routing[k].route_of_edge[e].links,
                  cb.mapping.routing[k].route_of_edge[e].links);
      }
    }
  }
}

TEST(PortfolioDeterminism, IdenticalAcrossWorkerCounts) {
  const std::vector<std::string> programs = {"nbody", "jacobi", "sor",
                                             "binomial_dnc", "cbt_reduce"};
  const auto catalog = larcs::programs::catalog();
  int tested = 0;
  for (const auto& entry : catalog) {
    bool selected = false;
    for (const auto& name : programs) {
      if (entry.name == name) {
        selected = true;
      }
    }
    if (!selected) {
      continue;
    }
    SCOPED_TRACE(entry.name);
    const auto c = compile_catalog(entry);
    const Topology topo = Topology::mesh(4, 4);
    PortfolioOptions serial;
    serial.num_seeded = 12;
    serial.jobs = 1;
    PortfolioOptions wide = serial;
    wide.jobs = 0;  // hardware_concurrency
    PortfolioOptions oversubscribed = serial;
    oversubscribed.jobs = 5;  // more workers than cores on most boxes
    const auto a = portfolio_map_program(c.ast, c.cp, topo, {}, serial);
    const auto b = portfolio_map_program(c.ast, c.cp, topo, {}, wide);
    const auto c3 = portfolio_map_program(c.ast, c.cp, topo, {},
                                          oversubscribed);
    expect_identical(a, b);
    expect_identical(a, c3);
    // Scores must also agree with a fresh METRICS pass on the mapping.
    const auto& best =
        a.candidates[static_cast<std::size_t>(a.best_id)];
    EXPECT_EQ(best.completion,
              compute_metrics(c.cp.graph, best.mapping, topo).completion);
    ++tested;
  }
  EXPECT_EQ(tested, 5) << "catalog no longer contains the 5 pinned programs";
}

// Extension of the worker-count regression to the new candidate
// families: with SA chains and the HEFT candidate enabled the whole
// report -- including every annealed mapping -- must stay bit-identical
// across --jobs 1 / 0 / 5. The SA chains run inside worker threads, so
// this is the test that would catch any shared-state leak between a
// candidate's private SplitMix64 stream and the scheduler.
TEST(PortfolioDeterminism, ExtendedCandidatesIdenticalAcrossWorkerCounts) {
  const std::vector<std::string> programs = {"nbody", "jacobi"};
  const auto catalog = larcs::programs::catalog();
  int tested = 0;
  for (const auto& entry : catalog) {
    bool selected = false;
    for (const auto& name : programs) {
      if (entry.name == name) {
        selected = true;
      }
    }
    if (!selected) {
      continue;
    }
    SCOPED_TRACE(entry.name);
    const auto c = compile_catalog(entry);
    const Topology topo = Topology::mesh(4, 4);
    PortfolioOptions serial;
    serial.num_seeded = 6;
    serial.num_anneal = 3;
    serial.heft = true;
    serial.jobs = 1;
    PortfolioOptions wide = serial;
    wide.jobs = 0;
    PortfolioOptions oversubscribed = serial;
    oversubscribed.jobs = 5;
    const auto a = portfolio_map_program(c.ast, c.cp, topo, {}, serial);
    const auto b = portfolio_map_program(c.ast, c.cp, topo, {}, wide);
    const auto c3 =
        portfolio_map_program(c.ast, c.cp, topo, {}, oversubscribed);
    expect_identical(a, b);
    expect_identical(a, c3);
    // The Pareto report renders from candidate state only, so it must
    // be byte-identical too.
    EXPECT_EQ(a.pareto(), b.pareto());
    EXPECT_EQ(a.pareto(), c3.pareto());
    ++tested;
  }
  EXPECT_EQ(tested, 2) << "catalog no longer contains the pinned programs";
}

// Enabling the extended families appends candidates; it must never
// renumber or relabel the existing ones (the golden ids depend on it).
TEST(PortfolioDeterminism, ExtendedCandidatesOnlyAppend) {
  const auto c = compile_catalog(larcs::programs::catalog().front());
  const Topology topo = Topology::mesh(4, 4);
  PortfolioOptions plain;
  plain.num_seeded = 6;
  PortfolioOptions extended = plain;
  extended.num_anneal = 2;
  extended.heft = true;
  const auto a = portfolio_map_program(c.ast, c.cp, topo, {}, plain);
  const auto b = portfolio_map_program(c.ast, c.cp, topo, {}, extended);
  ASSERT_EQ(b.candidates.size(), a.candidates.size() + 3);
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(b.candidates[i].label, a.candidates[i].label);
    EXPECT_EQ(b.candidates[i].completion, a.candidates[i].completion);
  }
}

// --------------------------------------------------------- Pareto front

TEST(PortfolioPareto, FrontIsMutuallyNonDominatedAndDeterministic) {
  const auto c = compile_catalog(larcs::programs::catalog().front());
  const Topology topo = Topology::mesh(4, 4);
  PortfolioOptions popts;
  popts.num_seeded = 6;
  popts.num_anneal = 3;
  popts.heft = true;
  const auto result = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  const std::vector<int> front = result.pareto_front();
  ASSERT_FALSE(front.empty());
  const auto member = [&](int id) -> const PortfolioCandidate& {
    return result.candidates[static_cast<std::size_t>(id)];
  };

  // Front members are ok candidates and mutually non-dominated on
  // (completion, external IPC, max exec load), all minimised.
  for (const int ia : front) {
    const auto& a = member(ia);
    EXPECT_TRUE(a.ok);
    for (const int ib : front) {
      if (ia == ib) {
        continue;
      }
      const auto& b = member(ib);
      const bool no_worse = b.completion <= a.completion &&
                            b.external_ipc <= a.external_ipc &&
                            b.max_load <= a.max_load;
      const bool strictly_better = b.completion < a.completion ||
                                   b.external_ipc < a.external_ipc ||
                                   b.max_load < a.max_load;
      EXPECT_FALSE(no_worse && strictly_better)
          << "candidate " << ib << " dominates front member " << ia;
    }
  }
  // Every ok candidate NOT on the front is dominated by some member
  // (exact-triple ties count as dominated by the lower id).
  for (const auto& cand : result.candidates) {
    if (!cand.ok) {
      continue;
    }
    bool on_front = false;
    for (const int ia : front) {
      if (ia == cand.id) {
        on_front = true;
      }
    }
    if (on_front) {
      continue;
    }
    bool dominated = false;
    for (const int ia : front) {
      const auto& a = member(ia);
      const bool no_worse = a.completion <= cand.completion &&
                            a.external_ipc <= cand.external_ipc &&
                            a.max_load <= cand.max_load;
      const bool strictly_better = a.completion < cand.completion ||
                                   a.external_ipc < cand.external_ipc ||
                                   a.max_load < cand.max_load ||
                                   a.id < cand.id;
      if (no_worse && strictly_better) {
        dominated = true;
      }
    }
    EXPECT_TRUE(dominated) << "candidate " << cand.id
                           << " is neither on the front nor dominated";
  }

  // The rendered report is deterministic and always shows the winner.
  const std::string report = result.pareto();
  EXPECT_NE(report.find("Pareto front over"), std::string::npos);
  EXPECT_NE(report.find("** best **"), std::string::npos);
  const auto again = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  EXPECT_EQ(again.pareto(), report);
}

// Golden regression: the winning candidate for the paper programs on a
// 4x4 mesh, captured before the closed-form distance oracles and the
// incremental evaluator landed. The perf work must not change a single
// output bit, so the expected values are pinned literally.
struct GoldenPortfolio {
  const char* program;
  int best_id;
  std::int64_t completion;
  std::int64_t external_ipc;
  std::vector<int> proc_of_task;
};

TEST(PortfolioDeterminism, GoldenOutputsUnchangedByPerfWork) {
  const std::vector<GoldenPortfolio> golden = {
      {"nbody", 14, 1188, 4320,
       {11, 10, 13, 8, 4, 1, 2, 7, 15, 14, 12, 9, 5, 6, 3}},
      {"jacobi", 0, 250, 960,
       {0,  0,  1,  1,  2,  2,  3,  3,  0,  0,  1,  1,  2,  2,  3,  3,
        4,  4,  5,  5,  6,  6,  7,  7,  4,  4,  5,  5,  6,  6,  7,  7,
        8,  8,  9,  9,  10, 10, 11, 11, 8,  8,  9,  9,  10, 10, 11, 11,
        12, 12, 13, 13, 14, 14, 15, 15, 12, 12, 13, 13, 14, 14, 15, 15}},
      {"sor", 0, 300, 960,
       {0,  0,  1,  1,  2,  2,  3,  3,  0,  0,  1,  1,  2,  2,  3,  3,
        4,  4,  5,  5,  6,  6,  7,  7,  4,  4,  5,  5,  6,  6,  7,  7,
        8,  8,  9,  9,  10, 10, 11, 11, 8,  8,  9,  9,  10, 10, 11, 11,
        12, 12, 13, 13, 14, 14, 15, 15, 12, 12, 13, 13, 14, 14, 15, 15}},
      {"binomial_dnc", 0, 12, 30,
       {5, 1, 4, 0, 6, 2, 7, 3, 9, 13, 8, 12, 10, 14, 11, 15}},
      {"cbt_reduce", 0, 24, 36,
       {5, 5, 6, 1, 4, 6, 2, 1, 0, 4, 8, 7, 10, 2, 3}},
  };
  const auto catalog = larcs::programs::catalog();
  int tested = 0;
  for (const auto& expected : golden) {
    for (const auto& entry : catalog) {
      if (entry.name != expected.program) {
        continue;
      }
      SCOPED_TRACE(entry.name);
      const auto c = compile_catalog(entry);
      const Topology topo = Topology::mesh(4, 4);
      PortfolioOptions popts;
      popts.num_seeded = 12;
      popts.jobs = 1;
      const auto result =
          portfolio_map_program(c.ast, c.cp, topo, {}, popts);
      EXPECT_EQ(result.best_id, expected.best_id);
      const auto& best =
          result.candidates[static_cast<std::size_t>(result.best_id)];
      EXPECT_EQ(best.completion, expected.completion);
      EXPECT_EQ(best.external_ipc, expected.external_ipc);
      EXPECT_EQ(result.best.mapping.proc_of_task(), expected.proc_of_task);
      ++tested;
    }
  }
  EXPECT_EQ(tested, 5) << "catalog no longer contains the golden programs";
}

}  // namespace
}  // namespace oregami
