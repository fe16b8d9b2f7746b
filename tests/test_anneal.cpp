// Tests for the simulated-annealing placement chain
// (mapper/anneal.hpp): the acceptance-with-undo invariant (never worse
// than the init; bit-identical round-trip when nothing improves), the
// 0/-1/positive deadline idiom, seed determinism, and the portfolio
// candidate wiring.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/anneal.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/metrics/completion_model.hpp"

namespace oregami {
namespace {

struct Compiled {
  larcs::Program ast;
  larcs::CompiledProgram cp;
};

Compiled compile_named(const std::string& name,
                       std::map<std::string, long> bindings) {
  const auto* entry = larcs::programs::find(name);
  if (entry == nullptr) {
    throw std::runtime_error("program not in catalog: " + name);
  }
  larcs::Program ast = larcs::parse_program(entry->source);
  larcs::CompiledProgram cp = larcs::compile(ast, bindings);
  return {std::move(ast), std::move(cp)};
}

// Round-robin initial placement + MM-Route, the usual SA starting
// point in these tests.
Mapping round_robin_init(const TaskGraph& graph, const Topology& topo) {
  std::vector<int> procs(static_cast<std::size_t>(graph.num_tasks()));
  for (int t = 0; t < graph.num_tasks(); ++t) {
    procs[static_cast<std::size_t>(t)] = t % topo.num_procs();
  }
  std::vector<PhaseRouting> routing = mm_route(graph, procs, topo);
  return Mapping(std::move(procs), std::move(routing));
}

// --------------------------------------------- acceptance-with-undo

TEST(Anneal, NeverWorseThanInit) {
  const auto c = compile_named("nbody", {{"n", 15}, {"s", 4}, {"m", 8}});
  const Topology topo = Topology::mesh(4, 4);
  const Mapping init = round_robin_init(c.cp.graph, topo);
  const std::int64_t before =
      completion_time(c.cp.graph, init.proc_of_task(), init.routing, topo);

  AnnealOptions opts;
  opts.iterations = 2000;
  const AnnealResult r = anneal_placement(c.cp.graph, topo,
                                          init.proc_of_task(), init.routing,
                                          opts);
  EXPECT_EQ(r.completion_before, before);
  EXPECT_LE(r.completion_after, r.completion_before);
  // The reported score is the genuine completion-model score of the
  // returned state, not a stale incremental value.
  EXPECT_EQ(r.completion_after,
            completion_time(c.cp.graph, r.mapping.proc_of_task(),
                            r.mapping.routing, topo));
}

// A single task on a symmetric machine: every move is a sideways move
// (completion is unchanged), so no proposal ever strictly improves and
// the undo unwind must round-trip to the exact initial state.
TEST(Anneal, RoundTripsToInitWhenNothingImproves) {
  TaskGraph g;
  g.add_task("only");
  g.add_exec_phase("e", {7});
  g.validate();
  const Topology topo = Topology::ring(4);

  const std::vector<int> init_placement = {2};
  const std::vector<PhaseRouting> init_routing =
      mm_route(g, init_placement, topo);

  AnnealOptions opts;
  opts.iterations = 500;
  const AnnealResult r =
      anneal_placement(g, topo, init_placement, init_routing, opts);
  EXPECT_GT(r.proposed, 0);
  EXPECT_EQ(r.completion_after, r.completion_before);
  EXPECT_EQ(r.mapping.proc_of_task(), init_placement);  // bitwise round-trip
  EXPECT_EQ(r.improvement(), 0);
}

// A hand-built bad init the chain must escape: two tasks exchanging
// volume 100 pinned to opposite ends of a chain. Moving either next to
// the other is a huge downhill step, always accepted.
TEST(Anneal, ImprovesObviouslyPoorInit) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  const int comm = g.add_comm_phase("c");
  g.add_comm_edge(comm, 0, 1, 100);
  g.add_comm_edge(comm, 1, 0, 100);
  g.add_exec_phase("e", {1, 1});
  g.validate();
  const Topology topo = Topology::chain(8);

  const std::vector<int> init_placement = {0, 7};
  const std::vector<PhaseRouting> init_routing =
      mm_route(g, init_placement, topo);

  AnnealOptions opts;
  opts.iterations = 1000;
  const AnnealResult r =
      anneal_placement(g, topo, init_placement, init_routing, opts);
  EXPECT_GT(r.improvement(), 0);
  EXPECT_LT(r.completion_after, r.completion_before);
  // The improved placement really pulled the pair together.
  const std::vector<int>& procs = r.mapping.proc_of_task();
  EXPECT_LT(topo.distance(procs[0], procs[1]), topo.distance(0, 7));
}

TEST(Anneal, DeterministicForFixedSeedAndSensitiveToIt) {
  const auto c = compile_named("jacobi", {{"n", 8}, {"iters", 10}});
  const Topology topo = Topology::mesh(4, 4);
  const Mapping init = round_robin_init(c.cp.graph, topo);

  AnnealOptions opts;
  opts.iterations = 1500;
  opts.seed = 0xABCDEFull;
  const AnnealResult a = anneal_placement(
      c.cp.graph, topo, init.proc_of_task(), init.routing, opts);
  const AnnealResult b = anneal_placement(
      c.cp.graph, topo, init.proc_of_task(), init.routing, opts);
  EXPECT_EQ(a.mapping.proc_of_task(), b.mapping.proc_of_task());
  EXPECT_EQ(a.completion_after, b.completion_after);
  EXPECT_EQ(a.proposed, b.proposed);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.uphill, b.uphill);
}

TEST(Anneal, ZeroIterationsReturnsInitUntouched) {
  const auto c = compile_named("jacobi", {{"n", 8}, {"iters", 10}});
  const Topology topo = Topology::mesh(4, 4);
  const Mapping init = round_robin_init(c.cp.graph, topo);

  AnnealOptions opts;
  opts.iterations = 0;
  const AnnealResult r = anneal_placement(
      c.cp.graph, topo, init.proc_of_task(), init.routing, opts);
  EXPECT_EQ(r.proposed, 0);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.mapping.proc_of_task(), init.proc_of_task());
  EXPECT_EQ(r.completion_after, r.completion_before);
}

// ----------------------------------------------------- deadline idiom

TEST(Anneal, DeadlineIdiom) {
  const auto c = compile_named("nbody", {{"n", 15}, {"s", 4}, {"m", 8}});
  const Topology topo = Topology::mesh(4, 4);
  const Mapping init = round_robin_init(c.cp.graph, topo);

  // Budget < 0: deterministically expired -- no proposals run, the
  // init comes back bit-identical, and deadline_hit stays false (only
  // a *positive* budget that fires mid-chain reports a hit).
  AnnealOptions expired;
  expired.iterations = 2000;
  const AnnealResult r_expired =
      anneal_placement(c.cp.graph, topo, init.proc_of_task(), init.routing,
                       expired, Deadline(-1));
  EXPECT_EQ(r_expired.proposed, 0);
  EXPECT_EQ(r_expired.accepted, 0);
  EXPECT_FALSE(r_expired.deadline_hit);
  EXPECT_EQ(r_expired.mapping.proc_of_task(), init.proc_of_task());
  EXPECT_EQ(r_expired.completion_after, r_expired.completion_before);

  // Budget 0 (never read the clock) and a generous positive budget
  // (never expires) must agree proposal for proposal.
  AnnealOptions none;
  none.iterations = 1000;
  const AnnealResult r_none = anneal_placement(
      c.cp.graph, topo, init.proc_of_task(), init.routing, none);
  EXPECT_FALSE(r_none.deadline_hit);
  EXPECT_EQ(r_none.proposed, 1000);

  const AnnealResult r_generous =
      anneal_placement(c.cp.graph, topo, init.proc_of_task(), init.routing,
                       none, Deadline(60'000));
  EXPECT_EQ(r_generous.mapping.proc_of_task(), r_none.mapping.proc_of_task());
  EXPECT_EQ(r_generous.completion_after, r_none.completion_after);
  EXPECT_EQ(r_generous.proposed, r_none.proposed);
}

// ------------------------------------------------- portfolio candidate

TEST(Anneal, RunsAsPortfolioCandidatesBehindAnnealFlag) {
  const auto c = compile_named("nbody", {{"n", 15}, {"s", 4}, {"m", 8}});
  const Topology topo = Topology::mesh(4, 4);
  PortfolioOptions popts;
  popts.num_seeded = 2;
  popts.num_anneal = 3;
  const auto result = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  int anneal_candidates = 0;
  for (const auto& cand : result.candidates) {
    if (cand.label.rfind("anneal seed#", 0) == 0) {
      ++anneal_candidates;
      EXPECT_TRUE(cand.ok);
      EXPECT_EQ(cand.strategy, MapStrategy::Anneal);
      EXPECT_GT(cand.completion, 0);
    }
  }
  EXPECT_EQ(anneal_candidates, 3);

  // Off by default.
  PortfolioOptions off;
  off.num_seeded = 2;
  const auto plain = portfolio_map_program(c.ast, c.cp, topo, {}, off);
  for (const auto& cand : plain.candidates) {
    EXPECT_NE(cand.label.rfind("anneal seed#", 0), 0u);
  }
}

}  // namespace
}  // namespace oregami
