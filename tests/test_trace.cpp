// Tests for the structured pipeline tracer (support/trace) and its
// integration with the portfolio mapper.
//
// The two contracts under test:
//   * disabled tracing is free -- no allocations, no recorded events,
//     and a traced portfolio run produces byte-identical results to an
//     untraced one;
//   * enabled tracing is deterministic -- the canonical export is
//     byte-identical across worker counts, because events are keyed by
//     (span path, per-thread sequence) and every concurrent lane owns a
//     distinct path prefix.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/support/thread_pool.hpp"
#include "oregami/support/trace.hpp"

// ------------------------------------------------- allocation counting
//
// Global counting overrides so the disabled-overhead test can assert
// "zero allocations" instead of eyeballing the code. Relaxed atomics:
// the counter only needs to be exact while the test runs single-
// threaded code.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms (std::stable_sort's temporary buffer) must allocate
// from malloc too, or the replaced delete frees memory it never owned.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace oregami {
namespace {

struct Compiled {
  larcs::Program ast;
  larcs::CompiledProgram cp;
};

Compiled compile_program(const std::string& name) {
  for (const auto& entry : larcs::programs::catalog()) {
    if (entry.name != name) {
      continue;
    }
    std::map<std::string, long> bindings(entry.example_bindings.begin(),
                                         entry.example_bindings.end());
    larcs::Program ast = larcs::parse_program(entry.source);
    larcs::CompiledProgram cp = larcs::compile(ast, bindings);
    return {std::move(ast), std::move(cp)};
  }
  throw std::runtime_error("program not in catalog: " + name);
}

/// Every test leaves the tracer disabled and empty for the next one.
struct TraceReset {
  TraceReset() {
    trace::disable();
    trace::clear();
  }
  ~TraceReset() {
    trace::disable();
    trace::clear();
  }
};

// ------------------------------------------------------- disabled mode

TEST(Trace, DisabledTracePointsAllocateNothingAndRecordNothing) {
  const TraceReset reset;
  ASSERT_FALSE(trace::enabled());
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    const trace::Span span("span_name");
    trace::counter("counter_name", i);
    trace::instant("instant_name");
    const trace::LaneScope lane(
        trace::enabled() ? std::string("lane") : std::string(), 1);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(before, after) << "disabled trace points must not allocate";
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST(Trace, TracedPortfolioRunMatchesUntracedGolden) {
  const TraceReset reset;
  const auto c = compile_program("nbody");
  const Topology topo = Topology::mesh(4, 4);
  PortfolioOptions popts;
  popts.num_seeded = 12;
  popts.jobs = 1;

  const auto untraced = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  trace::enable();
  const auto traced = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  trace::disable();

  // Tracing must be observation only: identical table, winner, mapping.
  EXPECT_EQ(untraced.table(), traced.table());
  EXPECT_EQ(untraced.best_id, traced.best_id);
  EXPECT_EQ(untraced.best.mapping.proc_of_task(),
            traced.best.mapping.proc_of_task());
  EXPECT_EQ(untraced.win_reason, traced.win_reason);
  EXPECT_EQ(untraced.explain(), traced.explain());
  EXPECT_FALSE(trace::snapshot().empty());
}

// -------------------------------------------------- span correctness

TEST(Trace, NestedSpansBuildSlashPathsWithDepths) {
  const TraceReset reset;
  trace::enable();
  {
    const trace::Span outer("outer");
    trace::counter("hits", 7);
    {
      const trace::Span inner("inner");
      trace::instant("note", "k=v");
    }
  }
  trace::disable();

  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Canonical order is (path, seq), so paths arrive sorted.
  EXPECT_EQ(events[0].path, "outer");
  EXPECT_EQ(events[0].kind, trace::Event::Kind::Span);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].path, "outer/hits");
  EXPECT_EQ(events[1].kind, trace::Event::Kind::Counter);
  EXPECT_EQ(events[1].value, 7);
  EXPECT_EQ(events[2].path, "outer/inner");
  EXPECT_EQ(events[2].kind, trace::Event::Kind::Span);
  EXPECT_EQ(events[2].depth, 1);
  EXPECT_EQ(events[3].path, "outer/inner/note");
  EXPECT_EQ(events[3].kind, trace::Event::Kind::Instant);
  EXPECT_EQ(events[3].args, "k=v");
  // The outer span's duration covers the inner one.
  EXPECT_GE(events[0].dur_us, events[2].dur_us);
}

TEST(Trace, LaneScopeRebasesPathAndLane) {
  const TraceReset reset;
  trace::enable();
  {
    const trace::LaneScope lane("portfolio/cand#3", 4);
    const trace::Span span("contract");
    trace::counter("clusters", 8);
  }
  {
    const trace::Span span("after");
  }
  trace::disable();

  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].path, "after");
  EXPECT_EQ(events[0].lane, 0);
  EXPECT_EQ(events[1].path, "portfolio/cand#3/contract");
  EXPECT_EQ(events[1].lane, 4);
  EXPECT_EQ(events[1].depth, 2);
  EXPECT_EQ(events[2].path, "portfolio/cand#3/contract/clusters");
  EXPECT_EQ(events[2].value, 8);
}

// ------------------------------------------------------- determinism

std::string canonical_trace_of_run(const Compiled& c, const Topology& topo,
                                   int jobs) {
  trace::clear();
  trace::enable();
  PortfolioOptions popts;
  popts.num_seeded = 12;
  popts.jobs = jobs;
  (void)portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  trace::disable();
  // Zero the volatile fields, as tools/check_trace.py strips them.
  std::vector<trace::Event> events = trace::snapshot();
  for (trace::Event& e : events) {
    e.start_us = 0;
    e.dur_us = 0;
    e.worker = 0;
  }
  std::ostringstream out;
  trace::write_chrome_json(out, events);
  trace::clear();
  return out.str();
}

TEST(Trace, CanonicalExportIdenticalAcrossWorkerCounts) {
  const TraceReset reset;
  const auto c = compile_program("nbody");
  const Topology topo = Topology::mesh(4, 4);
  const std::string serial = canonical_trace_of_run(c, topo, 1);
  const std::string wide = canonical_trace_of_run(c, topo, 0);
  const std::string oversubscribed = canonical_trace_of_run(c, topo, 5);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, wide);
  EXPECT_EQ(serial, oversubscribed);
}

// ------------------------------------------------------ Chrome export

TEST(Trace, ChromeJsonIsWellFormed) {
  const TraceReset reset;
  trace::enable();
  {
    const trace::Span span("phase", "detail \"quoted\"\nline");
    trace::counter("value", -3);
    trace::instant("tick");
    trace::instant("control", "a\rb\x01" "c");
  }
  trace::disable();

  std::ostringstream out;
  trace::write_chrome_json(out, trace::snapshot());
  const std::string json = out.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
  // One object per event, correct phase letters, escaped payload.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": -3"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  // Control bytes escape as in the wire format: \r by name, the rest
  // as \u00XX.
  EXPECT_NE(json.find("\"detail\": \"a\\rb\\u0001c\""), std::string::npos);
}

// --------------------------------------------------------- provenance

TEST(Trace, ExplainNamesTheFig2NbodyWinnerWithPhaseBreakdown) {
  const auto c = compile_program("nbody");
  const Topology topo = Topology::mesh(4, 4);
  PortfolioOptions popts;
  popts.num_seeded = 12;
  popts.jobs = 1;
  const auto pf = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  const std::string report = pf.explain();

  // Pinned against the golden nbody run (mesh:4x4, 12 seeded, jobs=1).
  EXPECT_NE(report.find("decision provenance: portfolio of 17 candidates"),
            std::string::npos);
  EXPECT_NE(report.find("winner: candidate 14 'general B=1 seed#9'"),
            std::string::npos);
  EXPECT_NE(report.find("tie-break level 1 (completion)"),
            std::string::npos);
  EXPECT_NE(report.find("modelled completion: 1188  external IPC: 4320"),
            std::string::npos);
  // Per-phase decomposition rows (Fig-2 n-body has ring/chordal comm
  // phases and two compute phases).
  EXPECT_NE(report.find("ring"), std::string::npos);
  EXPECT_NE(report.find("chordal"), std::string::npos);
  EXPECT_NE(report.find("comm"), std::string::npos);
  EXPECT_NE(report.find("exec"), std::string::npos);
  // explain() with no timing flag must be deterministic: run it twice.
  const auto again = portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  EXPECT_EQ(report, again.explain());
}

TEST(Trace, ExplainReportsTieBreakLevels) {
  // Two identical candidates except id -> exact tie, level 3.
  PortfolioReport report;
  report.best_id = 0;
  for (int id = 0; id < 2; ++id) {
    PortfolioCandidate c;
    c.id = id;
    c.ok = true;
    c.label = "same";
    c.completion = 100;
    c.external_ipc = 10;
    report.candidates.push_back(std::move(c));
  }
  // record_win_reason is internal; exercise it through explain()'s
  // inputs instead: build the reason the public way via run results is
  // covered above, here we just check the formatting contract on the
  // structured fields.
  report.tie_level = 3;
  report.win_reason = "exact (completion, external IPC) tie";
  const std::string text = report.explain();
  EXPECT_NE(text.find("winner: candidate 0"), std::string::npos);
  EXPECT_NE(text.find("exact (completion, external IPC) tie"),
            std::string::npos);
}

// ----------------------------------------- worker survival (satellite)

TEST(Trace, EventsSurviveAThrowingPoolTask) {
  const TraceReset reset;
  trace::enable();
  {
    ThreadPool pool(1, "trace-test");
    auto bad = pool.submit([] {
      const trace::Span span("doomed");
      trace::counter("progress", 1);
      throw std::runtime_error("task exploded");
    });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The same worker must still be alive and run queued tasks.
    auto ok = pool.submit([] { return ThreadPool::current_worker_index(); });
    EXPECT_EQ(ok.get(), 0);
  }
  trace::disable();

  const auto events = trace::snapshot();
  // RAII closed the span during unwinding, and the buffered events are
  // retained even though the task failed and the pool is gone: buffers
  // are owned by the global registry, not the worker thread.
  bool saw_counter = false;
  bool saw_span = false;
  for (const auto& e : events) {
    if (e.path == "doomed/progress" && e.value == 1) {
      saw_counter = true;
      EXPECT_GE(e.worker, 0);
    }
    if (e.path == "doomed" && e.kind == trace::Event::Kind::Span) {
      saw_span = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_span);
}

TEST(Trace, WorkerIndexIsStableInsidePoolAndAbsentOutside) {
  EXPECT_EQ(ThreadPool::current_worker_index(), -1);
  ThreadPool pool(3, "idx-test");
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(
        pool.submit([] { return ThreadPool::current_worker_index(); }));
  }
  for (auto& f : futures) {
    const int index = f.get();
    EXPECT_GE(index, 0);
    EXPECT_LT(index, 3);
  }
}

// ----------------------------------------------------------- summary

TEST(Trace, SummaryTreeShowsLanePrefixesAndCounters) {
  const TraceReset reset;
  trace::enable();
  {
    const trace::LaneScope lane("portfolio/cand#2", 3);
    const trace::Span span("embed");
    trace::counter("steps", 5);
  }
  trace::disable();

  const std::string tree = trace::summary_tree(trace::snapshot());
  // Implied ancestors print as name-only nodes; counters as "#name".
  EXPECT_NE(tree.find("portfolio\n"), std::string::npos);
  EXPECT_NE(tree.find("cand#2\n"), std::string::npos);
  EXPECT_NE(tree.find("embed"), std::string::npos);
  EXPECT_NE(tree.find("#steps = 5"), std::string::npos);
}

}  // namespace
}  // namespace oregami
