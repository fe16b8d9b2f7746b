// The mapping server end to end: wire parsing/formatting, the serve()
// loop's determinism contract (order-normalized result streams are
// byte-identical across worker counts), per-job error handling, and
// warm-cache reuse across serve() calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "oregami/larcs/programs.hpp"
#include "oregami/server/persist.hpp"
#include "oregami/server/server.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/server/wire.hpp"
#include "oregami/support/failpoint.hpp"
#include "oregami/support/metrics.hpp"

namespace oregami::server {
namespace {

void expect_contains(const std::string& haystack,
                     const std::string& needle) {
  EXPECT_NE(haystack.find(needle), std::string::npos)
      << "expected to find: " << needle << "\nin: " << haystack;
}

std::int64_t series_value(const metrics::Snapshot& snap,
                          const std::string& name) {
  const metrics::SeriesValue* s = snap.find(name);
  return s == nullptr ? -1 : s->scalar;
}

// ----------------------------------------------------------- parsing

TEST(WireParse, AcceptsFullJob) {
  const WireJob job = parse_job(
      R"({"id":7,"program":"nbody","bind":{"n":15,"s":4,"m":8},)"
      R"("topology":"mesh:4x4","options":{"portfolio":8,"anneal":2,)"
      R"("heft":true,"seed":123},"deadline_ms":50})",
      3);
  EXPECT_EQ(job.id, "7");
  EXPECT_EQ(job.line, 3u);
  EXPECT_EQ(job.program, "nbody");
  EXPECT_EQ(job.topology, "mesh:4x4");
  EXPECT_EQ(job.bindings.at("n"), 15);
  EXPECT_EQ(job.bindings.at("s"), 4);
  EXPECT_EQ(job.options.portfolio, 8);
  EXPECT_EQ(job.options.anneal, 2);
  EXPECT_TRUE(job.options.heft);
  EXPECT_EQ(job.options.portfolio_seed, 123u);
  EXPECT_EQ(job.deadline_ms, 50);
  EXPECT_EQ(job.options.jobs, 1);  // server default: no per-job fan-out
}

TEST(WireParse, StringAndNumericIdsBothEchoCanonically) {
  EXPECT_EQ(parse_job(R"({"id":"abc","larcs":"x","topology":"ring:2"})", 1)
                .id,
            "abc");
  EXPECT_EQ(parse_job(R"({"id":42,"larcs":"x","topology":"ring:2"})", 1).id,
            "42");
}

void expect_parse_error(const std::string& line, int code,
                        const std::string& needle) {
  try {
    (void)parse_job(line, 9);
    FAIL() << "expected WireError for: " << line;
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    expect_contains(e.what(), needle);
  }
}

TEST(WireParse, RejectsBadJobsWithQuotableMessages) {
  expect_parse_error("not json", kJobMalformed, "JSON error");
  expect_parse_error("[1,2]", kJobMalformed, "must be a JSON object");
  expect_parse_error(R"({"program":"x","topology":"ring:2"})",
                     kJobMalformed, "missing required field \"id\"");
  expect_parse_error(R"({"id":"","program":"x","topology":"ring:2"})",
                     kJobMalformed, "\"id\" must not be empty");
  expect_parse_error(R"({"id":1,"program":"x"})", kJobMalformed,
                     "missing required field \"topology\"");
  expect_parse_error(R"({"id":1,"topology":"ring:2"})", kJobMalformed,
                     "exactly one of");
  expect_parse_error(
      R"({"id":1,"program":"x","larcs":"y","topology":"ring:2"})",
      kJobMalformed, "mutually exclusive");
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2","frob":1})",
      kJobMalformed, "unknown field \"frob\"");
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2","bind":{"n":1.5}})",
      kJobMalformed, "bind.n");
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2",)"
      R"("options":{"warp":9}})",
      kJobMalformed, "unknown option \"warp\"");
  // The CLI's flag-combination contract, enforced per job.
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2",)"
      R"("options":{"anneal":2}})",
      kJobMalformed, "requires options.portfolio");
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2",)"
      R"("options":{"multilevel":-1,"portfolio":4}})",
      kJobMalformed, "incompatible");
  // Every parse error names the job once an id is known.
  expect_parse_error(
      R"({"id":7,"program":"x","topology":"ring:2","frob":1})",
      kJobMalformed, "job 7:");
}

TEST(WireParse, BudgetsPastTwoToTheFortyMillisecondsAreRejected) {
  // A larger budget would overflow steady_clock's nanosecond count when
  // added to now().
  const std::string head = R"({"id":1,"program":"x","topology":"ring:2",)";
  const WireJob at_bound = parse_job(
      head + R"("deadline_ms":1099511627776,)"
             R"("options":{"budget_ms":1099511627776}})",
      1);
  EXPECT_EQ(at_bound.deadline_ms, std::int64_t{1} << 40);
  EXPECT_EQ(at_bound.options.time_budget_ms, std::int64_t{1} << 40);
  expect_parse_error(head + R"("deadline_ms":1099511627777})",
                     kJobMalformed, "deadline_ms must be <= 1099511627776");
  expect_parse_error(head + R"("options":{"budget_ms":1099511627777}})",
                     kJobMalformed,
                     "options.budget_ms must be <= 1099511627776");
}

TEST(WireParse, NestingPastSixtyFourLevelsIsMalformed) {
  // Each level is one recursive call, so 30,000 levels would overflow
  // the stack without the cap.
  const std::string deep(30000, '[');
  expect_parse_error(deep + std::string(30000, ']'), kJobMalformed,
                     "nesting deeper than 64 levels");
  std::string objects;
  for (int i = 0; i < 30000; ++i) {
    objects += R"({"a":)";
  }
  expect_parse_error(R"({"id":1,"program":"x","topology":"ring:2","bind":)" +
                         objects,
                     kJobMalformed, "nesting deeper than 64 levels");
  // 65 levels cross the cap; 64 parse, and the line is then rejected
  // for its shape.
  expect_parse_error(std::string(65, '[') + std::string(65, ']'),
                     kJobMalformed, "nesting deeper than 64 levels");
  expect_parse_error(std::string(64, '[') + std::string(64, ']'),
                     kJobMalformed, "must be a JSON object");
}

// -------------------------------------------------------- formatting

TEST(WireFormat, JsonEscapeCoversControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(WireFormat, OkResultFieldOrderIsStable) {
  CachedOutcome outcome;
  outcome.ok = true;
  outcome.strategy = "canned";
  outcome.completion = 10;
  outcome.external_ipc = 20;
  outcome.max_load = 5;
  outcome.proc_of_task = {0, 1};
  EXPECT_EQ(format_ok_result("7", 0xabcULL, true, outcome, 1.5),
            "{\"id\":\"7\",\"status\":\"ok\","
            "\"digest\":\"0000000000000abc\",\"cache\":\"hit\","
            "\"strategy\":\"canned\",\"completion\":10,"
            "\"external_ipc\":20,\"max_load\":5,\"procs\":[0,1],"
            "\"wall_ms\":1.500}");
}

TEST(WireFormat, ErrorResultRendersNullIdWhenUnknown) {
  EXPECT_EQ(format_error_result("", 4, kJobMalformed, "bad \"x\""),
            "{\"id\":null,\"line\":4,\"status\":\"error\",\"code\":2,"
            "\"error\":\"bad \\\"x\\\"\"}");
}

TEST(WireFormat, ErrorResultCarriesRetryAfterHintWhenGiven) {
  EXPECT_EQ(format_error_result("9", 2, kJobRejected, "queue full", 35),
            "{\"id\":\"9\",\"line\":2,\"status\":\"error\",\"code\":5,"
            "\"retry_after_ms\":35,\"error\":\"queue full\"}");
  // The default omits the field entirely (non-rejection errors).
  EXPECT_EQ(format_error_result("9", 2, kJobRejected, "queue full"),
            "{\"id\":\"9\",\"line\":2,\"status\":\"error\",\"code\":5,"
            "\"error\":\"queue full\"}");
}

// ------------------------------------------------------------- serve

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// Normalizes a result stream for cross-run comparison: sorts by line
/// text (result ids are unique, so this is a stable order) and blanks
/// the one schedule-dependent bit -- which of several *identical
/// concurrent* jobs computed vs joined (per-line "cache" label).
std::vector<std::string> normalized(const std::string& text) {
  std::vector<std::string> lines = split_lines(text);
  for (auto& line : lines) {
    for (const char* label : {"\"cache\":\"hit\"", "\"cache\":\"miss\""}) {
      const auto at = line.find(label);
      if (at != std::string::npos) {
        line.replace(at, std::string(label).size(), "\"cache\":\"?\"");
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// A 53-line mixed stream: every catalog program (with its example
/// bindings), duplicates that must hit the cache, three respellings of
/// the jacobi-on-mesh job (ids 31-33; its canonical line is id 3), and
/// a tail of malformed / unknown-input / infeasible / expired jobs.
std::string mixed_stream() {
  std::string stream;
  int id = 0;
  const auto& catalog = larcs::programs::catalog();
  auto job_line = [&](const larcs::programs::CatalogEntry& entry,
                      const std::string& topo) {
    std::string line =
        "{\"id\":" + std::to_string(++id) + ",\"program\":\"" + entry.name +
        "\",\"bind\":{";
    bool first = true;
    for (const auto& [name, value] : entry.example_bindings) {
      if (!first) {
        line += ',';
      }
      first = false;
      line += "\"" + name + "\":" + std::to_string(value);
    }
    line += "},\"topology\":\"" + topo + "\"}\n";
    stream += line;
  };
  for (int round = 0; round < 3; ++round) {  // 30 jobs, 20 duplicates
    for (const auto& entry : catalog) {
      job_line(entry, round == 1 ? "ring:16" : "mesh:4x4");
    }
  }
  // The respellings: inline source, reversed bind, an added
  // options.jobs. All three must land on the canonical digest.
  stream += "{\"id\":" + std::to_string(++id) + ",\"larcs\":\"" +
            json_escape(larcs::programs::find("jacobi")->source) +
            "\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}\n";
  stream += "{\"id\":" + std::to_string(++id) +
            ",\"program\":\"jacobi\",\"bind\":{\"iters\":10,\"n\":8},"
            "\"topology\":\"mesh:4x4\"}\n";
  stream += "{\"id\":" + std::to_string(++id) +
            ",\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
            "\"topology\":\"mesh:4x4\",\"options\":{\"jobs\":4}}\n";
  // 20 deterministic failures of every flavour.
  for (int i = 0; i < 5; ++i) {
    stream += "{\"id\":" + std::to_string(++id) + "}\n";  // malformed
    stream += "{\"id\":" + std::to_string(++id) +
              ",\"program\":\"nope\",\"topology\":\"mesh:4x4\"}\n";
    stream += "{\"id\":" + std::to_string(++id) +
              ",\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
              "\"topology\":\"taurus\"}\n";
    stream += "{\"id\":" + std::to_string(++id) +
              ",\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
              "\"topology\":\"mesh:4x4\",\"deadline_ms\":-1}\n";
  }
  return stream;
}

ServerOptions deterministic_options(int jobs) {
  ServerOptions options;
  options.jobs = jobs;
  options.deterministic = true;
  options.queue_capacity = 1 << 10;  // never reject in this test
  return options;
}

/// The result line of job `id` without its id, so the lines of jobs
/// that mean the same mapping compare equal; empty when absent.
std::string payload_of(const std::vector<std::string>& lines,
                       const std::string& id) {
  const std::string prefix = "{\"id\":\"" + id + "\",";
  for (const auto& line : lines) {
    if (line.rfind(prefix, 0) == 0) {
      return line.substr(prefix.size());
    }
  }
  return "";
}

TEST(Serve, MixedStreamIsDeterministicAcrossWorkerCounts) {
  const std::string stream = mixed_stream();
  ASSERT_EQ(split_lines(stream).size(), 53u);

  std::istringstream in1(stream);
  std::ostringstream out1;
  const ServerStats s1 = serve(in1, out1, deterministic_options(1));

  std::istringstream in3(stream);
  std::ostringstream out3;
  const ServerStats s3 = serve(in3, out3, deterministic_options(3));

  EXPECT_EQ(normalized(out1.str()), normalized(out3.str()));

  // Accounting is deterministic too: 20 unique mapping jobs (10
  // programs x 2 topologies), 13 duplicates (3 of them respelled), 20
  // failures of which the 5 bad-topology and 5 unknown-program jobs
  // fail before the cache.
  EXPECT_EQ(s1.lines, 53);
  EXPECT_EQ(s1.ok, 33);
  EXPECT_EQ(s1.errors, 20);
  EXPECT_EQ(s1.rejected, 0);
  EXPECT_EQ(s1.cache_misses, 20);
  EXPECT_EQ(s1.cache_hits, 13);
  // The respelled lines carry the canonical digest and payload.
  const std::vector<std::string> lines = normalized(out1.str());
  const std::string canonical = payload_of(lines, "3");
  ASSERT_NE(canonical, "");
  for (const char* id : {"31", "32", "33"}) {
    EXPECT_EQ(payload_of(lines, id), canonical) << "id " << id;
  }
  EXPECT_EQ(s3.lines, s1.lines);
  EXPECT_EQ(s3.ok, s1.ok);
  EXPECT_EQ(s3.errors, s1.errors);
  EXPECT_EQ(s3.cache_misses, s1.cache_misses);
  EXPECT_EQ(s3.cache_hits, s1.cache_hits);
}

TEST(Serve, RepeatRunsKeepPerLineCacheLabelsWithOneWorker) {
  // With one worker, jobs execute in admission order, so even the
  // per-line hit/miss labels are reproducible. Only the interleaving
  // of reader-emitted parse-error lines with worker-emitted results is
  // schedule-dependent, so compare sorted (labels NOT blanked).
  const std::string stream = mixed_stream();
  std::vector<std::string> first;
  for (int run = 0; run < 2; ++run) {
    std::istringstream in(stream);
    std::ostringstream out;
    (void)serve(in, out, deterministic_options(1));
    std::vector<std::string> lines = split_lines(out.str());
    std::sort(lines.begin(), lines.end());
    if (run == 0) {
      first = std::move(lines);
    } else {
      EXPECT_EQ(lines, first);
    }
  }
}

TEST(Serve, ErrorLinesCarryTheContractCodes) {
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"taurus\"}\n"
      "garbage\n"
      "{\"id\":3,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\",\"deadline_ms\":-1}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.errors, 3);
  const std::string text = out.str();
  expect_contains(text, "\"code\":3");  // bad topology
  expect_contains(text, "unknown or invalid topology \\\"taurus\\\"");
  expect_contains(text, "\"code\":2");  // malformed line
  expect_contains(text, "\"code\":6");  // expired deadline
  expect_contains(text, "deadline expired");
}

/// The outcome fields of a result line, from "strategy" up to the
/// timing; empty when absent.
std::string outcome_of(const std::string& line) {
  const auto from = line.find("\"strategy\"");
  const auto to = line.find(",\"wall_ms\"");
  if (from == std::string::npos || to == std::string::npos) {
    return "";
  }
  return line.substr(from, to - from);
}

TEST(Serve, ExpiredBudgetBoundsThePortfolioSearch) {
  // budget_ms < 0 leaves the portfolio only its candidate 0, the
  // single-shot pipeline, so the job returns that pipeline's outcome.
  const std::string job =
      "\"program\":\"nbody\",\"bind\":{\"n\":15,\"s\":4,\"m\":8},"
      "\"topology\":\"mesh:4x4\",";
  std::istringstream in("{\"id\":1," + job +
                        "\"options\":{\"portfolio\":4,\"budget_ms\":-1}}\n"
                        "{\"id\":2," + job + "\"options\":{}}\n");
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.ok, 2);
  const std::vector<std::string> lines = normalized(out.str());
  ASSERT_EQ(lines.size(), 2u);
  const std::string searched = outcome_of(lines[0]);
  expect_contains(searched, "\"completion\":1856,");
  EXPECT_EQ(searched, outcome_of(lines[1]));
}

TEST(Serve, BlankLinesAreKeepAlivesNotJobs) {
  std::istringstream in("\n  \t\n\n");
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.lines, 0);
  EXPECT_EQ(out.str(), "");
}

TEST(Serve, ExternalCacheStaysWarmAcrossCalls) {
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n"
      "{\"id\":2,\"program\":\"sor\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";
  ResultCache cache(64, 4);
  ServerOptions options = deterministic_options(2);
  options.cache = &cache;

  std::istringstream cold_in(stream);
  std::ostringstream cold_out;
  const ServerStats cold = serve(cold_in, cold_out, options);
  EXPECT_EQ(cold.cache_misses, 2);
  EXPECT_EQ(cold.cache_hits, 0);

  std::istringstream warm_in(stream);
  std::ostringstream warm_out;
  const ServerStats warm = serve(warm_in, warm_out, options);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.cache_hits, 2);

  // Identical payloads modulo the hit/miss label.
  EXPECT_EQ(normalized(cold_out.str()), normalized(warm_out.str()));
}

/// The 16 hex digits of every result line's digest, in output order.
std::vector<std::string> digests_of(const std::string& text) {
  std::vector<std::string> digests;
  for (const auto& line : split_lines(text)) {
    const auto at = line.find("\"digest\":\"");
    if (at != std::string::npos) {
      digests.push_back(line.substr(at + 10, 16));
    }
  }
  return digests;
}

TEST(Serve, RewrittenProgramFileMapsItsNewContents) {
  // One cache across two serve() calls; the file changes in between.
  // Each call maps the file, then the catalog program it now holds: the
  // two lines must share a digest, so the second call cannot be served
  // from an alias of the first file's contents.
  const std::string path = testing::TempDir() + "serve_rewritten.larcs";
  ResultCache cache(64, 4);
  ServerOptions options = deterministic_options(1);
  options.cache = &cache;
  std::vector<std::string> first;
  for (const char* program : {"jacobi", "sor"}) {
    std::ofstream(path) << larcs::programs::find(program)->source;
    std::istringstream in(
        "{\"id\":1,\"program_file\":\"" + json_escape(path) +
        "\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}\n"
        "{\"id\":2,\"program\":\"" + std::string(program) +
        "\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}\n");
    std::ostringstream out;
    const ServerStats stats = serve(in, out, options);
    EXPECT_EQ(stats.ok, 2) << program;
    EXPECT_EQ(stats.cache_misses, 1) << program;
    const std::vector<std::string> digests = digests_of(out.str());
    ASSERT_EQ(digests.size(), 2u) << program;
    EXPECT_EQ(digests[0], digests[1]) << program;
    if (first.empty()) {
      first = digests;
    } else {
      EXPECT_NE(digests[0], first[0]);
    }
  }
  std::remove(path.c_str());
}

TEST(Serve, AliasOfAnEvictedDigestRecomputesWithOneMiss) {
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";
  ResultCache cache(1, 1);
  ServerOptions options = deterministic_options(1);
  options.cache = &cache;
  std::istringstream cold_in(stream);
  std::ostringstream cold_out;
  (void)serve(cold_in, cold_out, options);
  ASSERT_EQ(cache.stats().aliases, 1);

  // Evict the job's entry but not its alias.
  ASSERT_EQ(cache.insert(0, std::make_shared<CachedOutcome>()), 1);
  metrics::reset_values();
  metrics::enable();
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, options);
  const metrics::Snapshot snap = metrics::snapshot();
  metrics::disable();

  EXPECT_EQ(
      series_value(snap, "oregami_server_alias_total{result=\"hit\"}"), 1);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 0);
  // The recompute's insert evicts the placeholder in turn.
  EXPECT_EQ(stats.cache_evictions, 1);
  EXPECT_EQ(normalized(out.str()), normalized(cold_out.str()));
}

TEST(Serve, FailedCompilesReturnCodeThreeEveryTime) {
  // Unknown program, bad topology, LaRCS syntax error: none of them
  // may leave an alias that a repeat could hit.
  const std::string once =
      "{\"id\":1,\"program\":\"nope\",\"topology\":\"mesh:4x4\"}\n"
      "{\"id\":2,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"taurus\"}\n"
      "{\"id\":3,\"larcs\":\"algorithm broken(\",\"topology\":\"mesh:4x4\"}\n";
  ResultCache cache(64, 4);
  ServerOptions options = deterministic_options(2);
  options.cache = &cache;
  for (int run = 0; run < 2; ++run) {
    std::istringstream in(once + once + once);
    std::ostringstream out;
    const ServerStats stats = serve(in, out, options);
    EXPECT_EQ(stats.errors, 9) << "run " << run;
    const std::vector<std::string> lines = split_lines(out.str());
    ASSERT_EQ(lines.size(), 9u) << "run " << run;
    for (const auto& line : lines) {
      expect_contains(line, "\"code\":3");
    }
  }
  EXPECT_EQ(cache.stats().aliases, 0);
}

TEST(Serve, StopFlagStopsAdmissionButStillDrains) {
  std::atomic<bool> stop{true};  // raised before the first line
  std::istringstream in(
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n");
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1), &stop);
  EXPECT_EQ(stats.lines, 0);  // nothing admitted
  EXPECT_EQ(out.str(), "");
}

TEST(Serve, StatsToJsonIsOneStableLine) {
  ServerStats stats;
  stats.lines = 5;
  stats.ok = 3;
  stats.errors = 2;
  stats.rejected = 1;
  stats.abandoned = 1;
  stats.cache_hits = 4;
  stats.cache_misses = 6;
  stats.cache_evictions = 7;
  stats.deduped = 3;
  stats.uptime_ms = 1234;
  EXPECT_EQ(stats.to_json(),
            "{\"lines\":5,\"ok\":3,\"errors\":2,\"rejected\":1,"
            "\"abandoned\":1,"
            "\"cache_hits\":4,\"cache_misses\":6,\"cache_evictions\":7,"
            "\"deduped\":3,\"uptime_ms\":1234}");
}

TEST(Serve, DeterministicStatsLineIsIdenticalAcrossJobs) {
  std::string first;
  for (const int jobs : {1, 0, 5}) {
    std::istringstream in(mixed_stream());
    std::ostringstream out;
    const std::string line =
        serve(in, out, deterministic_options(jobs)).to_json();
    if (first.empty()) {
      first = line;
      // Dedup joins and wall time depend on the schedule: both are 0.
      expect_contains(line, "\"deduped\":0,\"uptime_ms\":0}");
    } else {
      EXPECT_EQ(line, first) << "jobs=" << jobs;
    }
  }
}

// ------------------------------------------------- chaos & robustness

/// Clears the global failpoint schedule even when a test fails.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::clear(); }
};

TEST(Serve, WatchdogAbandonsHungJobsAndKeepsDraining) {
  FailpointGuard guard;
  // Job on input line 1 hangs far past its deadline; the watchdog must
  // emit its code-6 line and the daemon must still finish job 2.
  failpoint::configure("job.run:hang(400)@1");
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\",\"deadline_ms\":60}\n"
      "{\"id\":2,\"program\":\"sor\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(2));
  EXPECT_EQ(stats.lines, 2);
  EXPECT_EQ(stats.ok, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.abandoned, 1);
  const std::string text = out.str();
  expect_contains(text, "\"code\":6");
  expect_contains(text, "deadline expired; result abandoned");
  expect_contains(text, "\"id\":\"2\",\"status\":\"ok\"");
  // Exactly one line per job even though worker and watchdog raced.
  EXPECT_EQ(split_lines(text).size(), 2u);
}

/// An input stream that releases one line per `gap`, so the reader is
/// still parsing and rejecting while workers and the watchdog emit.
class PacedLines : public std::streambuf {
 public:
  PacedLines(std::vector<std::string> lines, std::chrono::microseconds gap)
      : lines_(std::move(lines)), gap_(gap) {}

 protected:
  int_type underflow() override {
    if (next_ == lines_.size()) return traits_type::eof();
    std::this_thread::sleep_for(gap_);
    current_ = lines_[next_++] + '\n';
    setg(current_.data(), current_.data(),
         current_.data() + current_.size());
    return traits_type::to_int_type(current_.front());
  }

 private:
  std::vector<std::string> lines_;
  std::chrono::microseconds gap_;
  std::size_t next_ = 0;
  std::string current_;
};

/// An output stream buffer with no put area, so every write of every
/// thread lands in this file's own (sanitizer-instrumented) append: an
/// emit outside the output mutex is a data race the thread sanitizer
/// reports, not only when a std::ostringstream happens to grow.
class RecordingSink : public std::streambuf {
 public:
  std::string text;

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      text.push_back(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    return n;
  }
};

TEST(Serve, ReaderWorkersAndWatchdogEmitWholeLinesConcurrently) {
  FailpointGuard guard;
  // Line 1 is admitted, hangs past its deadline and holds the only
  // admission slot, so the reader rejects every job until the hang
  // ends while the watchdog abandons it; after that, workers emit
  // results and the reader rejections and parse errors between them.
  failpoint::configure("job.run:hang(80)@1");
  std::vector<std::string> input = {
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\",\"deadline_ms\":10}"};
  const char* const programs[] = {"jacobi", "sor"};
  const char* const topologies[] = {"mesh:4x4", "ring:16"};
  int malformed = 0;
  for (int id = 2; input.size() < 360; ++id) {
    if (id % 10 == 0) {
      input.push_back("{\"id\":" + std::to_string(id) + "}");
      ++malformed;
      continue;
    }
    input.push_back("{\"id\":" + std::to_string(id) + ",\"program\":\"" +
                    programs[id % 2] +
                    "\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"" +
                    topologies[(id / 2) % 2] + "\"}");
  }
  const std::size_t submitted_lines = input.size();
  PacedLines paced(std::move(input), std::chrono::microseconds(500));
  std::istream in(&paced);
  RecordingSink sink;
  std::ostream out(&sink);
  ServerOptions options = deterministic_options(8);
  options.queue_capacity = 1;
  const ServerStats stats = serve(in, out, options);

  // One whole line per input line, and one per job id or, for a line
  // that did not parse, per line number. A line with another line's
  // bytes in it would hold a second `{"id":` or lose its closing brace.
  const std::vector<std::string> lines = split_lines(sink.text);
  ASSERT_EQ(lines.size(), submitted_lines);
  std::set<std::string> answered;
  std::int64_t ok = 0, parse_errors = 0, rejected = 0, abandoned = 0;
  for (const auto& line : lines) {
    ASSERT_TRUE(line.rfind("{\"id\":", 0) == 0 && line.back() == '}' &&
                line.find("{\"id\":", 1) == std::string::npos)
        << line;
    std::string key;
    if (line.rfind("{\"id\":null,\"line\":", 0) == 0) {
      key = "line " + line.substr(18, line.find(',', 18) - 18);
      ++parse_errors;
    } else {
      ASSERT_EQ(line.rfind("{\"id\":\"", 0), 0u) << line;
      key = "id " + line.substr(7, line.find('"', 7) - 7);
      if (line.find("\"status\":\"ok\"") != std::string::npos) ++ok;
      if (line.find("\"code\":5") != std::string::npos) ++rejected;
      if (line.find("\"code\":6") != std::string::npos) ++abandoned;
    }
    EXPECT_TRUE(answered.insert(key).second) << "second line for " << key;
  }
  EXPECT_EQ(parse_errors, malformed);
  EXPECT_EQ(abandoned, 1);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + parse_errors + rejected + abandoned,
            static_cast<std::int64_t>(submitted_lines));

  // The outcome partition agrees with the lines written.
  EXPECT_EQ(stats.lines, static_cast<std::int64_t>(submitted_lines));
  EXPECT_EQ(stats.ok, ok);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.abandoned, abandoned);
  EXPECT_EQ(stats.errors, parse_errors + rejected + abandoned);
}

TEST(Serve, ForcedRejectionCarriesDeterministicRetryAfterHint) {
  FailpointGuard guard;
  failpoint::configure("server.admit:err@2");
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n"
      "{\"id\":2,\"program\":\"sor\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.ok, 1);
  const std::string text = out.str();
  expect_contains(text, "\"code\":5");
  expect_contains(text, "\"retry_after_ms\":");
  expect_contains(text, "rejected: queue full");
}

TEST(Serve, FailpointChaosReplaysIdenticallyAcrossWorkerCounts) {
  // Chaos sites on the job path key by the job's input line, so the
  // same schedule perturbs the same jobs at any worker count.
  const std::string stream = mixed_stream();
  std::string runs[2];
  const int workers[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    FailpointGuard guard;
    failpoint::configure("job.run:throw@3,job.run:throw@7");
    std::istringstream in(stream);
    std::ostringstream out;
    (void)serve(in, out, deterministic_options(workers[i]));
    runs[i] = out.str();
  }
  EXPECT_EQ(normalized(runs[0]), normalized(runs[1]));
  // And the injected failures really landed: jobs 3 and 7 are code 1.
  expect_contains(runs[0], "\"id\":\"3\",\"line\":3,\"status\":\"error\","
                           "\"code\":1");
  expect_contains(runs[0], "injected failure (failpoint job.run)");
}

TEST(Serve, JournaledCacheRestoresWarmStateAcrossServeCalls) {
  const std::string path =
      testing::TempDir() + "serve_journal_roundtrip.bin";
  std::remove(path.c_str());
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n"
      "{\"id\":2,\"program\":\"sor\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";

  std::string cold_text;
  {
    ResultCache cache(64, 4);
    CacheJournal journal(path, cache);
    const RecoveryStats recovery = journal.open_and_recover();
    EXPECT_TRUE(recovery.missing);
    ServerOptions options = deterministic_options(2);
    options.cache = &cache;
    options.journal = &journal;
    std::istringstream in(stream);
    std::ostringstream out;
    const ServerStats cold = serve(in, out, options);
    EXPECT_EQ(cold.cache_misses, 2);
    EXPECT_EQ(journal.stats().appended, 2);
    cold_text = out.str();
  }

  // A brand-new cache + journal (a restarted daemon) boots warm.
  ResultCache cache(64, 4);
  CacheJournal journal(path, cache);
  const RecoveryStats recovery = journal.open_and_recover();
  EXPECT_EQ(recovery.restored, 2);
  EXPECT_EQ(recovery.skipped, 0);
  ServerOptions options = deterministic_options(2);
  options.cache = &cache;
  options.journal = &journal;
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats warm = serve(in, out, options);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.cache_hits, 2);
  EXPECT_EQ(normalized(cold_text), normalized(out.str()));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ----------------------------------------------------- telemetry

/// Runs the mixed stream with telemetry enabled and returns the
/// deterministic Prometheus exposition. Counters are reset first so
/// each run's metrics stand alone.
std::string serve_with_metrics(int jobs, ServerStats* stats_out) {
  metrics::reset_values();
  metrics::set_deterministic(true);
  metrics::enable();
  std::istringstream in(mixed_stream());
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(jobs));
  const std::string text = metrics::to_prometheus(metrics::snapshot());
  metrics::disable();
  metrics::set_deterministic(false);
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  return text;
}

TEST(ServeMetricsIdentity, OutcomesPartitionSubmittedJobs) {
  for (const int jobs : {1, 0, 5}) {
    metrics::reset_values();
    metrics::set_deterministic(true);
    metrics::enable();
    std::istringstream in(mixed_stream());
    std::ostringstream out;
    const ServerStats stats = serve(in, out, deterministic_options(jobs));
    const metrics::Snapshot snap = metrics::snapshot();
    metrics::disable();
    metrics::set_deterministic(false);

    const std::int64_t submitted =
        series_value(snap, "oregami_server_jobs_submitted_total");
    const std::int64_t hit =
        series_value(snap, "oregami_server_jobs_total{outcome=\"hit\"}");
    const std::int64_t miss =
        series_value(snap, "oregami_server_jobs_total{outcome=\"miss\"}");
    const std::int64_t error =
        series_value(snap, "oregami_server_jobs_total{outcome=\"error\"}");
    const std::int64_t rejected = series_value(
        snap, "oregami_server_jobs_total{outcome=\"rejected\"}");
    const std::int64_t abandoned = series_value(
        snap, "oregami_server_jobs_total{outcome=\"abandoned\"}");

    // Every submitted line lands in exactly one outcome.
    EXPECT_EQ(hit + miss + error + rejected + abandoned, submitted)
        << "jobs=" << jobs;
    EXPECT_EQ(submitted, stats.lines) << "jobs=" << jobs;
    EXPECT_EQ(hit, 13) << "jobs=" << jobs;
    EXPECT_EQ(miss, 20) << "jobs=" << jobs;
    EXPECT_EQ(error, 20) << "jobs=" << jobs;
    EXPECT_EQ(rejected, 0) << "jobs=" << jobs;
    EXPECT_EQ(abandoned, 0) << "jobs=" << jobs;

    // ServerStats is the same partition, read off the call's tally.
    EXPECT_EQ(stats.ok, hit + miss) << "jobs=" << jobs;
    EXPECT_EQ(stats.errors, error + rejected + abandoned) << "jobs=" << jobs;
    EXPECT_EQ(stats.rejected, rejected) << "jobs=" << jobs;
    EXPECT_EQ(stats.abandoned, abandoned) << "jobs=" << jobs;

    // Cache traffic mirrors ServerStats.
    EXPECT_EQ(series_value(snap, "oregami_server_cache_hits_total"),
              stats.cache_hits);
    EXPECT_EQ(series_value(snap, "oregami_server_cache_misses_total"),
              stats.cache_misses);
    EXPECT_EQ(series_value(snap, "oregami_server_cache_evictions_total"),
              stats.cache_evictions);

    // Deterministic mode zeroes the schedule-dependent series.
    EXPECT_EQ(series_value(snap, "oregami_server_dedup_joins_total"), 0);
    EXPECT_EQ(series_value(snap, "oregami_server_queue_depth"), 0);
    EXPECT_EQ(series_value(snap, "oregami_server_inflight_jobs"), 0);
    EXPECT_EQ(
        series_value(snap, "oregami_server_alias_total{result=\"hit\"}"), 0);
    EXPECT_EQ(
        series_value(snap, "oregami_server_alias_total{result=\"miss\"}"), 0);
  }
}

std::uint64_t stage_count(const metrics::Snapshot& snap, const char* stage) {
  const metrics::SeriesValue* s = snap.find(
      std::string("oregami_server_stage_us{stage=\"") + stage + "\"}");
  return s == nullptr ? 0 : s->histogram.count();
}

TEST(ServeMetricsIdentity, AliasHitsSkipTheCompilerWithOneWorker) {
  // One worker runs jobs in stream order, so the schedule-dependent
  // alias and compile counts are exact here.
  metrics::reset_values();
  metrics::enable();
  std::istringstream in(mixed_stream());
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  const metrics::Snapshot snap = metrics::snapshot();
  metrics::disable();

  // 33 ok lines spell 21 request keys: 20 catalog jobs plus the inline
  // jacobi source; the reversed bind and options.jobs respellings share
  // the canonical key. The 5 bad-topology jobs miss and fail to compile.
  ASSERT_EQ(stats.ok, 33);
  EXPECT_EQ(series_value(snap, "oregami_server_alias_total{result=\"hit\"}"),
            33 - 21);
  EXPECT_EQ(series_value(snap, "oregami_server_alias_total{result=\"miss\"}"),
            21 + 5);
  EXPECT_EQ(stage_count(snap, "compile"), 21u);
  EXPECT_EQ(stage_count(snap, "digest"), 21u);
  // Every other stage books each job that reaches it exactly once.
  EXPECT_EQ(stage_count(snap, "parse"), 48u);  // 53 lines, 5 malformed
  EXPECT_EQ(stage_count(snap, "alias"), 38u);  // 33 ok + 5 bad topology
  EXPECT_EQ(stage_count(snap, "lookup"), 33u);
  EXPECT_EQ(stage_count(snap, "compute"), 20u);
  EXPECT_EQ(stage_count(snap, "format"), 33u);
  EXPECT_EQ(stage_count(snap, "write"), 48u);
}

TEST(ServeMetricsIdentity, DeterministicExpositionIsIdenticalAcrossJobs) {
  ServerStats s1, s0, s5;
  const std::string m1 = serve_with_metrics(1, &s1);
  const std::string m0 = serve_with_metrics(0, &s0);
  const std::string m5 = serve_with_metrics(5, &s5);
  EXPECT_EQ(m1, m0);
  EXPECT_EQ(m1, m5);
  EXPECT_EQ(s1.lines, s5.lines);
  EXPECT_EQ(s1.ok, s5.ok);
  // The exposition is real, not empty: spot-check a family.
  expect_contains(m1, "# TYPE oregami_server_jobs_total counter");
  expect_contains(m1, "oregami_server_jobs_total{outcome=\"hit\"} 13\n");
  // 48 admitted jobs: everything but the 5 parse errors reaches a
  // worker and records a queue wait.
  expect_contains(m1, "oregami_server_job_queue_wait_us_count 48\n");
}

TEST(ServeMetricsIdentity, WatchdogAbandonmentCountsAsAbandonedOnly) {
  FailpointGuard guard;
  metrics::reset_values();
  metrics::set_deterministic(true);
  metrics::enable();
  failpoint::configure("job.run:hang(400)@1");
  std::istringstream in(
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\",\"deadline_ms\":60}\n");
  std::ostringstream out;
  ServerOptions options = deterministic_options(2);
  const ServerStats stats = serve(in, out, options);
  const metrics::Snapshot snap = metrics::snapshot();
  metrics::disable();
  metrics::set_deterministic(false);

  ASSERT_EQ(stats.abandoned, 1);
  EXPECT_EQ(series_value(
                snap, "oregami_server_jobs_total{outcome=\"abandoned\"}"),
            1);
  EXPECT_EQ(series_value(snap, "oregami_server_watchdog_fired_total"), 1);
  // The hung job still went through the cache-miss path, but the
  // outcome partition books it exactly once, as abandoned.
  const std::int64_t submitted =
      series_value(snap, "oregami_server_jobs_submitted_total");
  const std::int64_t booked =
      series_value(snap, "oregami_server_jobs_total{outcome=\"hit\"}") +
      series_value(snap, "oregami_server_jobs_total{outcome=\"miss\"}") +
      series_value(snap, "oregami_server_jobs_total{outcome=\"error\"}") +
      series_value(snap,
                   "oregami_server_jobs_total{outcome=\"rejected\"}") +
      series_value(snap,
                   "oregami_server_jobs_total{outcome=\"abandoned\"}");
  EXPECT_EQ(booked, submitted);
}

}  // namespace
}  // namespace oregami::server
