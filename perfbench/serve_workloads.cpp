// serve_hits and serve_misses: server::serve() in-process, 2 pool
// workers, fed from the calling thread by a seeded Poisson stream at a
// fixed offered rate (open loop), then by the same stream offered at
// once (capacity). Latency runs from each line's due time to its result
// line reaching the output stream.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <sys/prctl.h>
#include <thread>
#include <unordered_map>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/persist.hpp"
#include "oregami/server/result_cache.hpp"
#include "oregami/server/server.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/server/wire.hpp"
#include "oregami/support/metrics.hpp"
#include "oregami/support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace oregami;

constexpr int kWorkers = 2;
/// Offered rates, lines/s: about half of each stream's capacity at the
/// commit that defined the benchmark (2 workers, 4-CPU container at its
/// usual, contended speed), so a slower stretch does not saturate it.
constexpr double kHitsRate = 5000.0;
constexpr double kMissesRate = 66.0;
/// Share of --seconds the paced phase lasts; the capacity phase offers
/// the same stream at once and takes about half as long.
constexpr double kPacedShare = 0.55;
constexpr int kSetupRepeats = 5;
/// Capacity phase: passes over the stream, each as consecutive serve()
/// calls (chunks) timed one by one in reference seconds.
constexpr int kCapacityPasses = 2;
constexpr std::size_t kCapacityChunks = 20;
/// A paced phase whose generator handed half its lines over later than
/// this fell behind its schedule and did not offer its rate: the run is
/// invalid.
constexpr double kMaxGeneratorLateMs = 1.0;
/// p99 needs at least ten samples beyond it.
constexpr std::size_t kMinPacedSamples = 1000;
/// serve_misses must overflow the daemon's default cache.
constexpr std::size_t kDefaultCacheCapacity = 1024;
/// Lines replayed stage by stage in a traced run, per round.
constexpr std::size_t kReplayHits = 10000;
constexpr std::size_t kReplayMisses = 64;
constexpr int kReplayRounds = 3;
constexpr double kRespellShare = 0.1;

const char* const kTopologiesHits[] = {"mesh:4x4", "ring:16"};
const char* const kTopologiesMisses[] = {"mesh:4x4", "ring:16", "hypercube:4"};

/// The larger size of each catalog program in serve_misses (<= 256 tasks).
const std::map<std::string, std::vector<std::pair<std::string, long>>>&
larger_bindings() {
  static const std::map<std::string, std::vector<std::pair<std::string, long>>>
      kLarger = {
          {"nbody", {{"n", 31}, {"s", 4}, {"m", 8}}},
          {"ring_pipeline", {{"n", 128}, {"stages", 8}}},
          {"jacobi", {{"n", 12}, {"iters", 10}}},
          {"sor", {{"n", 10}, {"iters", 10}}},
          {"binomial_dnc", {{"k", 6}}},
          {"matmul", {{"n", 5}}},
          {"cbt_reduce", {{"h", 6}}},
          {"torus_stencil", {{"r", 12}, {"c", 12}, {"iters", 5}}},
          {"hypercube_exchange", {{"d", 6}, {"iters", 3}}},
          {"fft_parametric", {{"d", 5}}},
      };
  return kLarger;
}

/// One distinct mapping job, before it is spelled as a wire line.
struct JobSpec {
  const larcs::programs::CatalogEntry* entry = nullptr;
  std::vector<std::pair<std::string, long>> bindings;
  std::string topology;
  bool portfolio = false;  ///< {"portfolio":4,"anneal":1,"heft":true}
  long seed = -1;          ///< options.seed when >= 0
};

/// How a line spells its job: the canonical spelling, or one of three
/// respellings that must land on the same canonical digest.
enum class Spelling { kCanonical, kInlineLarcs, kReorderedBind, kJobsOption };

std::string job_body(const JobSpec& job, Spelling spelling) {
  std::string out;
  if (spelling == Spelling::kInlineLarcs) {
    out += "\"larcs\":\"" + server::json_escape(job.entry->source) + "\"";
  } else {
    out += "\"program\":\"" + job.entry->name + "\"";
  }
  out += ",\"bind\":{";
  std::vector<std::pair<std::string, long>> bindings = job.bindings;
  if (spelling == Spelling::kReorderedBind) {
    std::reverse(bindings.begin(), bindings.end());
  }
  for (std::size_t i = 0; i < bindings.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + bindings[i].first + "\":" + std::to_string(bindings[i].second);
  }
  out += "},\"topology\":\"" + job.topology + "\"";
  std::vector<std::string> options;
  if (spelling == Spelling::kJobsOption) options.emplace_back("\"jobs\":2");
  if (job.portfolio) {
    options.emplace_back("\"portfolio\":4,\"anneal\":1,\"heft\":true");
  }
  if (job.seed >= 0) options.push_back("\"seed\":" + std::to_string(job.seed));
  if (!options.empty()) {
    out += ",\"options\":{";
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (i > 0) out += ',';
      out += options[i];
    }
    out += "}";
  }
  return out;
}

std::string job_line(std::size_t id, const JobSpec& job, Spelling spelling) {
  return "{\"id\":" + std::to_string(id) + "," + job_body(job, spelling) +
         "}\n";
}

/// What every result line of a job must show.
struct Expected {
  std::uint64_t digest = 0;
  int tasks = 0;
  int procs = 0;
};

/// Recomputes the canonical digest of `job` through the public stage
/// functions, from its canonical spelling.
Expected expect(const JobSpec& job) {
  const server::WireJob wire =
      server::parse_job(job_line(0, job, Spelling::kCanonical), 1);
  const larcs::Program ast = larcs::parse_program(job.entry->source);
  const larcs::CompiledProgram compiled = larcs::compile(ast, wire.bindings);
  const Topology topo = parse_topology_spec(wire.topology);
  return {server::job_digest(compiled.graph, topo, wire.options),
          compiled.graph.num_tasks(), topo.num_procs()};
}

Clock::duration as_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

struct Workload {
  bool hits = true;
  double rate = 0.0;
  std::vector<JobSpec> jobs;        ///< the distinct jobs
  std::vector<Expected> expected;   ///< per distinct job
};

/// A generated input stream: wire lines (newline-terminated), the
/// distinct job behind each, and each line's due time.
struct Stream {
  std::vector<std::string> lines;
  std::vector<std::size_t> job_of_line;
  std::vector<double> due_s;
  std::size_t respelled = 0;
};

std::vector<JobSpec> hits_jobs() {
  static const auto catalog = larcs::programs::catalog();
  std::vector<JobSpec> jobs;
  for (const auto& entry : catalog) {
    for (const char* topo : kTopologiesHits) {
      for (const bool portfolio : {false, true}) {
        jobs.push_back({&entry, entry.example_bindings, topo, portfolio, -1});
      }
    }
  }
  return jobs;
}

/// serve_misses' distinct shapes: every catalog program at its example
/// bindings and at its larger size, on three topologies, with portfolio
/// options and options.seed = `seed`.
std::vector<JobSpec> misses_combos(long seed) {
  static const auto catalog = larcs::programs::catalog();
  std::vector<JobSpec> combos;
  for (const auto& entry : catalog) {
    for (const auto* bindings :
         {&entry.example_bindings, &larger_bindings().at(entry.name)}) {
      for (const char* topo : kTopologiesMisses) {
        combos.push_back({&entry, *bindings, topo, true, seed});
      }
    }
  }
  return combos;
}

/// serve_misses' distinct jobs: the shapes repeated with portfolio seeds
/// 1..k until there are at least `min_lines` (seed 0 is the warm-up's).
std::vector<JobSpec> misses_jobs(std::size_t min_lines) {
  std::vector<JobSpec> jobs;
  for (long seed = 1; jobs.size() < min_lines; ++seed) {
    for (JobSpec& job : misses_combos(seed)) jobs.push_back(std::move(job));
  }
  return jobs;
}

Stream make_stream(const Workload& w, std::size_t lines, std::uint64_t seed) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  Stream s;
  // Every distinct job once, in a seeded order; serve_hits then draws
  // repeats from the same set.
  std::vector<std::size_t> order(w.jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  s.lines.reserve(lines);
  s.job_of_line.reserve(lines);
  for (std::size_t i = 0; i < lines; ++i) {
    const std::size_t job =
        i < order.size() ? order[i] : rng.next_below(w.jobs.size());
    Spelling spelling = Spelling::kCanonical;
    if (w.hits && rng.next_double() < kRespellShare) {
      spelling = static_cast<Spelling>(1 + rng.next_below(3));
      if (spelling == Spelling::kReorderedBind &&
          w.jobs[job].bindings.size() < 2) {
        spelling = Spelling::kInlineLarcs;
      }
      ++s.respelled;
    }
    s.lines.push_back(job_line(i + 1, w.jobs[job], spelling));
    s.job_of_line.push_back(job);
  }
  s.due_s = poisson_schedule(lines, w.rate, seed);
  return s;
}

// --- The paced input and the stamped output ---------------------------

/// Hands serve()'s reader lines [begin, end) of a stream, one per
/// underflow. Paced, each line goes no earlier than its due time (sleep,
/// then spin the last stretch) and its lateness is recorded; otherwise
/// every line is offered at once.
class PacedInput : public std::streambuf {
 public:
  PacedInput(Stream& stream, std::size_t begin, std::size_t end,
             Clock::time_point origin, bool paced)
      : stream_(stream), next_(begin), end_(end), origin_(origin),
        paced_(paced) {
    if (paced) late_ms.reserve(end - begin);
  }

  std::vector<double> late_ms;

 protected:
  int_type underflow() override {
    if (next_ >= end_) return traits_type::eof();
    if (paced_) {
      const Clock::time_point due = origin_ + as_duration(stream_.due_s[next_]);
      constexpr auto kSpin = std::chrono::microseconds(100);
      if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
      Clock::time_point now = Clock::now();
      for (; now < due; now = Clock::now()) std::this_thread::yield();
      late_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due).count());
    }
    std::string& line = stream_.lines[next_++];
    setg(line.data(), line.data(), line.data() + line.size());
    return traits_type::to_int_type(line[0]);
  }

 private:
  Stream& stream_;
  std::size_t next_;
  std::size_t end_;
  Clock::time_point origin_;
  bool paced_;
};

/// Collects serve()'s result lines, stamping each when the writer
/// flushes it (serve() flushes once per line).
class StampedOutput : public std::streambuf {
 public:
  explicit StampedOutput(std::size_t expected) { lines.reserve(expected); }

  std::vector<std::pair<Clock::time_point, std::string>> lines;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      pending_.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    pending_.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int sync() override {
    const Clock::time_point now = Clock::now();
    std::size_t begin = 0;
    for (std::size_t nl = pending_.find('\n'); nl != std::string::npos;
         nl = pending_.find('\n', begin)) {
      lines.emplace_back(now, pending_.substr(begin, nl - begin));
      begin = nl + 1;
    }
    pending_.erase(0, begin);
    return 0;
  }

 private:
  std::string pending_;
};

struct PhaseRun {
  server::ServerStats stats;
  std::vector<std::pair<Clock::time_point, std::string>> out;
  Clock::time_point origin;  ///< due times count from here (paced)
  double wall_s = 0.0;
  std::vector<double> late_ms;
  /// Capacity phase: the chunks' wall times in reference seconds, summed.
  double reference_s = 0.0;
};

void serve_range(Stream& stream, std::size_t begin, std::size_t end,
                 const server::ServerOptions& options, bool paced,
                 PhaseRun& run) {
  StampedOutput out_buf(end - begin);
  std::ostream out(&out_buf);
  const Clock::time_point start = Clock::now();
  run.origin = start + std::chrono::milliseconds(5);
  PacedInput in_buf(stream, begin, end, run.origin, paced);
  std::istream in(&in_buf);
  const server::ServerStats stats = server::serve(in, out, options);
  const double wall_s = seconds_between(start, Clock::now());
  run.wall_s += wall_s;
  for (auto& line : out_buf.lines) run.out.push_back(std::move(line));
  run.late_ms = std::move(in_buf.late_ms);
  run.stats.lines += stats.lines;
  run.stats.ok += stats.ok;
  run.stats.errors += stats.errors;
  run.stats.rejected += stats.rejected;
  run.stats.abandoned += stats.abandoned;
  run.stats.cache_hits += stats.cache_hits;
  run.stats.cache_misses += stats.cache_misses;
  run.stats.cache_evictions += stats.cache_evictions;
}

/// The whole stream at its offered rate, in one serve() call.
PhaseRun run_paced(Stream& stream, const server::ServerOptions& options) {
  PhaseRun run;
  serve_range(stream, 0, stream.lines.size(), options, true, run);
  return run;
}

/// The stream offered at once, in `chunks` consecutive serve() calls on
/// the same cache (and journal). With a `timer`, every chunk is timed in
/// reference seconds, so each short stretch counts at the host speed
/// sampled around it.
PhaseRun run_capacity(Stream& stream, const server::ServerOptions& options,
                      std::size_t chunks, ReferenceTimer* timer) {
  PhaseRun run;
  const std::size_t n = stream.lines.size();
  for (std::size_t c = 0; c < chunks; ++c) {
    const double wall_before = run.wall_s;
    serve_range(stream, c * n / chunks, (c + 1) * n / chunks, options, false,
                run);
    if (timer != nullptr) {
      run.reference_s += timer->to_reference(run.wall_s - wall_before);
    }
  }
  return run;
}

server::ServerOptions serve_options(server::ResultCache& cache,
                                    server::CacheJournal* journal,
                                    std::size_t lines) {
  server::ServerOptions options;
  options.jobs = kWorkers;
  options.queue_capacity = static_cast<int>(lines) + 1;  // never rejects
  options.cache = &cache;
  options.journal = journal;
  return options;
}

// --- Output checks and exact-repeat counters --------------------------

std::int64_t int_field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  check(at != std::string::npos, std::string("result line lacks ") + key +
                                     ": " + line.substr(0, 120));
  return std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
}

std::string string_field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  check(at != std::string::npos, std::string("result line lacks ") + key +
                                     ": " + line.substr(0, 120));
  const std::size_t begin = at + std::strlen(key);
  return line.substr(begin, line.find('"', begin) - begin);
}

/// Outcome of one digest, as its result lines report it.
struct DigestOutcome {
  std::int64_t completion = 0;
  std::int64_t max_load = 0;
};

struct PhaseSummary {
  Counters counters;
  std::vector<double> latency_ms;  ///< by input line (paced phase)
  std::vector<double> wall_ms;
  std::map<std::uint64_t, DigestOutcome> digests;
  std::int64_t errors = 0;
};

/// Checks every result line of a phase and tallies its counters:
/// one line per input line; status ok; digest = the recomputed canonical
/// digest of the line's job (so respelled lines share it); procs holds
/// one processor in [0, P) per compiled task; cache label as expected;
/// one (completion, max_load) per digest.
PhaseSummary check_phase(const Workload& w, const Stream& s, const PhaseRun& run,
                         const char* cache_label, const std::string& phase) {
  PhaseSummary sum;
  std::vector<char> seen(s.lines.size(), 0);
  sum.latency_ms.assign(s.lines.size(), 0.0);
  for (const auto& [stamp, line] : run.out) {
    if (line.find("\"status\":\"ok\"") == std::string::npos) {
      ++sum.errors;
      std::fprintf(stderr, "%s: error line: %s\n", phase.c_str(),
                   line.substr(0, 200).c_str());
      continue;
    }
    const std::int64_t id = std::atoll(string_field(line, "{\"id\":\"").c_str());
    check(id >= 1 && static_cast<std::size_t>(id) <= s.lines.size() &&
              seen[static_cast<std::size_t>(id - 1)] == 0,
          phase + ": unexpected or repeated result id " + std::to_string(id));
    const std::size_t i = static_cast<std::size_t>(id - 1);
    seen[i] = 1;
    const Expected& want = w.expected[s.job_of_line[i]];
    const std::uint64_t digest = std::strtoull(
        string_field(line, "\"digest\":\"").c_str(), nullptr, 16);
    check(digest == want.digest,
          phase + ": line " + std::to_string(id) +
              " digest differs from the recomputed canonical digest");
    check(string_field(line, "\"cache\":\"") == cache_label,
          phase + ": line " + std::to_string(id) + " is not a cache " +
              cache_label);
    const std::size_t open = line.find("\"procs\":[");
    check(open != std::string::npos, phase + ": no procs array");
    int tasks = 0;
    for (const char* p = line.c_str() + open + 9; *p != ']';) {
      char* end = nullptr;
      const long proc = std::strtol(p, &end, 10);
      check(end != p && proc >= 0 && proc < want.procs,
            phase + ": line " + std::to_string(id) + " places a task on " +
                std::to_string(proc) + " outside [0, " +
                std::to_string(want.procs) + ")");
      ++tasks;
      p = *end == ',' ? end + 1 : end;
    }
    check(tasks == want.tasks,
          phase + ": line " + std::to_string(id) + " has " +
              std::to_string(tasks) + " procs for " +
              std::to_string(want.tasks) + " tasks");
    const DigestOutcome outcome{int_field(line, "\"completion\":"),
                                int_field(line, "\"max_load\":")};
    const auto [it, inserted] = sum.digests.emplace(digest, outcome);
    check(inserted || (it->second.completion == outcome.completion &&
                       it->second.max_load == outcome.max_load),
          phase + ": one digest, two outcomes");
    sum.wall_ms.push_back(
        std::strtod(line.c_str() + line.find("\"wall_ms\":") + 10, nullptr));
    sum.latency_ms[i] = std::chrono::duration<double, std::milli>(
                            stamp - (run.origin + as_duration(s.due_s[i])))
                            .count();
  }
  check(sum.errors == 0, phase + ": " + std::to_string(sum.errors) +
                             " error line(s); the workload must not fail");
  check(run.out.size() == s.lines.size(),
        phase + ": " + std::to_string(run.out.size()) + " result lines for " +
            std::to_string(s.lines.size()) + " input lines");
  std::int64_t completion = 0;
  std::int64_t max_load = 0;
  for (const auto& [digest, outcome] : sum.digests) {
    completion += outcome.completion;
    max_load += outcome.max_load;
  }
  sum.counters = {
      {"lines", run.stats.lines},
      {"ok", run.stats.ok},
      {"errors", run.stats.errors},
      {"cache_hits", run.stats.cache_hits},
      {"cache_misses", run.stats.cache_misses},
      {"cache_evictions", run.stats.cache_evictions},
      {"distinct_digests", static_cast<std::int64_t>(sum.digests.size())},
      {"completion_sum", completion},
      {"max_load_sum", max_load},
  };
  return sum;
}

/// A fresh cache file for a phase's journal, booted cold.
std::unique_ptr<server::CacheJournal> boot_journal(const std::string& path,
                                                   server::ResultCache& cache) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  auto journal = std::make_unique<server::CacheJournal>(path, cache);
  const server::RecoveryStats boot = journal->open_and_recover();
  check(boot.missing && boot.restored == 0,
        "journal cold boot found an existing file at " + path);
  return journal;
}

void add_journal_counters(Counters& counters,
                          const server::CacheJournal& journal) {
  const server::PersistStats stats = journal.stats();
  counters["journal_appends"] = stats.appended;
  counters["journal_compactions"] = stats.compactions;
  counters["journal_io_errors"] = stats.io_errors;
}

// --- The traced replay ------------------------------------------------

/// The family a portfolio candidate belongs to (the single-shot
/// candidate counts as the strategy it ended up running).
std::string family_of(const PortfolioCandidate& c) {
  const std::string& l = c.label;
  if (l.rfind("fig3", 0) == 0) {
    switch (c.strategy) {
      case MapStrategy::Canned: return "canned";
      case MapStrategy::GroupTheoretic: return "group";
      case MapStrategy::Systolic: return "systolic";
      default: return "general";
    }
  }
  if (l == "systolic") return "systolic";
  if (l == "canned") return "canned";
  if (l == "group-theoretic") return "group";
  if (l.rfind("heft", 0) == 0) return "heft";
  if (l.rfind("anneal", 0) == 0) return "anneal";
  return "general";
}

struct ReplayStats {
  double wall_us = 0.0;
  std::map<std::string, std::vector<double>> family_us;
  std::map<std::string, std::int64_t> family_wins;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

template <class Fn>
decltype(auto) timed(SpanLog* log, const char* layer, Fn&& fn) {
  if (log == nullptr) return fn();
  return log->stage(layer, std::forward<Fn>(fn));
}

/// Replays lines [0, count) serially through the public stage functions
/// the daemon chains per job, each inside a span of `log` when tracing.
/// Checks that every job lands on its expected digest and, on a miss,
/// on the outcome the daemon reported for that digest.
ReplayStats replay(const Workload& w, const Stream& s, std::size_t count,
                   server::ResultCache& cache, server::CacheJournal* journal,
                   const std::map<std::uint64_t, DigestOutcome>& reported,
                   SpanLog* log) {
  std::unordered_map<std::string, const std::string*> sources;
  for (const JobSpec& job : w.jobs) sources[job.entry->name] = &job.entry->source;
  ReplayStats stats;
  std::string sink;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    if (log != nullptr) log->begin_job(static_cast<std::int64_t>(i + 1));
    const server::WireJob job = timed(log, "server.wire.parse", [&] {
      return server::parse_job(s.lines[i], i + 1);
    });
    const std::string& source =
        job.program.empty() ? job.larcs : *sources.at(job.program);
    const larcs::Program ast =
        timed(log, "larcs.parse", [&] { return larcs::parse_program(source); });
    const larcs::CompiledProgram compiled = timed(
        log, "larcs.compile", [&] { return larcs::compile(ast, job.bindings); });
    const Topology topo = timed(log, "arch.topology_spec", [&] {
      return parse_topology_spec(job.topology);
    });
    const std::uint64_t digest = timed(log, "server.digest", [&] {
      return server::job_digest(compiled.graph, topo, job.options);
    });
    std::shared_ptr<const server::CachedOutcome> outcome =
        timed(log, "server.cache.lookup", [&] { return cache.lookup(digest); });
    const bool hit = outcome != nullptr;
    if (hit) {
      ++stats.hits;
    } else {
      ++stats.misses;
      MapperReport report = timed(log, "mapper.map", [&] {
        if (job.options.portfolio == 0) {
          return map_program(ast, compiled, topo, job.options);
        }
        PortfolioReport pr = portfolio_map_program(
            ast, compiled, topo, job.options, portfolio_options_from(job.options));
        for (const PortfolioCandidate& c : pr.candidates) {
          stats.family_us[family_of(c)].push_back(c.wall_ms * 1000.0);
        }
        ++stats.family_wins[family_of(
            pr.candidates[static_cast<std::size_t>(pr.best_id)])];
        return std::move(pr.best);
      });
      auto fresh = std::make_shared<server::CachedOutcome>();
      fresh->proc_of_task = report.mapping.proc_of_task();
      const PlacementObjectives obj = timed(log, "metrics.score", [&] {
        return extract_objectives(compiled.graph, fresh->proc_of_task,
                                  report.mapping.routing, topo);
      });
      fresh->ok = true;
      fresh->strategy = to_string(report.strategy);
      fresh->completion = obj.completion;
      fresh->external_ipc = obj.external_ipc;
      fresh->max_load = obj.max_load;
      fresh->num_procs = topo.num_procs();
      timed(log, "server.cache.insert", [&] { cache.insert(digest, fresh); });
      if (journal != nullptr) {
        timed(log, "server.persist.append",
              [&] { return journal->append(digest, *fresh); });
      }
      outcome = std::move(fresh);
      const auto it = reported.find(digest);
      check(it != reported.end() &&
                it->second.completion == outcome->completion &&
                it->second.max_load == outcome->max_load,
            "replay: line " + std::to_string(i + 1) +
                " computed another outcome than the daemon reported");
    }
    check(digest == w.expected[s.job_of_line[i]].digest,
          "replay: line " + std::to_string(i + 1) + " digest mismatch");
    const std::string line = timed(log, "server.wire.format", [&] {
      return server::format_ok_result(job.id, digest, hit, *outcome, 0.0);
    });
    timed(log, "server.write", [&] {
      sink += line;
      sink += '\n';
    });
    if (log != nullptr) log->end_job();
  }
  stats.wall_us = std::chrono::duration<double, std::micro>(Clock::now() - start)
                      .count();
  return stats;
}

/// Fills a cache with `count` placeholder entries whose digests no job
/// can have, so a replay's inserts evict like the daemon's do once its
/// cache is full.
void fill_cache(server::ResultCache& cache, std::size_t count) {
  SplitMix64 rng(0xF111CACEULL);
  auto placeholder = std::make_shared<server::CachedOutcome>();
  placeholder->ok = true;
  for (std::size_t i = 0; i < count; ++i) cache.insert(rng.next_u64(), placeholder);
}

double histogram_quantile(metrics::Histogram& h, double q) {
  metrics::HistogramSnapshot snap;
  h.merge_into(snap);
  return snap.count() == 0 ? 0.0 : snap.quantile(q);
}

}  // namespace

RunResult run_serve_workload(const Args& args, bool hits) {
  // The generator sleeps to each due time: no timer slack on its thread.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::string name = hits ? "serve_hits" : "serve_misses";
  Workload w;
  w.hits = hits;
  w.rate = hits ? kHitsRate : kMissesRate;
  const auto lines = static_cast<std::size_t>(w.rate * kPacedShare * args.seconds);
  w.jobs = hits ? hits_jobs()
                : misses_jobs(std::max(lines, kDefaultCacheCapacity + 1));
  const std::size_t stream_lines = hits ? lines : w.jobs.size();
  check(stream_lines >= kMinPacedSamples,
        "paced phase of " + std::to_string(stream_lines) + " lines leaves "
        "fewer than ten samples beyond p99; raise --seconds");
  for (const JobSpec& job : w.jobs) w.expected.push_back(expect(job));
  // The warm-up set: serve_hits warms the shared cache with its distinct
  // jobs; serve_misses warms the process with every shape at seed 0 on a
  // scratch cache, so the measured cache starts empty.
  Workload warm_w;
  warm_w.jobs = hits ? w.jobs : misses_combos(0);
  for (const JobSpec& job : warm_w.jobs) warm_w.expected.push_back(expect(job));
  Stream warm_stream;
  for (std::size_t j = 0; j < warm_w.jobs.size(); ++j) {
    warm_stream.lines.push_back(job_line(j + 1, warm_w.jobs[j], Spelling::kCanonical));
    warm_stream.job_of_line.push_back(j);
  }
  warm_stream.due_s.assign(warm_w.jobs.size(), 0.0);
  std::filesystem::create_directories(args.work_dir);
  const std::string journal_path =
      (std::filesystem::path(args.work_dir) / (name + ".cache")).string();

  std::printf("workload %s  seed %llu  seconds %d  trace %d\n", name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("  %zu distinct jobs, %zu-line stream, Poisson arrivals at "
              "%.0f lines/s, %d workers\n",
              w.jobs.size(), stream_lines, w.rate, kWorkers);

  // Set-up, repeated: stream generation, the warm-up, and (serve_misses)
  // the journal cold boot. The last repeat's products are used. Set-up and
  // capacity chunks are timed in reference seconds (harness.hpp).
  ReferenceTimer timer;
  Stream stream;
  std::unique_ptr<server::ResultCache> cache;
  std::unique_ptr<server::CacheJournal> journal;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  Counters warm_counters;
  std::map<std::uint64_t, DigestOutcome> warm_digests;
  for (int r = 0; r < kSetupRepeats; ++r) {
    journal.reset();
    const Clock::time_point t0 = Clock::now();
    stream = make_stream(w, stream_lines, args.seed);
    cache = std::make_unique<server::ResultCache>(kDefaultCacheCapacity, 8);
    server::ResultCache scratch(kDefaultCacheCapacity, 8);
    const PhaseRun warm = run_capacity(
        warm_stream,
        serve_options(hits ? *cache : scratch, nullptr, warm_stream.lines.size()),
        1, nullptr);
    if (!hits) journal = boot_journal(journal_path, *cache);
    setup_wall_s.push_back(seconds_between(t0, Clock::now()));
    setup_s.push_back(timer.to_reference(setup_wall_s.back()));
    PhaseSummary sum = check_phase(warm_w, warm_stream, warm, "miss", "set-up");
    if (r > 0) expect_same_counters(warm_counters, sum.counters, "set-up repeat");
    warm_counters = sum.counters;
    warm_digests = std::move(sum.digests);
  }
  std::printf("  set-up x%d: median %.4f reference s (wall %.4f s; %zu "
              "warm-up jobs); %zu respelled lines\n",
              kSetupRepeats, median(setup_s), median(setup_wall_s),
              warm_stream.lines.size(), stream.respelled);

  const char* label = hits ? "hit" : "miss";
  RunResult result;
  LayerMetrics layers;

  // Paced phase: the stream at its offered rate (with the metrics
  // registry on in a traced run, for queue wait and write time).
  if (args.trace) {
    server::server_metrics();
    metrics::reset_values();
    metrics::enable();
  }
  const PhaseRun paced =
      run_paced(stream, serve_options(*cache, journal.get(), stream_lines));
  if (args.trace) metrics::disable();
  PhaseSummary paced_sum = check_phase(w, stream, paced, label, "paced");
  if (journal) add_journal_counters(paced_sum.counters, *journal);
  const double late_p99 = quantile(paced.late_ms, 0.99);
  const double p50_ms = median(paced_sum.latency_ms);
  const double p99_ms = quantile(paced_sum.latency_ms, 0.99);
  // Reported, not gated: on a shared machine open-loop latency follows
  // the host's stalls more than the code (see perfbench/README.md).
  std::printf("  paced phase: %zu samples (%zu beyond p99), %.3f s; p50_ms "
              "%.4f p99_ms %.4f\n",
              stream_lines,
              stream_lines - static_cast<std::size_t>(
                                 0.99 * static_cast<double>(stream_lines)),
              paced.wall_s, p50_ms, p99_ms);
  std::printf("  in-daemon wall_ms p50 %.4f p99 %.4f; generator late p50 "
              "%.4f p99 %.4f ms\n",
              median(paced_sum.wall_ms), quantile(paced_sum.wall_ms, 0.99),
              median(paced.late_ms), late_p99);
  check(median(paced.late_ms) <= kMaxGeneratorLateMs,
        "paced run invalid: the generator fell behind its schedule (late p50 " +
            std::to_string(median(paced.late_ms)) + " ms)");
  if (hits) {
    check(paced_sum.digests.size() == warm_digests.size(),
          "paced phase reached another set of digests than the warm-up");
    for (const auto& [digest, outcome] : paced_sum.digests) {
      const auto it = warm_digests.find(digest);
      check(it != warm_digests.end() &&
                it->second.completion == outcome.completion &&
                it->second.max_load == outcome.max_load,
            "a hit served another outcome than its warm-up computed");
    }
  }
  result.attempted += paced.stats.lines;
  result.failed += paced_sum.errors;

  if (!args.trace) {
    // Capacity phase: the same stream offered at once, kCapacityPasses
    // times, each on a cache in the paced phase's starting state
    // (serve_hits: the warm cache; serve_misses: a fresh cache and a fresh
    // journal). Every pass repeats the paced phase's counters exactly.
    std::int64_t capacity_ok = 0;
    double capacity_s = 0.0;
    double capacity_reference_s = 0.0;
    timer.restart();
    for (int pass = 0; pass < kCapacityPasses; ++pass) {
      std::unique_ptr<server::CacheJournal> burst_journal;
      std::unique_ptr<server::ResultCache> burst_cache;
      server::ResultCache* burst_target = cache.get();
      if (!hits) {
        journal.reset();
        burst_cache =
            std::make_unique<server::ResultCache>(kDefaultCacheCapacity, 8);
        burst_journal = boot_journal(journal_path, *burst_cache);
        burst_target = burst_cache.get();
      }
      const PhaseRun burst = run_capacity(
          stream, serve_options(*burst_target, burst_journal.get(), stream_lines),
          kCapacityChunks, &timer);
      PhaseSummary burst_sum = check_phase(w, stream, burst, label, "capacity");
      if (burst_journal) add_journal_counters(burst_sum.counters, *burst_journal);
      expect_same_counters(paced_sum.counters, burst_sum.counters,
                           "paced vs capacity phase");
      result.attempted += burst.stats.lines;
      result.failed += burst_sum.errors;
      capacity_ok += burst.stats.ok;
      capacity_s += burst.wall_s;
      capacity_reference_s += burst.reference_s;
    }
    print_counters("  exact-repeat counters (paced phase = every capacity pass):",
                   paced_sum.counters);
    const double capacity = static_cast<double>(capacity_ok) / capacity_reference_s;
    std::printf("  capacity phase: %d passes of %zu lines in %zu chunks each, "
                "%.3f wall s, %.3f reference s: %.1f maps per reference s\n",
                kCapacityPasses, stream_lines, kCapacityChunks, capacity_s,
                capacity_reference_s, capacity);

    result.add("setup_s", median(setup_s), "s");
    result.add("capacity_maps_per_s", capacity, "1/s");
    result.add("map_s", 1.0 / capacity, "s");
    result.add("completion",
               static_cast<double>(paced_sum.counters.at("completion_sum")),
               "cost");
    result.add("max_load",
               static_cast<double>(paced_sum.counters.at("max_load_sum")), "cost");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // Traced run. Queue wait, write time, evictions and compactions come
  // from the paced serve() above; the per-stage table from a serial
  // replay of the stream's first lines, once untraced and once traced.
  print_counters("  counters (paced phase):", paced_sum.counters);
  server::ServerMetrics& sm = server::server_metrics();
  const std::int64_t lookups = sm.cache_hits.value() + sm.cache_misses.value();
  layers.set("server.cache.hits", static_cast<double>(sm.cache_hits.value()));
  layers.set("server.cache.misses", static_cast<double>(sm.cache_misses.value()));
  layers.set("server.cache.hit_ratio",
             lookups > 0 ? static_cast<double>(sm.cache_hits.value()) /
                               static_cast<double>(lookups)
                         : 0.0);
  layers.set("server.cache.evictions",
             static_cast<double>(sm.cache_evictions.value()));
  layers.set("server.persist.compactions",
             static_cast<double>(sm.persist_compactions.value()));
  layers.set("server.persist.compact_us",
             histogram_quantile(sm.persist_compact_us, 0.5));
  layers.set("server.queue_wait_p50_us", histogram_quantile(sm.queue_wait_us, 0.5));
  layers.set("server.queue_wait_p99_us",
             histogram_quantile(sm.queue_wait_us, 0.99));
  layers.set("server.write_us", histogram_quantile(sm.write_us, 0.5));
  layers.set("gen.late_p99_ms", late_p99);

  const std::size_t replayed =
      std::min(stream.lines.size(), hits ? kReplayHits : kReplayMisses);
  // Both replays start from the same cache state: serve_hits replays on
  // the warm cache; serve_misses on a full cache of placeholders and a
  // freshly booted journal, so inserts evict and appends hit the file.
  const auto replay_once = [&](SpanLog* log) {
    std::unique_ptr<server::ResultCache> fresh;
    std::unique_ptr<server::CacheJournal> replay_journal;
    server::ResultCache* target = cache.get();
    if (!hits) {
      journal.reset();
      fresh = std::make_unique<server::ResultCache>(kDefaultCacheCapacity, 8);
      fill_cache(*fresh, kDefaultCacheCapacity);
      replay_journal = boot_journal(journal_path, *fresh);
      target = fresh.get();
    }
    return replay(w, stream, replayed, *target, replay_journal.get(),
                  paced_sum.digests, log);
  };
  // Untraced and traced replays alternate; the tracing overhead compares
  // the fastest round of each.
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
  SpanLog log;
  std::vector<trace::Event> events;
  std::map<std::string, std::vector<double>> family_us;
  ReplayStats traced;
  for (int round = 0; round < kReplayRounds; ++round) {
    const ReplayStats plain = replay_once(nullptr);
    untraced_us.push_back(plain.wall_us);
    trace::clear();
    trace::enable();
    traced = replay_once(&log);
    trace::disable();
    for (trace::Event& e : trace::snapshot()) events.push_back(std::move(e));
    traced_us.push_back(traced.wall_us);
    for (auto& [family, us] : traced.family_us) {
      family_us[family].insert(family_us[family].end(), us.begin(), us.end());
    }
    check(traced.hits == plain.hits && traced.misses == plain.misses,
          "replay: traced and untraced replays disagree on hits/misses");
  }
  trace::clear();
  double traced_total_us = 0.0;
  for (const double us : traced_us) traced_total_us += us;

  const LayerTable table(log, events,
                         {{"parse", "larcs.parse"},
                          {"lex", "larcs.parse"},
                          {"compile", "larcs.compile"},
                          {"", "mapper.map"}});
  std::printf("  traced replay: %d rounds of %zu lines, each %lld hits, %lld "
              "misses\n",
              kReplayRounds, replayed, static_cast<long long>(traced.hits),
              static_cast<long long>(traced.misses));
  table.print("  per-layer table (serial replay, self time per layer):",
              traced_total_us);
  const double fastest_untraced = quantile(untraced_us, 0.0);
  const double fastest_traced = quantile(traced_us, 0.0);
  const double overhead =
      100.0 * (fastest_traced - fastest_untraced) / fastest_untraced;
  std::printf("  tracing overhead: %.2f%% (fastest replay %.3f ms untraced, "
              "%.3f ms traced)\n",
              overhead, fastest_untraced / 1000.0, fastest_traced / 1000.0);

  for (const auto& [metric, layer] : std::vector<std::pair<std::string, std::string>>{
           {"server.wire.parse_us", "server.wire.parse"},
           {"server.wire.format_us", "server.wire.format"},
           {"larcs.parse_us", "larcs.parse"},
           {"larcs.compile_us", "larcs.compile"},
           {"arch.topology_spec_us", "arch.topology_spec"},
           {"server.digest_us", "server.digest"},
           {"server.cache.lookup_us", "server.cache.lookup"},
           {"server.cache.insert_us", "server.cache.insert"},
           {"server.persist.append_us", "server.persist.append"},
           {"mapper.map_us", "mapper.map"},
           {"metrics.score_us", "metrics.score"},
           {"mapper.contract_us", "trace:contract"},
           {"mapper.embed_us", "trace:embed"},
           {"mapper.route_us", "trace:route"},
       }) {
    layers.set(metric, table.p50_us(layer));
  }
  layers.set("mapper.map_calls", static_cast<double>(table.calls("mapper.map")));
  for (const char* family :
       {"canned", "group", "systolic", "general", "anneal", "heft"}) {
    const auto us = family_us.find(family);
    const auto wins = traced.family_wins.find(family);
    layers.set(std::string("mapper.portfolio.") + family + "_us",
               us == family_us.end() ? 0.0 : median(us->second));
    layers.set(std::string("mapper.portfolio.") + family + "_wins",
               wins == traced.family_wins.end()
                   ? 0.0
                   : static_cast<double>(wins->second));
  }
  layers.set("trace.overhead_pct", overhead);
  layers.set("trace.accounted_share", table.accounted_us() / traced_total_us);
  layers.emit(result);
  return result;
}

}  // namespace perfbench
