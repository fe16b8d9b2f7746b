#include "oregami/server/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <future>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/persist.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/server/wire.hpp"
#include "oregami/support/deadline.hpp"
#include "oregami/support/failpoint.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/json.hpp"
#include "oregami/support/thread_pool.hpp"
#include "oregami/support/trace.hpp"

namespace oregami::server {

namespace {

using OutcomePtr = std::shared_ptr<const CachedOutcome>;

/// The compiled half of a job (everything the digest and the mapper
/// need).
struct CompiledJob {
  larcs::Program ast;
  larcs::CompiledProgram compiled;
  Topology topo;
};

/// The LaRCS text a job names: a catalog program's source, the inline
/// text, or the program_file's contents, read now (into `file_text`,
/// which the result then views) so an edited file is never stale.
/// Throws WireError for an unknown program or an unreadable file.
std::string_view job_source(const WireJob& job, std::string& file_text) {
  if (!job.program.empty()) {
    const auto* entry = larcs::programs::find(job.program);
    if (entry == nullptr) {
      throw WireError(kJobBadInput, "job " + job.id + ": unknown program \"" +
                                        job.program +
                                        "\" (see --list-programs)");
    }
    return entry->source;
  }
  if (!job.program_file.empty()) {
    std::ifstream in(job.program_file);
    if (!in) {
      throw WireError(kJobBadInput, "job " + job.id +
                                        ": cannot open program_file \"" +
                                        job.program_file + "\"");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    file_text = buffer.str();
    return file_text;
  }
  return job.larcs;
}

/// Compiles a job's source and topology. Throws WireError with a
/// "job <id>: "-prefixed message on every failure.
CompiledJob compile_job(const WireJob& job, std::string_view source) {
  const std::string prefix = "job " + job.id + ": ";
  // Topology first: a typo'd machine spec should be reported as such
  // even when the program text has its own problems.
  Topology topo = [&] {
    try {
      return parse_topology_spec(job.topology);
    } catch (const MappingError& e) {
      throw WireError(kJobBadInput,
                      prefix + "unknown or invalid topology \"" +
                          job.topology + "\": " + e.what());
    }
  }();
  try {
    larcs::Program ast = larcs::parse_program(source);
    larcs::CompiledProgram compiled = larcs::compile(ast, job.bindings);
    return CompiledJob{std::move(ast), std::move(compiled),
                       std::move(topo)};
  } catch (const LarcsError& e) {
    throw WireError(kJobBadInput, prefix + e.what());
  }
}

/// Runs the mapping pipeline and distils the result into the cacheable
/// outcome. Deterministic failures (infeasible mappings) become error
/// outcomes -- cached like successes, so repeated bad jobs are O(1)
/// and hit/miss totals stay schedule-independent.
OutcomePtr compute_outcome(const WireJob& job, const CompiledJob& cj) {
  auto outcome = std::make_shared<CachedOutcome>();
  try {
    const MapperReport report =
        map_program(cj.ast, cj.compiled, cj.topo, job.options);
    const std::vector<int>& procs = report.mapping.proc_of_task();
    const PlacementObjectives obj = extract_objectives(
        cj.compiled.graph, procs, report.mapping.routing, cj.topo);
    outcome->ok = true;
    outcome->strategy = to_string(report.strategy);
    outcome->completion = obj.completion;
    outcome->external_ipc = obj.external_ipc;
    outcome->max_load = obj.max_load;
    outcome->num_procs = cj.topo.num_procs();
    outcome->proc_of_task = procs;
  } catch (const MappingError& e) {
    outcome->ok = false;
    outcome->error_code = kJobInfeasible;
    outcome->error = "job " + job.id + ": mapping infeasible: " + e.what();
  } catch (const std::exception& e) {
    outcome->ok = false;
    outcome->error_code = kJobInternal;
    outcome->error = "job " + job.id + ": internal error: " + e.what();
  }
  return outcome;
}

/// Books the time since the previous boundary into a stage histogram
/// (oregami_server_stage_us). Constructed off, it never reads the clock.
class StageClock {
 public:
  explicit StageClock(bool on) : on_(on) { restart(); }

  void restart() {
    if (on_) last_ = std::chrono::steady_clock::now();
  }

  void book(metrics::Histogram& stage) {
    if (!on_) return;
    const auto now = std::chrono::steady_clock::now();
    stage.record(
        std::chrono::duration_cast<std::chrono::microseconds>(now - last_)
            .count());
    last_ = now;
  }

 private:
  bool on_;
  std::chrono::steady_clock::time_point last_;
};

/// The events one serve() call counts, each booked once by
/// ServeState::book(). The first six are the outcome partition
/// (telemetry.hpp).
enum Event : std::size_t {
  kSubmitted,  ///< a non-blank input line
  kHit,        ///< an ok result line served without computing
  kMiss,       ///< an ok result line that computed its outcome
  kError,      ///< a parse error or a worker's error line
  kRejected,   ///< an admission rejection (code 5)
  kAbandoned,  ///< a watchdog abandonment (code 6)
  kCacheHit,   ///< a job that found its outcome cached or in flight
  kCacheMiss,  ///< a job that computed (and cached) its outcome
  kEviction,   ///< a cache entry evicted by a computed job's insert
  kDedupJoin,  ///< a job that joined an identical in-flight job
  kEventCount
};

/// Shared mutable state of one serve() call. Workers only touch the
/// thread-safe members.
struct ServeState {
  ServeState(const ServerOptions& opts, std::ostream& stream)
      : out(stream),
        owned_cache(opts.cache == nullptr ? std::make_unique<ResultCache>()
                                          : nullptr),
        cache(opts.cache != nullptr ? opts.cache : owned_cache.get()) {}

  /// Start of the call, for ServerStats::uptime_ms.
  const std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  /// The result stream; written only by emit(), under out_mutex.
  std::ostream& out;
  std::mutex out_mutex;
  std::unique_ptr<ResultCache> owned_cache;
  ResultCache* cache;
  /// Telemetry handles (registered once per process; recording is a
  /// no-op while metrics are disabled).
  ServerMetrics& sm = server_metrics();
  /// This call's count of each event, and the registry series that
  /// counts it across the process, both in Event order.
  std::array<std::atomic<std::int64_t>, kEventCount> tally{};
  const std::array<metrics::Counter*, kEventCount> series{
      &sm.jobs_submitted, &sm.jobs_hit,       &sm.jobs_miss,
      &sm.jobs_error,     &sm.jobs_rejected,  &sm.jobs_abandoned,
      &sm.cache_hits,     &sm.cache_misses,   &sm.cache_evictions,
      &sm.dedup_joins};

  /// Single-flight: digest -> the future of the first (and only)
  /// computation in flight for it. Concurrent identical jobs join the
  /// future instead of recomputing, which keeps hit/miss totals
  /// schedule-independent.
  std::mutex inflight_mutex;
  std::unordered_map<std::uint64_t, std::shared_future<OutcomePtr>> inflight;

  /// Watchdog registry: one ticket per admitted job with a positive
  /// deadline. Whoever flips `claimed` first -- the worker finishing
  /// or the watchdog at expiry -- emits the job's single result line;
  /// the loser stays silent.
  struct Ticket {
    std::string id;
    std::size_t line = 0;
    std::chrono::steady_clock::time_point expiry;
    std::shared_ptr<std::atomic<bool>> claimed;
  };
  std::mutex watch_mutex;
  std::condition_variable watch_cv;
  std::vector<Ticket> watch;
  bool watch_closed = false;

  /// Counts `n` occurrences of `event`: the one place an event is
  /// counted.
  void book(Event event, std::int64_t n = 1) {
    tally[event].fetch_add(n, std::memory_order_relaxed);
    series[event]->add(n);
  }

  /// The call's ServerStats, read off the tally. Dedup joins and
  /// uptime depend on the schedule, so deterministic mode reports 0 for
  /// both, as the registry does for its Volatile series.
  ServerStats stats(bool deterministic) const {
    const auto n = [this](Event event) {
      return tally[event].load(std::memory_order_relaxed);
    };
    ServerStats s;
    s.lines = n(kSubmitted);
    s.ok = n(kHit) + n(kMiss);
    s.errors = n(kError) + n(kRejected) + n(kAbandoned);
    s.rejected = n(kRejected);
    s.abandoned = n(kAbandoned);
    s.cache_hits = n(kCacheHit);
    s.cache_misses = n(kCacheMiss);
    s.cache_evictions = n(kEviction);
    if (!deterministic) {
      s.deduped = n(kDedupJoin);
      s.uptime_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - started)
                        .count();
    }
    return s;
  }

  /// Retires `digest`'s in-flight entry once its promise is settled.
  void end_flight(std::uint64_t digest) {
    const std::lock_guard<std::mutex> lock(inflight_mutex);
    inflight.erase(digest);
  }

  /// Writes one result line and flushes it, so a consumer sees each
  /// result as it lands. Whichever thread settles a line calls this;
  /// the caller holds no other lock, so out_mutex is a leaf.
  void emit(const std::string& line) {
    const std::lock_guard<std::mutex> lock(out_mutex);
    out << line << '\n' << std::flush;
  }
};

/// The `"id":...,"line":...` fields that open a job's event-log entry.
std::string job_fields(const std::string& id, std::size_t line) {
  return "\"id\":\"" + json_escape(id) + "\",\"line\":" +
         std::to_string(line);
}

/// The watchdog body: sleeps until the earliest unexpired ticket, and
/// abandons (code 6) every job whose worker has not claimed it by its
/// expiry. The daemon keeps draining -- the stuck worker's eventual
/// line is discarded by the claimed flag.
void run_watchdog(ServeState& state, const ServerOptions& opts) {
  std::unique_lock<std::mutex> lock(state.watch_mutex);
  for (;;) {
    if (state.watch_closed) {
      return;  // drain finished: every remaining ticket is claimed
    }
    // Tickets claimed by their worker are dead weight; drop them so
    // the scan below never waits on one.
    state.watch.erase(
        std::remove_if(state.watch.begin(), state.watch.end(),
                       [](const ServeState::Ticket& t) {
                         return t.claimed->load(std::memory_order_relaxed);
                       }),
        state.watch.end());
    if (state.watch.empty()) {
      state.watch_cv.wait(lock);
      continue;
    }
    const auto it = std::min_element(
        state.watch.begin(), state.watch.end(),
        [](const ServeState::Ticket& a, const ServeState::Ticket& b) {
          return a.expiry < b.expiry;
        });
    if (it->expiry > std::chrono::steady_clock::now()) {
      state.watch_cv.wait_until(lock, it->expiry);
      continue;
    }
    ServeState::Ticket ticket = std::move(*it);
    state.watch.erase(it);
    lock.unlock();
    if (!ticket.claimed->exchange(true)) {
      state.book(kAbandoned);
      state.sm.watchdog_fired.increment();
      state.emit(format_error_result(
          ticket.id, ticket.line, kJobDeadline,
          "job " + ticket.id + ": deadline expired; result abandoned"));
      if (opts.log != nullptr) {
        opts.log->event(EventLog::Level::kWarn,
                        static_cast<std::int64_t>(ticket.line),
                        "job_abandoned", job_fields(ticket.id, ticket.line));
      }
      state.sm.inflight_jobs.add(-1);
    }
    lock.lock();
  }
}

/// The per-job worker body: alias probe (on a miss: compile, digest,
/// alias insert), cache/single-flight, format, emit. Never throws.
/// `claimed` (when the job has a watchdog ticket) gates emission: if
/// the watchdog claimed the job first, the line is discarded -- but the
/// computed outcome was already cached and journaled, so the work is
/// not wasted.
void run_job(ServeState& state, const WireJob& job,
             std::chrono::steady_clock::time_point admitted,
             const ServerOptions& opts,
             const std::shared_ptr<std::atomic<bool>>& claimed) {
  // One enabled-check up front keeps the disabled hot path at a single
  // relaxed load for the whole function (elapsed_us and record() would
  // each pay their own otherwise).
  const bool telemetry = metrics::enabled();
  if (telemetry) state.sm.queue_wait_us.record(elapsed_us(admitted));
  std::string line;
  bool is_ok = false;
  bool hit = false;
  int result_code = kJobOk;
  std::uint64_t digest = 0;
  bool have_digest = false;
  try {
    Deadline deadline(job.deadline_ms != 0 ? job.deadline_ms
                                           : opts.default_deadline_ms);
    if (deadline.passed()) {
      throw WireError(kJobDeadline,
                      "job " + job.id + ": deadline expired before start");
    }
    // Chaos site for the worker itself, keyed by the job's input line
    // so a schedule fires on the same job at any worker count: `throw`
    // models a crashing mapper (code 1), `hang` a stuck one (the
    // watchdog's prey).
    const auto fp = failpoint::evaluate(
        "job.run", static_cast<std::int64_t>(job.line));
    if (fp.action == failpoint::Action::Throw) {
      throw std::runtime_error("injected failure (failpoint job.run)");
    }
    if (fp.action == failpoint::Action::Hang) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fp.arg));
    }
    StageClock clock(telemetry);
    std::string file_text;
    const std::string_view source = job_source(job, file_text);
    std::string key = request_key(job.program, source, job.bindings,
                                  job.topology, job.options);
    const std::optional<std::uint64_t> aliased = state.cache->find_alias(key);
    clock.book(state.sm.alias_us);
    // A job spelled as before skips compile, topology and digest.
    std::optional<CompiledJob> cj;
    if (aliased) {
      digest = *aliased;
      if (telemetry) state.sm.alias_hits.increment();
    } else {
      if (telemetry) state.sm.alias_misses.increment();
      cj.emplace(compile_job(job, source));
      clock.book(state.sm.compile_us);
      digest = job_digest(cj->compiled.graph, cj->topo, job.options);
      state.cache->insert_alias(std::move(key), digest);
      clock.book(state.sm.digest_us);
    }
    have_digest = true;

    OutcomePtr outcome;
    std::shared_future<OutcomePtr> wait_on;
    std::promise<OutcomePtr> promise;
    bool computing = false;
    {
      // Lookup and in-flight registration are one atomic step, so an
      // identical job can never slip between "not cached yet" and
      // "someone is computing it".
      const std::lock_guard<std::mutex> lock(state.inflight_mutex);
      outcome = state.cache->lookup(digest);
      if (outcome != nullptr) {
        hit = true;
      } else {
        const auto it = state.inflight.find(digest);
        if (it != state.inflight.end()) {
          wait_on = it->second;
        } else {
          state.inflight.emplace(digest,
                                 std::shared_future<OutcomePtr>(
                                     promise.get_future().share()));
          computing = true;
        }
      }
    }
    clock.book(state.sm.lookup_us);
    if (computing) {
      try {
        if (!cj) {  // an alias whose digest was evicted skipped this
          cj.emplace(compile_job(job, source));
          clock.book(state.sm.compile_us);
        }
        outcome = compute_outcome(job, *cj);
      } catch (...) {
        // Joiners fail the same way, and nothing is cached.
        promise.set_exception(std::current_exception());
        state.end_flight(digest);
        throw;
      }
      const std::int64_t evicted = state.cache->insert(digest, outcome);
      if (evicted > 0) state.book(kEviction, evicted);
      if (opts.journal != nullptr) {
        // Best-effort: a failed append degrades persistence, never
        // the job (the outcome lives on in memory).
        (void)opts.journal->append(digest, *outcome);
      }
      promise.set_value(outcome);
      state.end_flight(digest);
      clock.book(state.sm.compute_us);
    } else if (!hit) {
      outcome = wait_on.get();  // join the identical in-flight job
      clock.restart();
      hit = true;
      state.book(kDedupJoin);
    }
    state.book(hit ? kCacheHit : kCacheMiss);

    const double wall_ms =
        opts.deterministic
            ? 0.0
            : std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - admitted)
                  .count();
    if (outcome->ok) {
      line = format_ok_result(job.id, digest, hit, *outcome, wall_ms);
      is_ok = true;
    } else {
      line = format_error_result(job.id, job.line, outcome->error_code,
                                 outcome->error);
      result_code = outcome->error_code;
    }
    clock.book(state.sm.format_us);
  } catch (const WireError& e) {
    line = format_error_result(job.id, job.line, e.code(), e.what());
    result_code = e.code();
  } catch (const std::exception& e) {
    line = format_error_result(job.id, job.line, kJobInternal,
                               "job " + job.id + ": internal error: " +
                                   e.what());
    result_code = kJobInternal;
  }
  if (claimed != nullptr && claimed->exchange(true)) {
    return;  // the watchdog already emitted this job's code-6 line
  }
  // Outcome partition (telemetry.hpp): booked exactly where the job's
  // single result line is emitted, so abandoned jobs (claimed above)
  // never double-book.
  const Event line_outcome = !is_ok ? kError : (hit ? kHit : kMiss);
  state.book(line_outcome);
  if (telemetry) {
    metrics::Histogram& wall =
        line_outcome == kError ? state.sm.wall_us_error
        : line_outcome == kHit ? state.sm.wall_us_hit
                               : state.sm.wall_us_miss;
    wall.record(elapsed_us(admitted));
  }
  StageClock write_clock(telemetry);
  state.emit(line);
  write_clock.book(state.sm.write_us);
  if (opts.log != nullptr) {
    std::string fields = job_fields(job.id, job.line);
    if (is_ok) {
      fields += ",\"status\":\"ok\",\"digest\":\"";
      fields += digest_prefix(digest);
      // The per-line hit/miss label of identical concurrent jobs is
      // schedule-dependent; blank it in deterministic mode, exactly
      // like the wire format's determinism contract.
      fields += "\",\"cache\":\"";
      fields += opts.deterministic ? "?" : (hit ? "hit" : "miss");
      fields += "\"";
    } else {
      fields += ",\"status\":\"error\",\"code\":" +
                std::to_string(result_code);
      if (have_digest) {
        fields += ",\"digest\":\"" + digest_prefix(digest) + "\"";
      }
    }
    opts.log->event(EventLog::Level::kInfo,
                    static_cast<std::int64_t>(job.line), "job_completed",
                    fields);
  }
  state.sm.inflight_jobs.add(-1);
}

}  // namespace

std::string ServerStats::to_json() const {
  std::string out = "{\"lines\":" + std::to_string(lines);
  out += ",\"ok\":" + std::to_string(ok);
  out += ",\"errors\":" + std::to_string(errors);
  out += ",\"rejected\":" + std::to_string(rejected);
  out += ",\"abandoned\":" + std::to_string(abandoned);
  out += ",\"cache_hits\":" + std::to_string(cache_hits);
  out += ",\"cache_misses\":" + std::to_string(cache_misses);
  out += ",\"cache_evictions\":" + std::to_string(cache_evictions);
  out += ",\"deduped\":" + std::to_string(deduped);
  out += ",\"uptime_ms\":" + std::to_string(uptime_ms);
  out += "}";
  return out;
}

ServerStats serve(std::istream& in, std::ostream& out,
                  const ServerOptions& options,
                  const std::atomic<bool>* stop) {
  const trace::Span span("server/serve");
  ServeState state(options, out);
  std::thread watchdog([&state, &options] { run_watchdog(state, options); });

  {
    // Pool scope: destroying the pool drains it, running every admitted
    // job to its end, while the watchdog still abandons the stuck ones.
    ThreadPool pool(options.jobs, "oregami-srv");
    const int capacity = options.queue_capacity > 0 ? options.queue_capacity
                                                    : 1;
    std::string raw;
    std::size_t line_number = 0;
    while ((stop == nullptr || !stop->load(std::memory_order_relaxed)) &&
           std::getline(in, raw)) {
      ++line_number;
      // Blank lines are keep-alives / formatting, not jobs.
      if (raw.find_first_not_of(" \t\r") == std::string::npos) {
        continue;
      }
      state.book(kSubmitted);

      StageClock parse_clock(metrics::enabled());
      WireJob job;
      try {
        job = parse_job(raw, line_number);
        parse_clock.book(state.sm.parse_us);
      } catch (const WireError& e) {
        state.book(kError);
        state.emit(format_error_result("", line_number, e.code(), e.what()));
        if (options.log != nullptr) {
          options.log->event(EventLog::Level::kInfo,
                             static_cast<std::int64_t>(line_number),
                             "parse_error",
                             "\"line\":" + std::to_string(line_number) +
                                 ",\"code\":" + std::to_string(e.code()));
        }
        continue;
      }

      // Admission control: reject instead of buffering without bound.
      // The server.admit chaos site (keyed by input line) forces
      // rejection bursts without actually saturating the pool.
      const int depth = pool.pending();
      trace::counter("server/queue_depth", depth);
      state.sm.queue_depth.set(depth);
      const bool forced_reject =
          failpoint::evaluate("server.admit",
                              static_cast<std::int64_t>(job.line))
              .action != failpoint::Action::None;
      if (forced_reject || depth >= capacity) {
        // The backoff hint is a pure function of the observed depth
        // (~5 ms of drain headroom per pending job), so a replayed
        // stream rejects with identical hints.
        const std::int64_t retry_after_ms = 5 * (depth > 0 ? depth : 1);
        state.book(kRejected);
        state.emit(format_error_result(
            job.id, job.line, kJobRejected,
            "job " + job.id + ": rejected: queue full (" +
                std::to_string(depth) + " jobs pending, capacity " +
                std::to_string(capacity) + ")",
            retry_after_ms));
        if (options.log != nullptr) {
          options.log->event(EventLog::Level::kInfo,
                             static_cast<std::int64_t>(job.line),
                             "job_rejected", job_fields(job.id, job.line));
        }
        continue;
      }

      state.sm.inflight_jobs.add(1);
      if (options.log != nullptr) {
        options.log->event(EventLog::Level::kDebug,
                           static_cast<std::int64_t>(job.line),
                           "job_admitted", job_fields(job.id, job.line));
      }
      const auto admitted = std::chrono::steady_clock::now();
      // Jobs with a real (positive) deadline get a watchdog ticket so
      // a stuck worker cannot stall the stream past its deadline.
      const std::int64_t deadline_ms =
          job.deadline_ms != 0 ? job.deadline_ms
                               : options.default_deadline_ms;
      std::shared_ptr<std::atomic<bool>> claimed;
      if (deadline_ms > 0) {
        claimed = std::make_shared<std::atomic<bool>>(false);
        {
          const std::lock_guard<std::mutex> lock(state.watch_mutex);
          state.watch.push_back(ServeState::Ticket{
              job.id, job.line,
              admitted + std::chrono::milliseconds(deadline_ms), claimed});
        }
        state.watch_cv.notify_all();
      }
      (void)pool.submit([&state, job = std::move(job), admitted, &options,
                         claimed]() mutable {
        run_job(state, job, admitted, options, claimed);
      });
    }
  }

  {
    const std::lock_guard<std::mutex> lock(state.watch_mutex);
    state.watch_closed = true;
  }
  state.watch_cv.notify_all();
  watchdog.join();

  const ServerStats stats = state.stats(options.deterministic);
  if (options.log != nullptr && stats.cache_evictions > 0) {
    options.log->event(EventLog::Level::kWarn, EventLog::kServerStop,
                       "cache_evictions",
                       "\"count\":" +
                           std::to_string(stats.cache_evictions));
  }
  return stats;
}

}  // namespace oregami::server
