// The long-lived mapping daemon (ROADMAP "mapping-as-a-service"): one
// serve() call reads newline-delimited JSON jobs (server/wire.hpp)
// from a stream, runs them concurrently on a ThreadPool, answers
// repeated requests from a content-addressed ResultCache, and emits
// one JSON result line per job in completion order.
//
// Contracts:
//   * the daemon never dies on a job: malformed lines, unknown inputs,
//     infeasible mappings, expired deadlines and a full queue all
//     produce structured per-job error lines (wire.hpp codes);
//   * admission control: when `queue_capacity` jobs are already
//     submitted-but-unfinished (ThreadPool::pending()), new jobs are
//     rejected immediately with code 5 -- bounded memory, bounded tail;
//   * results are emitted in completion order, but every line's
//     *content* is deterministic: stripped of the volatile wall_ms
//     field and sorted by id, a result stream is byte-identical across
//     runs, worker counts, and arrival interleavings (cache hit/miss
//     *totals* are deterministic too, via single-flight deduplication
//     of concurrent identical jobs; the per-line hit/miss label of
//     *identical concurrent* jobs is the one schedule-dependent bit);
//   * a watchdog abandons jobs that outrun their Deadline: the code-6
//     line is emitted at expiry and the daemon keeps draining while
//     the stuck worker finishes (its result line is discarded, its
//     computed outcome is still cached);
//   * every result line is written and flushed by the thread that
//     settles it (worker, watchdog, or the reader for parse errors and
//     rejections), under one output mutex; no line is buffered;
//   * shutdown: EOF (or the stop flag, wired to SIGINT/SIGTERM by
//     oregami_serve) stops admission, drains every submitted job,
//     joins the watchdog, and returns the final stats;
//   * every event the call counts is booked once, into the returned
//     ServerStats and, while metrics are enabled, into its registry
//     series (telemetry.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "oregami/server/result_cache.hpp"

namespace oregami::server {

class CacheJournal;
class EventLog;

struct ServerOptions {
  int jobs = 1;  ///< worker threads; 0 = hardware_concurrency
  /// Admission bound: max submitted-but-unfinished jobs before new
  /// arrivals are rejected with code 5.
  int queue_capacity = 64;
  /// Applied to jobs that do not carry their own "deadline_ms".
  /// 0 = none; negative = already expired (deterministic, for tests).
  std::int64_t default_deadline_ms = 0;
  /// Print wall_ms as 0.000, and report ServerStats::deduped and
  /// uptime_ms as 0, so the full result stream and the stats line are
  /// byte-stable (used by the determinism tests and CI diffs).
  bool deterministic = false;
  /// External cache to use instead of a private one at ResultCache's
  /// default size (not owned; must outlive the call). Lets a caller
  /// size the cache, or keep it warm across serve() calls -- the bench
  /// replays the same stream cold then warm.
  ResultCache* cache = nullptr;
  /// Crash-safe persistence (persist.hpp; not owned; must outlive the
  /// call and wrap the same cache as `cache`): every computed outcome
  /// is journaled after its cache insert, so a restarted daemon boots
  /// warm. nullptr = in-memory only.
  CacheJournal* journal = nullptr;
  /// Structured NDJSON event log (telemetry.hpp; not owned; must
  /// outlive the call). nullptr = no event logging.
  EventLog* log = nullptr;
};

struct ServerStats {
  std::int64_t lines = 0;     ///< non-blank input lines consumed
  std::int64_t ok = 0;        ///< successful result lines
  std::int64_t errors = 0;    ///< error result lines (all codes)
  std::int64_t rejected = 0;  ///< subset of errors: admission rejections
  /// Subset of errors: jobs whose worker outran its Deadline and whose
  /// code-6 line was emitted by the watchdog instead (the worker's
  /// eventual result is discarded; its computed outcome is still
  /// cached).
  std::int64_t abandoned = 0;
  /// Jobs served without computing a mapping: a cache hit or a join
  /// onto an identical in-flight job. Deterministic for a fixed stream
  /// (when the cache capacity covers the unique jobs).
  std::int64_t cache_hits = 0;
  /// Jobs that computed (and cached) their outcome. Deterministic:
  /// exactly one per unique digest reaching the mapping stage.
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  /// Subset of cache_hits: jobs that joined an identical in-flight
  /// computation instead of hitting the resident cache. The total is
  /// schedule-dependent (more workers, more overlap), so the metrics
  /// registry marks its series Volatile and deterministic mode
  /// reports 0.
  std::int64_t deduped = 0;
  /// Wall time of the serve() call; 0 in deterministic mode.
  std::int64_t uptime_ms = 0;

  /// One-line JSON rendering of every field, in declaration order (the
  /// daemon's exit summary on stderr). Field set is frozen: scripts
  /// grep it and tools/check_server.py --stats validates it.
  [[nodiscard]] std::string to_json() const;
};

/// Runs the serve loop until `in` hits EOF or `*stop` becomes true.
/// Result lines go to `out` (flushed per line); nothing else is ever
/// written there. Exceptions never escape per-job processing.
[[nodiscard]] ServerStats serve(std::istream& in, std::ostream& out,
                                const ServerOptions& options = {},
                                const std::atomic<bool>* stop = nullptr);

}  // namespace oregami::server
