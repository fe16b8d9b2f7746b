#pragma once
// Server-side telemetry: the named metric handles every server layer
// records into (support/metrics.hpp registry) and the structured NDJSON
// event log.
//
// All server series are registered once, eagerly, by server_metrics().
// Handles are plain references into the process-wide registry, so a
// metric site is one relaxed atomic when telemetry is enabled and one
// relaxed load when it is not.
//
// Counter identity (checked by tools/check_metrics.py and
// test_server.cpp): every line counted by
// `oregami_server_jobs_submitted_total` lands in exactly one outcome of
// `oregami_server_jobs_total{outcome=...}`:
//     hit + miss + error + rejected + abandoned == submitted
// Outcomes are tallied where the job's single result line is decided
// (worker emission, watchdog claim, admission rejection, parse error),
// NOT at cache-lookup time -- a watchdog-abandoned job still touches
// the cache counters but contributes only `abandoned` to the identity.
//
// Each counted event has one booking site, which adds to its owner's
// own tally and to the series here: serve()'s per-call tally
// (ServerStats) for job and cache events, CacheJournal's PersistStats
// for journal events.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "oregami/support/metrics.hpp"

namespace oregami::server {

struct ServerMetrics {
  // Outcome partition (see header comment).
  metrics::Counter& jobs_submitted;
  metrics::Counter& jobs_hit;
  metrics::Counter& jobs_miss;
  metrics::Counter& jobs_error;
  metrics::Counter& jobs_rejected;
  metrics::Counter& jobs_abandoned;
  // Cache traffic, booked with the matching ServerStats field.
  metrics::Counter& cache_hits;
  metrics::Counter& cache_misses;
  metrics::Counter& cache_evictions;
  // Single-flight joins: schedule-dependent, hence Volatile.
  metrics::Counter& dedup_joins;
  metrics::Counter& watchdog_fired;
  metrics::Counter& failpoint_fired;
  // Persistence (persist.cpp): appends, compactions and I/O errors are
  // booked with the matching PersistStats field; the recovery counts
  // copy the RecoveryStats of open_and_recover().
  metrics::Counter& persist_appends;
  metrics::Counter& persist_compactions;
  metrics::Counter& persist_io_errors;
  metrics::Counter& recovery_restored;
  metrics::Counter& recovery_skipped;
  metrics::Histogram& persist_append_us;
  metrics::Histogram& persist_fsync_us;
  metrics::Histogram& persist_compact_us;
  // Load gauges: instantaneous, schedule-dependent, hence Volatile.
  metrics::Gauge& queue_depth;
  metrics::Gauge& inflight_jobs;
  // Per-job lifecycle timings; wall time split by outcome.
  metrics::Histogram& queue_wait_us;
  metrics::Histogram& wall_us_hit;
  metrics::Histogram& wall_us_miss;
  metrics::Histogram& wall_us_error;
  // Per-stage service time, oregami_server_stage_us{stage=...}, in job
  // order: parse (reader), alias, compile, digest, lookup, compute,
  // format, write. Compile and digest run only on alias misses, which
  // identical concurrent jobs can both take, hence Volatile.
  metrics::Histogram& parse_us;
  metrics::Histogram& alias_us;
  metrics::Histogram& compile_us;
  metrics::Histogram& digest_us;
  metrics::Histogram& lookup_us;
  metrics::Histogram& compute_us;
  metrics::Histogram& format_us;
  metrics::Histogram& write_us;
  // Alias index probes (result_cache.hpp): Volatile, as above.
  metrics::Counter& alias_hits;
  metrics::Counter& alias_misses;
};

/// Registers (first call) and returns the server metric handles.
/// Thread-safe; references are process-lifetime stable.
ServerMetrics& server_metrics();

/// Microseconds since `start`, for Histogram::record. Returns 0 when
/// telemetry is disabled so callers can skip the clock read entirely.
[[nodiscard]] std::int64_t elapsed_us(
    std::chrono::steady_clock::time_point start);

/// First 8 hex digits of a job digest, for log lines.
[[nodiscard]] std::string digest_prefix(std::uint64_t digest);

// --- Structured event log --------------------------------------------
// One JSON object per line:
//   {"ts_ms":12.345,"level":"info","event":"job_completed","id":"7",...}
// Levels: debug < info < warn; events below the configured level are
// dropped. Timestamps are monotonic milliseconds since log open.
//
// Deterministic mode: ts_ms is 0.000 and lines are buffered, then
// sorted by (key, event, fields) at close, so the file is
// byte-identical across worker counts for a fixed input stream. `key`
// is the job's input line number (server-level events use the
// kServerStart / kServerStop sentinels to pin stream order).
class EventLog {
 public:
  enum class Level { kDebug = 0, kInfo = 1, kWarn = 2 };

  static constexpr std::int64_t kServerStart = -1;
  static constexpr std::int64_t kServerStop = INT64_MAX;

  /// Returns nullopt for anything but "debug" / "info" / "warn".
  static std::optional<Level> parse_level(std::string_view text);

  EventLog(const std::string& path, Level level, bool deterministic);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// False when the path could not be opened (telemetry degrades; the
  /// daemon must keep serving).
  [[nodiscard]] bool ok() const { return file_ != nullptr; }

  /// `fields` is a pre-rendered JSON fragment without braces
  /// (`"id":"7","line":3`), or empty.
  void event(Level level, std::int64_t key, std::string_view name,
             const std::string& fields);

  /// Flushes (and in deterministic mode sorts) buffered events and
  /// closes the file. Idempotent; the destructor calls it.
  void close();

 private:
  struct Buffered {
    std::int64_t key;
    std::string name;
    std::string line;
  };
  void write_line(const std::string& line);

  std::FILE* file_ = nullptr;
  Level level_;
  bool deterministic_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mutex_;
  std::vector<Buffered> buffer_;
};

}  // namespace oregami::server
