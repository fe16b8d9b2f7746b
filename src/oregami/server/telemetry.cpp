#include "oregami/server/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace oregami::server {

ServerMetrics& server_metrics() {
  using metrics::Determinism;
  static ServerMetrics* m = new ServerMetrics{
      metrics::counter("oregami_server_jobs_submitted_total"),
      metrics::counter("oregami_server_jobs_total{outcome=\"hit\"}"),
      metrics::counter("oregami_server_jobs_total{outcome=\"miss\"}"),
      metrics::counter("oregami_server_jobs_total{outcome=\"error\"}"),
      metrics::counter("oregami_server_jobs_total{outcome=\"rejected\"}"),
      metrics::counter("oregami_server_jobs_total{outcome=\"abandoned\"}"),
      metrics::counter("oregami_server_cache_hits_total"),
      metrics::counter("oregami_server_cache_misses_total"),
      metrics::counter("oregami_server_cache_evictions_total"),
      metrics::counter("oregami_server_dedup_joins_total",
                       Determinism::kVolatile),
      metrics::counter("oregami_server_watchdog_fired_total"),
      metrics::counter("oregami_failpoint_fired_total"),
      metrics::counter("oregami_persist_appends_total"),
      metrics::counter("oregami_persist_compactions_total"),
      metrics::counter("oregami_persist_io_errors_total"),
      metrics::counter("oregami_persist_recovery_restored_total"),
      metrics::counter("oregami_persist_recovery_skipped_total"),
      metrics::histogram("oregami_persist_append_us"),
      metrics::histogram("oregami_persist_fsync_us"),
      metrics::histogram("oregami_persist_compact_us"),
      metrics::gauge("oregami_server_queue_depth", Determinism::kVolatile),
      metrics::gauge("oregami_server_inflight_jobs", Determinism::kVolatile),
      metrics::histogram("oregami_server_job_queue_wait_us"),
      metrics::histogram("oregami_server_job_wall_us{outcome=\"hit\"}"),
      metrics::histogram("oregami_server_job_wall_us{outcome=\"miss\"}"),
      metrics::histogram("oregami_server_job_wall_us{outcome=\"error\"}"),
      metrics::histogram("oregami_server_stage_us{stage=\"parse\"}"),
      metrics::histogram("oregami_server_stage_us{stage=\"alias\"}"),
      metrics::histogram("oregami_server_stage_us{stage=\"compile\"}",
                         Determinism::kVolatile),
      metrics::histogram("oregami_server_stage_us{stage=\"digest\"}",
                         Determinism::kVolatile),
      metrics::histogram("oregami_server_stage_us{stage=\"lookup\"}"),
      metrics::histogram("oregami_server_stage_us{stage=\"compute\"}"),
      metrics::histogram("oregami_server_stage_us{stage=\"format\"}"),
      metrics::histogram("oregami_server_stage_us{stage=\"write\"}"),
      metrics::counter("oregami_server_alias_total{result=\"hit\"}",
                       Determinism::kVolatile),
      metrics::counter("oregami_server_alias_total{result=\"miss\"}",
                       Determinism::kVolatile),
  };
  return *m;
}

std::int64_t elapsed_us(std::chrono::steady_clock::time_point start) {
  if (!metrics::enabled()) return 0;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string digest_prefix(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf, 8);
}

// --- EventLog ---------------------------------------------------------

std::optional<EventLog::Level> EventLog::parse_level(std::string_view text) {
  if (text == "debug") return Level::kDebug;
  if (text == "info") return Level::kInfo;
  if (text == "warn") return Level::kWarn;
  return std::nullopt;
}

namespace {
const char* level_name(EventLog::Level level) {
  switch (level) {
    case EventLog::Level::kDebug: return "debug";
    case EventLog::Level::kInfo: return "info";
    case EventLog::Level::kWarn: return "warn";
  }
  return "info";
}
}  // namespace

EventLog::EventLog(const std::string& path, Level level, bool deterministic)
    : level_(level),
      deterministic_(deterministic),
      start_(std::chrono::steady_clock::now()) {
  file_ = std::fopen(path.c_str(), "wb");
}

EventLog::~EventLog() { close(); }

void EventLog::event(Level level, std::int64_t key, std::string_view name,
                     const std::string& fields) {
  if (file_ == nullptr || level < level_) return;
  double ts_ms = 0.0;
  if (!deterministic_) {
    ts_ms = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
  }
  char ts_buf[32];
  std::snprintf(ts_buf, sizeof(ts_buf), "%.3f", ts_ms);
  std::string line = "{\"ts_ms\":";
  line += ts_buf;
  line += ",\"level\":\"";
  line += level_name(level);
  line += "\",\"event\":\"";
  line += name;
  line += "\"";
  if (!fields.empty()) {
    line += ",";
    line += fields;
  }
  line += "}";

  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;  // closed while formatting
  if (deterministic_) {
    buffer_.push_back(Buffered{key, std::string(name), std::move(line)});
  } else {
    write_line(line);
    std::fflush(file_);
  }
}

void EventLog::write_line(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
}

void EventLog::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  if (deterministic_) {
    // Canonical order: the input-stream position of the job, then the
    // event name, then the rendered payload -- all schedule-independent
    // for a fixed stream.
    std::sort(buffer_.begin(), buffer_.end(),
              [](const Buffered& a, const Buffered& b) {
                if (a.key != b.key) return a.key < b.key;
                if (a.name != b.name) return a.name < b.name;
                return a.line < b.line;
              });
    for (const auto& entry : buffer_) write_line(entry.line);
    buffer_.clear();
  }
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
}

}  // namespace oregami::server
