// Structured pipeline tracing: nested spans + counters + instant
// events for the LaRCS -> MAPPER -> METRICS pipeline, with two
// exporters (Chrome trace-event JSON and an ASCII summary tree) and a
// determinism contract strong enough to sit inside the portfolio
// mapper's bit-deterministic fan-out.
//
// Design constraints, in order:
//   * near-zero overhead when disabled -- every entry point starts with
//     a single relaxed atomic load and returns before touching memory:
//     no allocation, no clock read, no thread-local registration;
//   * thread safety without contention -- each thread records into its
//     own buffer (registered once under a mutex, then lock-free for the
//     thread); buffers are owned by the global registry via shared_ptr,
//     so events survive worker exceptions and thread exit, and flush
//     never blocks recording;
//   * deterministic output -- events are keyed by a stable *span path*
//     ("portfolio/cand#3/contract") plus a per-thread sequence number,
//     and the exporters order events by (path, seq), never by wall
//     time or completion order. Wall times, durations, and the
//     physical worker index are *volatile* fields: CI strips them
//     with tools/check_trace.py, and the rest of a traced run is
//     byte-identical across --jobs values and across repeated runs.
//
// The path key makes determinism a local property of the
// instrumentation: as long as concurrent lanes use distinct path
// prefixes (the portfolio gives every candidate its own LaneScope),
// no two threads ever emit the same path, so the (path, seq) order is
// schedule-independent.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace oregami::trace {

/// One recorded event. Spans are recorded as a single event at close
/// (Chrome "complete" semantics); counters and instants are points.
struct Event {
  enum class Kind { Span, Counter, Instant };

  Kind kind = Kind::Instant;
  /// Full slash-separated span path; the stable primary sort key.
  std::string path;
  /// Deterministic argument payload ("k=v; k=v"), exported under args.
  std::string args;
  /// Counter value (Kind::Counter only).
  std::int64_t value = 0;
  /// Logical lane (Chrome tid): 0 = main flow; the portfolio assigns
  /// candidate id + 1. Deterministic.
  int lane = 0;
  /// Nesting depth of the span's parent chain (for the summary tree).
  int depth = 0;
  /// -- volatile fields (stripped by tools/check_trace.py) --
  std::int64_t start_us = 0;  ///< microseconds since tracer enable
  std::int64_t dur_us = 0;    ///< span duration (Kind::Span only)
  int worker = -1;            ///< physical ThreadPool worker, -1 = none
  /// Per-thread monotone sequence, assigned at span *open* (so it
  /// matches program order); secondary sort key. Not exported.
  std::uint64_t seq = 0;
};

/// The single global enable flag; reading it is the entire cost of a
/// disabled trace point.
[[nodiscard]] bool enabled();

/// Turns tracing on (resets the epoch clock the first time).
void enable();

/// Turns tracing off; already-buffered events are kept until clear().
void disable();

/// Drops every buffered event and detaches all thread buffers (they
/// lazily re-register on next use). Safe while threads are idle.
void clear();

/// RAII nested span. Constructing while disabled is a no-op (one
/// relaxed load); the span stays inert even if tracing is enabled
/// mid-lifetime, so open/close always pair.
class Span {
 public:
  explicit Span(std::string_view name);
  Span(std::string_view name, std::string args);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Records a counter sample at the current span path.
void counter(std::string_view name, std::int64_t value);

/// Records an instant event at the current span path.
void instant(std::string_view name, std::string args = {});

/// Re-bases the calling thread's span context: subsequent spans nest
/// under `path` and carry logical lane `lane`. The portfolio opens one
/// per candidate task, so a candidate's events land under the same
/// deterministic path no matter which worker ran it. Restores the
/// previous context on destruction.
class LaneScope {
 public:
  LaneScope(std::string path, int lane);
  ~LaneScope();

  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  bool active_ = false;
  std::string saved_path_;
  int saved_lane_ = 0;
  int saved_depth_ = 0;
};

/// Merges every thread buffer and returns the events in canonical
/// (path, seq) order. Non-destructive; callable any time.
[[nodiscard]] std::vector<Event> snapshot();

/// Chrome trace-event JSON ({"traceEvents": [...]}): loads in
/// chrome://tracing and Perfetto. Spans become "X" (complete) events,
/// counters "C", instants "i". Deterministic field order; volatile
/// fields are emitted adjacently so tools/check_trace.py can strip
/// them with one pass.
void write_chrome_json(std::ostream& out, const std::vector<Event>& events);

/// ASCII summary tree: spans aggregated by path with call counts and
/// inclusive/exclusive wall times, counters listed beneath their path.
[[nodiscard]] std::string summary_tree(const std::vector<Event>& events);

namespace detail {
// The enable flag lives here so Span's constructor inlines to exactly
// one relaxed load + branch when disabled.
extern std::atomic<bool> g_enabled;
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

}  // namespace oregami::trace
