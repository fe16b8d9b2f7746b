// Shared pieces of the repository benchmark: the run result printed as
// the last stdout line, output checks, exact-repeat counters, sample
// statistics, and the span log behind the per-layer table of a traced
// run. The workloads live in serve_workloads.cpp and map_workload.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "oregami/support/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for the files a run writes (cache journals).
  std::string work_dir = ".";
};

/// What one run reports: the last stdout line is this object as JSON.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  [[nodiscard]] std::string to_json(bool correct) const;
};

/// An output check failed: the run prints no numbers and exits non-zero.
class CheckError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckError(what);
}

/// Deterministic work counters of one repeat. Every repeat of a run must
/// produce identical counters; any drift fails the run.
using Counters = std::map<std::string, std::int64_t>;

/// Throws CheckError naming every counter where `got` differs from
/// `want`.
void expect_same_counters(const Counters& want, const Counters& got,
                          const std::string& what);

/// Prints `counters` as one indented line per counter.
void print_counters(const std::string& title, const Counters& counters);

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// --- Reference speed --------------------------------------------------
//
// The container shares its host, which runs it at anywhere from about
// half to full speed for stretches of seconds to minutes, alike for every
// kind of work the library does. Timed figures are therefore reported in
// reference seconds: each timed stretch is bracketed by a fixed kernel
// that belongs to the benchmark (no library code runs in it), and its
// wall time is scaled by how fast that kernel ran around it against its
// time on the machine the benchmark was defined on, at full speed.

/// Wall time of the reference kernel: sorting 300,000 pseudo-random
/// integers, then filling and probing a 100,000-key hash map.
[[nodiscard]] double reference_kernel_s();

/// The helper process that runs the reference kernel on request, so the
/// kernel's memory never counts toward this process's peak RSS. Construct
/// one, before any thread starts, for host_speed() to ask; the destructor
/// ends the helper and waits for it.
class ReferenceHelper {
 public:
  ReferenceHelper();
  ~ReferenceHelper();
  ReferenceHelper(const ReferenceHelper&) = delete;
  ReferenceHelper& operator=(const ReferenceHelper&) = delete;
};

/// The host's speed now: the reference kernel's full-speed time over its
/// time just measured in the helper (about 0.5 to 1).
[[nodiscard]] double host_speed();

/// Times stretches of work in reference seconds: every stretch counts at
/// the mean host speed sampled just before and just after it.
class ReferenceTimer {
 public:
  ReferenceTimer() : speed_(host_speed()) {}

  /// Samples the host speed as the start of the next stretch, after a
  /// gap that is not timed.
  void restart() { speed_ = host_speed(); }

  /// Scales `wall_s`, the stretch run since the last call (or since
  /// construction or restart()), to reference seconds.
  double to_reference(double wall_s) {
    const double after = host_speed();
    const double mean = 0.5 * (speed_ + after);
    speeds_.push_back(after);
    speed_ = after;
    return wall_s * mean;
  }

  /// Every host speed sampled after a stretch.
  [[nodiscard]] const std::vector<double>& speeds() const { return speeds_; }

 private:
  double speed_;
  std::vector<double> speeds_;
};

/// Draws Poisson arrival offsets (seconds from the start of a phase) at
/// `rate` per second from `seed`.
[[nodiscard]] std::vector<double> poisson_schedule(std::size_t count,
                                                   double rate,
                                                   std::uint64_t seed);

// --- The span log of a traced run ------------------------------------
//
// The benchmark wraps each public stage call of a job in its own span
// (one job id per job); spans the library already records through
// support/trace (mapper internals, lexer/parser/compiler) are read back
// and hung under the stage span whose call produced them. A layer's self
// time is its spans' total duration minus its child spans' total.

class SpanLog {
 public:
  /// One closed span: the job it belongs to, its layer ("job" for the
  /// job's own span), and its duration.
  struct Span {
    std::int64_t job = 0;
    const char* layer = "";
    double dur_us = 0.0;
  };

  /// Opens the span of job `id`; end_job() closes it.
  void begin_job(std::int64_t id) {
    job_ = id;
    job_start_ = Clock::now();
  }
  void end_job() { record("job", job_start_); }

  /// Runs `fn` inside a span of `layer` (one stage of the open job).
  template <class Fn>
  decltype(auto) stage(const char* layer, Fn&& fn) {
    struct Close {
      SpanLog* log;
      const char* layer;
      Clock::time_point start;
      ~Close() { log->record(layer, start); }
    } close{this, layer, Clock::now()};
    return fn();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Total duration of all job spans, microseconds.
  [[nodiscard]] double job_total_us() const;

 private:
  void record(const char* layer, Clock::time_point start);

  std::int64_t job_ = 0;
  Clock::time_point job_start_;
  std::vector<Span> spans_;
};

/// The per-layer table of a traced run: one row per stage layer and per
/// library span name, with call count, self time, per-call p50 and share
/// of the traced end-to-end time. Library spans whose path starts with
/// one of `owners`' prefixes are charged to that stage.
class LayerTable {
 public:
  struct Row {
    std::string layer;
    std::int64_t calls = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    std::vector<double> per_call_us;
  };

  LayerTable(const SpanLog& log, const std::vector<oregami::trace::Event>& events,
             const std::vector<std::pair<std::string, std::string>>& owners);

  /// Prints the table; `e2e_us` is the traced end-to-end time the shares
  /// are taken of.
  void print(const std::string& title, double e2e_us) const;

  /// Sum of every row's self time except the job row (time inside jobs
  /// that some stage accounts for), microseconds.
  [[nodiscard]] double accounted_us() const;

  /// Per-call p50 of a layer in microseconds; 0 when it never ran.
  [[nodiscard]] double p50_us(const std::string& layer) const;
  [[nodiscard]] std::int64_t calls(const std::string& layer) const;

 private:
  std::vector<Row> rows_;
};

/// Library span name without its "#N" instance suffix and parent path
/// ("multilevel/coarsen#3" -> "coarsen").
[[nodiscard]] std::string span_leaf(const std::string& path);

}  // namespace perfbench
