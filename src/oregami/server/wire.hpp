// The mapping server's wire format: newline-delimited JSON jobs in,
// newline-delimited JSON results out.
//
// Job line (one JSON object per line):
//   {"id": 7,                       // required; number or string
//    "program": "nbody",            // exactly one of program /
//    "larcs": "algorithm ...",      //   larcs (inline source) /
//    "program_file": "x.larcs",     //   program_file (path)
//    "bind": {"n": 15, "s": 4},     // optional integer bindings
//    "topology": "mesh:4x4",        // required
//    "options": {"portfolio": 8,    // optional mapper options
//                "anneal": 2, "heft": true, "multilevel": 0,
//                "seed": 123, "refine": false,
//                "refine_placement": false, "load_bound": -1,
//                "no_canned": false, "no_group": false,
//                "no_systolic": false, "jobs": 1, "budget_ms": 0},
//    "deadline_ms": 50}             // optional per-job deadline
//
// The options follow the CLI's contract (option_violation in
// mapper/driver.hpp). `budget_ms` is the wall-clock budget of the
// portfolio search and of the multilevel V-cycle's refinement
// (MapperOptions::time_budget_ms: 0 = none, < 0 = already expired).
// `budget_ms` and `deadline_ms` are at most 2^40 (kMaxBudgetMs in
// support/deadline.hpp).
//
// Result line, success:
//   {"id":"7","status":"ok","digest":"<16 hex>","cache":"hit|miss",
//    "strategy":"General","completion":N,"external_ipc":N,
//    "max_load":N,"procs":[...],"wall_ms":1.234}
// Result line, error (the job failed; the daemon never exits):
//   {"id":"7","line":3,"status":"error","code":C,"error":"..."}
//
// Per-job error codes reuse the CLI exit-code contract, extended with
// two server-only conditions:
//   1 internal, 2 malformed job (usage), 3 bad input (unknown
//   program/topology, malformed LaRCS), 4 mapping infeasible,
//   5 rejected (admission control: queue full), 6 deadline expired.
//
// Every field order and number rendering below is deterministic, so a
// result stream normalized by (id, line) and stripped of the volatile
// wall_ms field is byte-identical across runs and --jobs values.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "oregami/mapper/driver.hpp"
#include "oregami/server/result_cache.hpp"
#include "oregami/support/json.hpp"

namespace oregami::server {

/// Per-job error codes (see the contract above).
inline constexpr int kJobOk = 0;
inline constexpr int kJobInternal = 1;
inline constexpr int kJobMalformed = 2;
inline constexpr int kJobBadInput = 3;
inline constexpr int kJobInfeasible = 4;
inline constexpr int kJobRejected = 5;
inline constexpr int kJobDeadline = 6;

/// A structured per-job failure; the server converts it to an error
/// result line instead of ever letting it escape.
class WireError : public std::runtime_error {
 public:
  WireError(int code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  [[nodiscard]] int code() const noexcept { return code_; }

 private:
  int code_;
};

/// One parsed job request (inputs still textual; the server compiles
/// them in the worker).
struct WireJob {
  std::string id;  ///< echoed verbatim (numbers rendered canonically)
  std::size_t line = 0;  ///< 1-based input line, for diagnostics
  std::string program;       ///< built-in program name, or
  std::string larcs;         ///< inline LaRCS source, or
  std::string program_file;  ///< path to a LaRCS file
  std::map<std::string, long> bindings;
  std::string topology;
  MapperOptions options;  ///< normalized (server defaults: jobs = 1)
  std::int64_t deadline_ms = 0;  ///< 0 = server default / none
};

/// Parses one job line. Throws WireError with an exhaustive message
/// ('job 7: unknown topology "taurus"') -- kJobMalformed for JSON /
/// schema violations, kJobBadInput for well-formed jobs naming unknown
/// inputs that can be detected without compiling.
[[nodiscard]] WireJob parse_job(const std::string& json_line,
                                std::size_t line_number);

/// Renders a success result line (no trailing newline). `wall_ms` < 0
/// omits nothing but prints 0.000 (the deterministic server mode).
[[nodiscard]] std::string format_ok_result(const std::string& id,
                                           std::uint64_t digest,
                                           bool cache_hit,
                                           const CachedOutcome& outcome,
                                           double wall_ms);

/// Renders an error result line (no trailing newline). `id` may be
/// empty when the line never parsed far enough to yield one.
/// `retry_after_ms` >= 0 adds a "retry_after_ms" backoff hint (emitted
/// by code-5 rejections, derived deterministically from queue depth);
/// the default -1 omits the field.
[[nodiscard]] std::string format_error_result(
    const std::string& id, std::size_t line_number, int code,
    const std::string& message, std::int64_t retry_after_ms = -1);

/// JSON string escaping (support/json.hpp), under the server
/// namespace for the formatters, tests and tools.
using oregami::json_escape;

}  // namespace oregami::server
