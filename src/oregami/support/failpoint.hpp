// Deterministic failure injection for chaos-testing long-lived
// components (the mapping server's persistence and job paths today).
// Named sites are compiled into production code and cost one relaxed
// atomic load when no schedule is armed -- the same zero-cost contract
// as trace.hpp -- so they stay in release builds and chaos runs
// exercise exactly the shipped code.
//
// A *schedule string* arms sites deterministically:
//
//   "persist.write:err@3,job.run:hang(200)@7"
//
//   clause  := site ':' action [ '(' ARG ')' ] [ '@' spec ]
//   site    := dotted name ("persist.write", "job.run", ...)
//   action  := err    -- the site reports an injected I/O failure
//            | short  -- a write persists only half its bytes, then
//                        fails (a torn record, as after kill -9)
//            | throw  -- the site throws std::runtime_error
//            | hang   -- the site sleeps ARG ms (default 100)
//   spec    := N      -- fire when the site's key equals N
//            | N '+'  -- fire when the key is >= N
//            | '*'    -- fire on every evaluation (default)
//            | 'p' PCT 's' SEED
//                     -- fire pseudo-randomly with probability PCT%,
//                        from a SplitMix64 stream seeded by
//                        (SEED, key): deterministic per key, so a
//                        seeded random schedule replays bit-for-bit
//
// The *key* of an evaluation is what makes chaos runs reproducible
// across worker counts: sites with a natural schedule-independent
// identity pass it explicitly (the server's job path keys by the job's
// input line number), and all other sites default to a per-site
// monotone evaluation counter (1-based). Every firing is counted;
// report() renders the counts deterministically for test assertions
// and shutdown summaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace oregami::failpoint {

enum class Action {
  None,   ///< site proceeds normally
  Err,    ///< report an injected failure (e.g. ENOSPC, fsync error)
  Short,  ///< write half the bytes, then report failure
  Throw,  ///< throw std::runtime_error from the site
  Hang,   ///< sleep for `arg` milliseconds
};

struct Hit {
  Action action = Action::None;
  std::int64_t arg = 0;  ///< Hang: sleep duration in ms
};

namespace detail {
// The armed flag lives here so evaluate() inlines to one relaxed load
// + branch when no schedule is configured.
extern std::atomic<bool> g_armed;
[[nodiscard]] Hit evaluate_slow(std::string_view site, std::int64_t key);
}  // namespace detail

/// True when a schedule is armed; the whole cost of a disarmed site.
[[nodiscard]] inline bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Evaluates the named site against the armed schedule. `key` selects
/// the clause match: pass a stable identifier (e.g. a job's input line
/// number) where firing must be schedule-independent across worker
/// counts; the default -1 uses the site's own 1-based evaluation
/// counter. Thread-safe.
[[nodiscard]] inline Hit evaluate(std::string_view site,
                                  std::int64_t key = -1) {
  if (!armed()) {
    return {};
  }
  return detail::evaluate_slow(site, key);
}

/// Parses and arms `schedule` (grammar above), replacing any previous
/// one. Throws std::invalid_argument with a quotable message on bad
/// syntax; an empty string is a usage error too (use clear()).
void configure(const std::string& schedule);

/// Disarms every site and drops the schedule and all counters.
void clear();

/// Deterministic one-line summary of the armed clauses and their fire
/// counts, e.g. "persist.write:err@3 fired 1; job.run:hang@7 fired 0".
/// Empty string when nothing is armed.
[[nodiscard]] std::string report();

}  // namespace oregami::failpoint
