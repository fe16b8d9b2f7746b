#include "oregami/support/failpoint.hpp"

#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "oregami/support/metrics.hpp"
#include "oregami/support/rng.hpp"

namespace oregami::failpoint {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

/// How a clause decides whether the current evaluation fires.
enum class SpecKind {
  Always,  ///< every evaluation
  Exact,   ///< key == n
  From,    ///< key >= n
  Random,  ///< SplitMix64(seed, key) < pct%
};

struct Clause {
  std::string site;
  Action action = Action::None;
  std::int64_t arg = 0;
  SpecKind spec = SpecKind::Always;
  std::int64_t n = 0;
  int pct = 0;
  std::uint64_t seed = 0;
  std::int64_t fired = 0;
  std::string text;  ///< the clause as written, for report()
};

struct Registry {
  std::mutex mutex;
  std::vector<Clause> clauses;
  /// Per-site evaluation counters (1-based); the default key.
  std::unordered_map<std::string, std::int64_t> counters;
};

Registry& registry() {
  static Registry r;
  return r;
}

[[noreturn]] void bad_schedule(const std::string& schedule,
                               const std::string& what) {
  throw std::invalid_argument("bad failpoint schedule \"" + schedule +
                              "\": " + what);
}

std::int64_t parse_int(const std::string& schedule, const std::string& tok,
                       const char* what) {
  if (tok.empty()) {
    bad_schedule(schedule, std::string("missing ") + what);
  }
  std::int64_t value = 0;
  for (const char c : tok) {
    if (c < '0' || c > '9') {
      bad_schedule(schedule, std::string("bad ") + what + " '" + tok + "'");
    }
    if (value > (INT64_MAX - (c - '0')) / 10) {
      bad_schedule(schedule, std::string(what) + " '" + tok +
                                 "' is out of range");
    }
    value = value * 10 + (c - '0');
  }
  return value;
}

Clause parse_clause(const std::string& schedule, const std::string& text) {
  Clause clause;
  clause.text = text;

  const std::size_t colon = text.find(':');
  if (colon == std::string::npos || colon == 0) {
    bad_schedule(schedule, "clause \"" + text +
                               "\" needs the form site:action[@spec]");
  }
  clause.site = text.substr(0, colon);
  for (const char c : clause.site) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_';
    if (!ok) {
      bad_schedule(schedule,
                   "site \"" + clause.site + "\" has invalid characters");
    }
  }

  std::string rest = text.substr(colon + 1);
  std::string spec;
  const std::size_t at = rest.find('@');
  if (at != std::string::npos) {
    spec = rest.substr(at + 1);
    rest.resize(at);
  }

  // action [ '(' ARG ')' ]
  std::string action = rest;
  const std::size_t paren = rest.find('(');
  bool has_arg = false;
  std::int64_t arg = 0;
  if (paren != std::string::npos) {
    if (rest.back() != ')') {
      bad_schedule(schedule, "unbalanced '(' in \"" + text + "\"");
    }
    action = rest.substr(0, paren);
    arg = parse_int(schedule,
                    rest.substr(paren + 1, rest.size() - paren - 2),
                    "action argument");
    has_arg = true;
  }
  if (action == "err") {
    clause.action = Action::Err;
  } else if (action == "short") {
    clause.action = Action::Short;
  } else if (action == "throw") {
    clause.action = Action::Throw;
  } else if (action == "hang") {
    clause.action = Action::Hang;
    clause.arg = has_arg ? arg : 100;  // default hang: 100 ms
    has_arg = false;
  } else {
    bad_schedule(schedule, "unknown action \"" + action +
                               "\" (known: err, short, throw, hang)");
  }
  if (has_arg) {
    bad_schedule(schedule,
                 "action \"" + action + "\" does not take an argument");
  }

  // spec
  if (spec.empty() || spec == "*") {
    clause.spec = SpecKind::Always;
  } else if (spec.front() == 'p') {
    const std::size_t s = spec.find('s');
    if (s == std::string::npos) {
      bad_schedule(schedule, "random spec \"" + spec +
                                 "\" needs the form pPCTsSEED");
    }
    const std::int64_t pct =
        parse_int(schedule, spec.substr(1, s - 1), "probability");
    if (pct < 0 || pct > 100) {
      bad_schedule(schedule, "probability must be 0..100, got " +
                                 std::to_string(pct));
    }
    clause.spec = SpecKind::Random;
    clause.pct = static_cast<int>(pct);
    clause.seed = static_cast<std::uint64_t>(
        parse_int(schedule, spec.substr(s + 1), "seed"));
  } else if (spec.back() == '+') {
    clause.spec = SpecKind::From;
    clause.n =
        parse_int(schedule, spec.substr(0, spec.size() - 1), "index");
  } else {
    clause.spec = SpecKind::Exact;
    clause.n = parse_int(schedule, spec, "index");
  }
  return clause;
}

bool spec_matches(const Clause& clause, std::int64_t key) {
  switch (clause.spec) {
    case SpecKind::Always:
      return true;
    case SpecKind::Exact:
      return key == clause.n;
    case SpecKind::From:
      return key >= clause.n;
    case SpecKind::Random: {
      // One deterministic draw per (seed, key): the golden-ratio
      // increment decorrelates adjacent keys before SplitMix64 mixes.
      SplitMix64 rng(clause.seed + 0x9e3779b97f4a7c15ULL *
                                       static_cast<std::uint64_t>(key));
      return rng.next_below(100) <
             static_cast<std::uint64_t>(clause.pct);
    }
  }
  return false;
}

}  // namespace

namespace detail {

Hit evaluate_slow(std::string_view site, std::int64_t key) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const std::int64_t counter = ++reg.counters[std::string(site)];
  const std::int64_t effective = key >= 0 ? key : counter;
  for (Clause& clause : reg.clauses) {
    if (clause.site == site && spec_matches(clause, effective)) {
      ++clause.fired;
      if (metrics::enabled()) {
        // Same series server/telemetry.cpp registers eagerly, so the
        // counter is present (at 0) in every exposition.
        metrics::counter("oregami_failpoint_fired_total").increment();
      }
      return Hit{clause.action, clause.arg};
    }
  }
  return {};
}

}  // namespace detail

void configure(const std::string& schedule) {
  std::vector<Clause> clauses;
  std::size_t start = 0;
  while (start <= schedule.size()) {
    std::size_t end = schedule.find(',', start);
    if (end == std::string::npos) {
      end = schedule.size();
    }
    const std::string text = schedule.substr(start, end - start);
    if (text.empty()) {
      bad_schedule(schedule, "empty clause");
    }
    clauses.push_back(parse_clause(schedule, text));
    start = end + 1;
  }

  Registry& reg = registry();
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.clauses = std::move(clauses);
    reg.counters.clear();
  }
  detail::g_armed.store(true, std::memory_order_relaxed);
}

void clear() {
  detail::g_armed.store(false, std::memory_order_relaxed);
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.clauses.clear();
  reg.counters.clear();
}

std::string report() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::string out;
  for (const Clause& clause : reg.clauses) {
    if (!out.empty()) {
      out += "; ";
    }
    out += clause.text + " fired " + std::to_string(clause.fired);
  }
  return out;
}

}  // namespace oregami::failpoint
