#include "oregami/server/wire.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "oregami/support/deadline.hpp"
#include "oregami/support/hash.hpp"

namespace oregami::server {

namespace {

// ---------------------------------------------------------------------
// A minimal strict JSON reader (objects, arrays, strings, numbers,
// booleans, null) sufficient for one job line. Strictness is the
// point: every deviation produces a located, quotable message, because
// the daemon's only way to "crash" on bad input is a good error line.
// ---------------------------------------------------------------------

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;  ///< String payload, or the raw number token
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return "a boolean";
    case JsonValue::Kind::Number: return "a number";
    case JsonValue::Kind::String: return "a string";
    case JsonValue::Kind::Array: return "an array";
    case JsonValue::Kind::Object: return "an object";
  }
  return "a value";
}

class JsonParser {
 public:
  /// Deepest nesting of arrays and objects accepted; a valid job nests
  /// at most 3 levels. The cap bounds the recursion below.
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after the JSON object");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw WireError(kJobMalformed, "JSON error at column " +
                                       std::to_string(pos_ + 1) + ": " +
                                       what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_keyword(const char* kw) {
    std::size_t n = 0;
    while (kw[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, kw) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue value() {
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        JsonValue nested = c == '{' ? object() : array();
        --depth_;
        return nested;
      }
      case '"':
        v.kind = JsonValue::Kind::String;
        v.str = string();
        return v;
      case 't':
        if (consume_keyword("true")) {
          v.kind = JsonValue::Kind::Bool;
          v.b = true;
          return v;
        }
        fail("invalid literal (did you mean true?)");
      case 'f':
        if (consume_keyword("false")) {
          v.kind = JsonValue::Kind::Bool;
          v.b = false;
          return v;
        }
        fail("invalid literal (did you mean false?)");
      case 'n':
        if (consume_keyword("null")) {
          v.kind = JsonValue::Kind::Null;
          return v;
        }
        fail("invalid literal (did you mean null?)");
      default:
        return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') {
        fail("object keys must be strings");
      }
      std::string key = string();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad hex digit in \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // supported; LaRCS sources are ASCII).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail(std::string("unknown escape \\") + esc);
        }
        continue;
      }
      out += c;
    }
    fail("unterminated string");
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid value");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.str = text_.substr(start, pos_ - start);
    try {
      v.num = std::stod(v.str);
    } catch (const std::exception&) {
      fail("malformed number '" + v.str + "'");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open around pos_
};

// ---------------------------------------------------------------------
// Schema: job fields and the options sub-object.
// ---------------------------------------------------------------------

/// Context threaded through validation so every message names the job.
struct JobContext {
  std::string prefix;  ///< "job 7: " (or "line 3: " before id is known)

  [[noreturn]] void fail(int code, const std::string& what) const {
    throw WireError(code, prefix + what);
  }
};

long expect_integer(const JobContext& ctx, const JsonValue& v,
                    const std::string& field) {
  if (v.kind != JsonValue::Kind::Number) {
    ctx.fail(kJobMalformed,
             "field \"" + field + "\" must be an integer, got " +
                 kind_name(v.kind));
  }
  if (std::floor(v.num) != v.num || std::abs(v.num) > 9.0e15) {
    ctx.fail(kJobMalformed,
             "field \"" + field + "\" must be an integer, got '" + v.str +
                 "'");
  }
  return static_cast<long>(v.num);
}

/// A millisecond budget, which reaches the clock: at most kMaxBudgetMs.
std::int64_t expect_budget(const JobContext& ctx, const JsonValue& v,
                           const std::string& field) {
  const long n = expect_integer(ctx, v, field);
  if (n > kMaxBudgetMs) {
    ctx.fail(kJobMalformed,
             field + " must be <= " + std::to_string(kMaxBudgetMs));
  }
  return n;
}

/// An integer option held in an int: values outside int's range are
/// rejected like any other non-representable integer.
int expect_int(const JobContext& ctx, const JsonValue& v,
               const std::string& field) {
  const long n = expect_integer(ctx, v, field);
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    ctx.fail(kJobMalformed,
             "field \"" + field + "\" must be an integer, got '" + v.str +
                 "'");
  }
  return static_cast<int>(n);
}

bool expect_bool(const JobContext& ctx, const JsonValue& v,
                 const std::string& field) {
  if (v.kind != JsonValue::Kind::Bool) {
    ctx.fail(kJobMalformed,
             "field \"" + field + "\" must be a boolean, got " +
                 kind_name(v.kind));
  }
  return v.b;
}

std::string expect_string(const JobContext& ctx, const JsonValue& v,
                          const std::string& field) {
  if (v.kind != JsonValue::Kind::String) {
    ctx.fail(kJobMalformed,
             "field \"" + field + "\" must be a string, got " +
                 kind_name(v.kind));
  }
  return v.str;
}

void apply_options(const JobContext& ctx, const JsonValue& obj,
                   WireJob& job) {
  if (obj.kind != JsonValue::Kind::Object) {
    ctx.fail(kJobMalformed, "field \"options\" must be an object, got " +
                                std::string(kind_name(obj.kind)));
  }
  MapperOptions& mo = job.options;
  for (const auto& [key, v] : obj.object) {
    if (key == "portfolio") {
      mo.portfolio = expect_int(ctx, v, "options.portfolio");
    } else if (key == "anneal") {
      mo.anneal = expect_int(ctx, v, "options.anneal");
    } else if (key == "heft") {
      mo.heft = expect_bool(ctx, v, "options.heft");
    } else if (key == "multilevel") {
      mo.multilevel = expect_int(ctx, v, "options.multilevel");
    } else if (key == "seed") {
      const long n = expect_integer(ctx, v, "options.seed");
      if (n < 0) {
        ctx.fail(kJobMalformed, "options.seed must be >= 0");
      }
      mo.portfolio_seed = static_cast<std::uint64_t>(n);
    } else if (key == "refine") {
      mo.refine = expect_bool(ctx, v, "options.refine");
    } else if (key == "refine_placement") {
      mo.refine_placement = expect_bool(ctx, v, "options.refine_placement");
    } else if (key == "load_bound") {
      mo.load_bound_B = expect_int(ctx, v, "options.load_bound");
    } else if (key == "no_canned") {
      mo.allow_canned = !expect_bool(ctx, v, "options.no_canned");
    } else if (key == "no_group") {
      mo.allow_group = !expect_bool(ctx, v, "options.no_group");
    } else if (key == "no_systolic") {
      mo.allow_systolic = !expect_bool(ctx, v, "options.no_systolic");
    } else if (key == "jobs") {
      mo.jobs = expect_int(ctx, v, "options.jobs");
    } else if (key == "budget_ms") {
      mo.time_budget_ms = expect_budget(ctx, v, "options.budget_ms");
    } else {
      ctx.fail(kJobMalformed,
               "unknown option \"" + key +
                   "\" (known: portfolio, anneal, heft, multilevel, seed, "
                   "refine, refine_placement, load_bound, no_canned, "
                   "no_group, no_systolic, jobs, budget_ms)");
    }
  }
  const std::string violation = option_violation(mo, "options.");
  if (!violation.empty()) {
    ctx.fail(kJobMalformed, violation);
  }
}

/// Canonical rendering of the id value (integers keep their token, so
/// a numeric 7 echoes as "7").
std::string render_id(const JobContext& ctx, const JsonValue& v) {
  if (v.kind == JsonValue::Kind::String) {
    if (v.str.empty()) {
      ctx.fail(kJobMalformed, "field \"id\" must not be empty");
    }
    return v.str;
  }
  if (v.kind == JsonValue::Kind::Number) {
    if (std::floor(v.num) != v.num) {
      ctx.fail(kJobMalformed, "field \"id\" must be an integer or string");
    }
    return v.str;  // the raw integer token
  }
  ctx.fail(kJobMalformed, "field \"id\" must be an integer or string, got " +
                              std::string(kind_name(v.kind)));
}

}  // namespace

WireJob parse_job(const std::string& json_line, std::size_t line_number) {
  JobContext ctx;
  ctx.prefix = "line " + std::to_string(line_number) + ": ";

  JsonValue root;
  try {
    root = JsonParser(json_line).parse();
  } catch (const WireError& e) {
    throw WireError(e.code(), ctx.prefix + e.what());
  }
  if (root.kind != JsonValue::Kind::Object) {
    ctx.fail(kJobMalformed, "a job must be a JSON object, got " +
                                std::string(kind_name(root.kind)));
  }

  WireJob job;
  job.line = line_number;
  // Server jobs never fan out per-candidate by default: parallelism
  // lives across jobs, so one job does not monopolise the pool.
  job.options.jobs = 1;

  const JsonValue* id = root.find("id");
  if (id == nullptr) {
    ctx.fail(kJobMalformed, "missing required field \"id\"");
  }
  job.id = render_id(ctx, *id);
  ctx.prefix = "job " + job.id + ": ";

  for (const auto& [key, v] : root.object) {
    if (key == "id") {
      continue;
    } else if (key == "program") {
      job.program = expect_string(ctx, v, "program");
    } else if (key == "larcs") {
      job.larcs = expect_string(ctx, v, "larcs");
    } else if (key == "program_file") {
      job.program_file = expect_string(ctx, v, "program_file");
    } else if (key == "topology") {
      job.topology = expect_string(ctx, v, "topology");
    } else if (key == "bind") {
      if (v.kind != JsonValue::Kind::Object) {
        ctx.fail(kJobMalformed, "field \"bind\" must be an object, got " +
                                    std::string(kind_name(v.kind)));
      }
      for (const auto& [name, bound] : v.object) {
        job.bindings[name] = expect_integer(ctx, bound, "bind." + name);
      }
    } else if (key == "options") {
      apply_options(ctx, v, job);
    } else if (key == "deadline_ms") {
      job.deadline_ms = expect_budget(ctx, v, "deadline_ms");
    } else {
      ctx.fail(kJobMalformed,
               "unknown field \"" + key +
                   "\" (known: id, program, larcs, program_file, bind, "
                   "topology, options, deadline_ms)");
    }
  }

  const int sources = (job.program.empty() ? 0 : 1) +
                      (job.larcs.empty() ? 0 : 1) +
                      (job.program_file.empty() ? 0 : 1);
  if (sources == 0) {
    ctx.fail(kJobMalformed,
             "a job needs exactly one of \"program\", \"larcs\" or "
             "\"program_file\"");
  }
  if (sources > 1) {
    ctx.fail(kJobMalformed,
             "\"program\", \"larcs\" and \"program_file\" are mutually "
             "exclusive");
  }
  if (job.topology.empty()) {
    ctx.fail(kJobMalformed, "missing required field \"topology\"");
  }
  return job;
}

std::string format_ok_result(const std::string& id, std::uint64_t digest,
                             bool cache_hit, const CachedOutcome& outcome,
                             double wall_ms) {
  std::string out;
  out.reserve(64 + outcome.proc_of_task.size() * 4);
  out += "{\"id\":\"" + json_escape(id) + "\",\"status\":\"ok\"";
  out += ",\"digest\":\"" + digest_hex(digest) + "\"";
  out += ",\"cache\":\"";
  out += cache_hit ? "hit" : "miss";
  out += "\",\"strategy\":\"" + json_escape(outcome.strategy) + "\"";
  out += ",\"completion\":" + std::to_string(outcome.completion);
  out += ",\"external_ipc\":" + std::to_string(outcome.external_ipc);
  out += ",\"max_load\":" + std::to_string(outcome.max_load);
  out += ",\"procs\":[";
  for (std::size_t i = 0; i < outcome.proc_of_task.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(outcome.proc_of_task[i]);
  }
  out += ']';
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.3f", wall_ms < 0 ? 0.0 : wall_ms);
  out += ",\"wall_ms\":";
  out += wall;
  out += '}';
  return out;
}

std::string format_error_result(const std::string& id,
                                std::size_t line_number, int code,
                                const std::string& message,
                                std::int64_t retry_after_ms) {
  std::string out = "{\"id\":";
  if (id.empty()) {
    out += "null";
  } else {
    out += '"' + json_escape(id) + '"';
  }
  out += ",\"line\":" + std::to_string(line_number);
  out += ",\"status\":\"error\",\"code\":" + std::to_string(code);
  if (retry_after_ms >= 0) {
    out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  }
  out += ",\"error\":\"" + json_escape(message) + "\"}";
  return out;
}

}  // namespace oregami::server
