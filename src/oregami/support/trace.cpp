#include "oregami/support/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#include "oregami/support/json.hpp"
#include "oregami/support/thread_pool.hpp"

namespace oregami::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// One open span on a thread's stack.
struct OpenSpan {
  std::size_t path_len = 0;  ///< path length to restore on close
  std::string args;
  std::int64_t start_us = 0;
  std::uint64_t seq = 0;
};

/// Per-thread recording state. Owned by the global registry (shared_ptr)
/// so buffered events survive the thread -- a worker that throws, exits,
/// or is joined mid-trace drops nothing.
struct ThreadBuffer {
  std::vector<Event> events;
  std::string path;  ///< current span path ("" = root)
  int lane = 0;
  int base_depth = 0;
  std::vector<OpenSpan> stack;
  std::uint64_t next_seq = 0;
  std::uint64_t epoch = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  Clock::time_point origin = Clock::now();
};

Registry& registry() {
  static Registry* r = new Registry();  // intentionally leaked
  return *r;
}

/// Bumped by clear(); threads holding a stale buffer re-register.
std::atomic<std::uint64_t> g_epoch{0};

thread_local std::shared_ptr<ThreadBuffer> tl_buffer;

ThreadBuffer& buffer() {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (!tl_buffer || tl_buffer->epoch != epoch) {
    auto fresh = std::make_shared<ThreadBuffer>();
    fresh->epoch = epoch;
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(fresh);
    tl_buffer = std::move(fresh);
  }
  return *tl_buffer;
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - registry().origin)
      .count();
}

void append_path(std::string* path, std::string_view name) {
  if (!path->empty()) {
    path->push_back('/');
  }
  path->append(name);
}

/// Canonical event order: (path, seq). Concurrent lanes use distinct
/// path prefixes, so equal paths always come from one thread and seq
/// restores program order -- the result is schedule-independent.
bool canonical_less(const Event& a, const Event& b) {
  if (a.path != b.path) {
    return a.path < b.path;
  }
  return a.seq < b.seq;
}

}  // namespace

void enable() {
  Registry& reg = registry();
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    if (reg.buffers.empty()) {
      reg.origin = Clock::now();
    }
  }
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void clear() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.buffers.clear();
  reg.origin = Clock::now();
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

Span::Span(std::string_view name) : Span(name, std::string()) {}

Span::Span(std::string_view name, std::string args) {
  if (!enabled()) {
    return;
  }
  ThreadBuffer& buf = buffer();
  OpenSpan open;
  open.path_len = buf.path.size();
  open.args = std::move(args);
  open.start_us = now_us();
  open.seq = buf.next_seq++;
  append_path(&buf.path, name);
  buf.stack.push_back(std::move(open));
  active_ = true;
}

Span::~Span() {
  if (!active_) {
    return;
  }
  ThreadBuffer& buf = buffer();
  if (buf.stack.empty()) {
    return;  // clear() ran mid-span; nothing to close
  }
  OpenSpan open = std::move(buf.stack.back());
  buf.stack.pop_back();
  Event event;
  event.kind = Event::Kind::Span;
  event.path = buf.path;
  event.args = std::move(open.args);
  event.lane = buf.lane;
  event.depth = buf.base_depth + static_cast<int>(buf.stack.size());
  event.start_us = open.start_us;
  event.dur_us = now_us() - open.start_us;
  event.worker = ThreadPool::current_worker_index();
  event.seq = open.seq;
  buf.events.push_back(std::move(event));
  buf.path.resize(open.path_len);
}

void counter(std::string_view name, std::int64_t value) {
  if (!enabled()) {
    return;
  }
  ThreadBuffer& buf = buffer();
  Event event;
  event.kind = Event::Kind::Counter;
  event.path = buf.path;
  append_path(&event.path, name);
  event.value = value;
  event.lane = buf.lane;
  event.depth = buf.base_depth + static_cast<int>(buf.stack.size());
  event.start_us = now_us();
  event.worker = ThreadPool::current_worker_index();
  event.seq = buf.next_seq++;
  buf.events.push_back(std::move(event));
}

void instant(std::string_view name, std::string args) {
  if (!enabled()) {
    return;
  }
  ThreadBuffer& buf = buffer();
  Event event;
  event.kind = Event::Kind::Instant;
  event.path = buf.path;
  append_path(&event.path, name);
  event.args = std::move(args);
  event.lane = buf.lane;
  event.depth = buf.base_depth + static_cast<int>(buf.stack.size());
  event.start_us = now_us();
  event.worker = ThreadPool::current_worker_index();
  event.seq = buf.next_seq++;
  buf.events.push_back(std::move(event));
}

LaneScope::LaneScope(std::string path, int lane) {
  if (!enabled()) {
    return;
  }
  ThreadBuffer& buf = buffer();
  saved_path_ = std::move(buf.path);
  saved_lane_ = buf.lane;
  saved_depth_ = buf.base_depth;
  buf.path = std::move(path);
  buf.lane = lane;
  // Path components of the lane prefix count toward depth so the
  // summary tree indents lane children under their logical parent.
  buf.base_depth = static_cast<int>(
      std::count(buf.path.begin(), buf.path.end(), '/') +
      (buf.path.empty() ? 0 : 1));
  active_ = true;
}

LaneScope::~LaneScope() {
  if (!active_) {
    return;
  }
  ThreadBuffer& buf = buffer();
  buf.path = std::move(saved_path_);
  buf.lane = saved_lane_;
  buf.base_depth = saved_depth_;
}

std::vector<Event> snapshot() {
  Registry& reg = registry();
  std::vector<Event> merged;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& buf : reg.buffers) {
      merged.insert(merged.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(merged.begin(), merged.end(), canonical_less);
  return merged;
}

void write_chrome_json(std::ostream& out, const std::vector<Event>& events) {
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Event& e : events) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    const char* ph = e.kind == Event::Kind::Span
                         ? "X"
                         : e.kind == Event::Kind::Counter ? "C" : "i";
    const std::string_view name =
        e.path.find('/') == std::string::npos
            ? std::string_view(e.path)
            : std::string_view(e.path).substr(e.path.rfind('/') + 1);
    out << "  {\"name\": \"" << json_escape(std::string(name))
        << "\", \"cat\": \"oregami\", \"ph\": \"" << ph
        << "\", \"pid\": 1, \"tid\": " << e.lane;
    // Volatile fields, grouped so one normalisation pass strips them.
    out << ", \"ts\": " << e.start_us;
    if (e.kind == Event::Kind::Span) {
      out << ", \"dur\": " << e.dur_us;
    }
    if (e.kind == Event::Kind::Instant) {
      out << ", \"s\": \"t\"";
    }
    out << ", \"args\": {\"path\": \"" << json_escape(e.path) << "\"";
    if (e.kind == Event::Kind::Counter) {
      out << ", \"value\": " << e.value;
    }
    if (!e.args.empty()) {
      out << ", \"detail\": \"" << json_escape(e.args) << "\"";
    }
    out << ", \"worker\": " << e.worker << "}}";
  }
  out << "\n]}\n";
}

namespace {

struct PathStats {
  int span_count = 0;
  std::int64_t inclusive_us = 0;
  std::int64_t child_us = 0;  ///< summed inclusive time of child spans
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::string> instants;
};

std::string parent_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

std::string summary_tree(const std::vector<Event>& events) {
  // Aggregate by path (std::map keeps paths in the same lexicographic
  // order the canonical export uses, which also places parents before
  // their children).
  std::map<std::string, PathStats> stats;
  for (const Event& e : events) {
    switch (e.kind) {
      case Event::Kind::Span:
        stats[e.path].span_count += 1;
        stats[e.path].inclusive_us += e.dur_us;
        break;
      case Event::Kind::Counter:
        stats[parent_of(e.path)].counters.emplace_back(e.path, e.value);
        break;
      case Event::Kind::Instant:
        stats[parent_of(e.path)].instants.push_back(e.path);
        break;
    }
  }
  // Materialise implied ancestors: a lane prefix like
  // "portfolio/cand#3" never closes a span of its own, but its
  // children should still hang off a visible tree node.
  std::vector<std::string> implied;
  for (const auto& [path, s] : stats) {
    (void)s;
    for (std::string parent = parent_of(path); !parent.empty();
         parent = parent_of(parent)) {
      if (stats.find(parent) == stats.end()) {
        implied.push_back(parent);
      }
    }
  }
  for (auto& path : implied) {
    stats.emplace(std::move(path), PathStats{});
  }

  for (auto& [path, s] : stats) {
    if (s.span_count == 0) {
      continue;
    }
    const std::string parent = parent_of(path);
    const auto it = stats.find(parent);
    if (it != stats.end()) {
      it->second.child_us += s.inclusive_us;
    }
  }

  std::ostringstream out;
  out << "trace summary (inclusive / exclusive ms, x calls)\n";
  for (const auto& [path, s] : stats) {
    const int depth = static_cast<int>(
        std::count(path.begin(), path.end(), '/'));
    const std::string leaf =
        path.find('/') == std::string::npos ? path
                                            : path.substr(path.rfind('/') + 1);
    if (s.span_count > 0) {
      const double inc = static_cast<double>(s.inclusive_us) / 1000.0;
      const double exc =
          static_cast<double>(s.inclusive_us - s.child_us) / 1000.0;
      out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << leaf
          << "  " << inc << " / " << exc << " ms  x" << s.span_count
          << "\n";
    } else if (!leaf.empty()) {
      // Implied node (lane prefix): name only, no timing of its own.
      out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << leaf
          << "\n";
    }
    for (const auto& [cpath, value] : s.counters) {
      const std::string cleaf = cpath.substr(cpath.rfind('/') + 1);
      out << std::string(static_cast<std::size_t>(depth) * 2 + 2, ' ')
          << "#" << cleaf << " = " << value << "\n";
    }
    for (const std::string& ipath : s.instants) {
      const std::string ileaf = ipath.substr(ipath.rfind('/') + 1);
      out << std::string(static_cast<std::size_t>(depth) * 2 + 2, ' ')
          << "!" << ileaf << "\n";
    }
  }
  return out.str();
}

}  // namespace oregami::trace
