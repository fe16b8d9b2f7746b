#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string_view>
#include <unordered_map>

#include "oregami/support/rng.hpp"

namespace perfbench {

std::string RunResult::to_json(bool correct) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics) {
    if (!first) out += ", ";
    first = false;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(value_unit.first) ? value_unit.first : 0.0);
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           value_unit.second + "\"}";
  }
  out += "}}";
  return out;
}

void expect_same_counters(const Counters& want, const Counters& got,
                          const std::string& what) {
  std::string drift;
  std::set<std::string> names;
  for (const auto& [name, value] : want) names.insert(name);
  for (const auto& [name, value] : got) names.insert(name);
  for (const std::string& name : names) {
    const auto a = want.find(name);
    const auto b = got.find(name);
    const std::int64_t va = a == want.end() ? -1 : a->second;
    const std::int64_t vb = b == got.end() ? -1 : b->second;
    if (a == want.end() || b == got.end() || va != vb) {
      drift += " " + name + " " + std::to_string(va) + "->" +
               std::to_string(vb);
    }
  }
  check(drift.empty(), what + ": exact-repeat counters drifted:" + drift);
}

void print_counters(const std::string& title, const Counters& counters) {
  std::printf("%s\n", title.c_str());
  for (const auto& [name, value] : counters) {
    std::printf("  %-28s %lld\n", name.c_str(),
                static_cast<long long>(value));
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// The reference kernel's fastest time on the machine the benchmark was
/// defined on (4-vCPU Intel Xeon VM, Release build).
constexpr double kReferenceFullSpeedS = 0.030;

/// The helper process that runs the reference kernel on request.
pid_t helper_pid = -1;
int helper_request_fd = -1;
int helper_reply_fd = -1;

}  // namespace

double reference_kernel_s() {
  constexpr std::size_t kSortItems = 300000;
  constexpr std::uint64_t kHashKeys = 100000;
  const auto lcg = [](std::uint64_t& x) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
  };
  std::vector<std::uint32_t> items(kSortItems);
  std::uint64_t x = 12345;
  for (std::uint32_t& item : items) item = static_cast<std::uint32_t>(lcg(x) >> 33);

  const Clock::time_point start = Clock::now();
  std::sort(items.begin(), items.end());
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t sum = items[kSortItems / 2];
  for (std::uint64_t i = 0; i < kHashKeys; ++i) table[lcg(x) >> 40] += i;
  for (std::uint64_t i = 0; i < kHashKeys; ++i) {
    const auto it = table.find(lcg(x) >> 40);
    if (it != table.end()) sum += it->second;
  }
  const double wall_s = seconds_between(start, Clock::now());
  volatile std::uint64_t sink = sum;
  (void)sink;
  return wall_s;
}

ReferenceHelper::ReferenceHelper() {
  int request[2] = {-1, -1};
  int reply[2] = {-1, -1};
  if (pipe(request) != 0) throw std::runtime_error("reference helper: pipe failed");
  if (pipe(reply) != 0) {
    close(request[0]);
    close(request[1]);
    throw std::runtime_error("reference helper: pipe failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    for (const int fd : {request[0], request[1], reply[0], reply[1]}) close(fd);
    throw std::runtime_error("reference helper: fork failed");
  }
  if (pid == 0) {
    // The helper: one kernel run per request byte, until the benchmark
    // closes its end or exits.
    close(request[1]);
    close(reply[0]);
    char byte = 0;
    while (read(request[0], &byte, 1) == 1) {
      const double wall_s = reference_kernel_s();
      if (write(reply[1], &wall_s, sizeof wall_s) != sizeof wall_s) break;
    }
    _exit(0);
  }
  close(request[0]);
  close(reply[1]);
  helper_pid = pid;
  helper_request_fd = request[1];
  helper_reply_fd = reply[0];
}

ReferenceHelper::~ReferenceHelper() {
  close(helper_request_fd);
  close(helper_reply_fd);
  waitpid(helper_pid, nullptr, 0);
  helper_pid = -1;
}

double host_speed() {
  const char byte = 1;
  double wall_s = 0.0;
  if (write(helper_request_fd, &byte, 1) != 1 ||
      read(helper_reply_fd, &wall_s, sizeof wall_s) != sizeof wall_s) {
    throw std::runtime_error("reference helper: no reply");
  }
  return kReferenceFullSpeedS / wall_s;
}

std::vector<double> poisson_schedule(std::size_t count, double rate,
                                     std::uint64_t seed) {
  oregami::SplitMix64 rng(seed ^ 0x5EED5C4EDULL);
  std::vector<double> due(count);
  double t = 0.0;
  for (double& d : due) {
    t += -std::log1p(-rng.next_double()) / rate;
    d = t;
  }
  return due;
}

// --- SpanLog ----------------------------------------------------------

void SpanLog::record(const char* layer, Clock::time_point start) {
  spans_.push_back(
      {job_, layer,
       std::chrono::duration<double, std::micro>(Clock::now() - start).count()});
}

double SpanLog::job_total_us() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (std::string_view(span.layer) == "job") total += span.dur_us;
  }
  return total;
}

// --- LayerTable -------------------------------------------------------

std::string span_leaf(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  std::string leaf = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t hash = leaf.find('#');
  if (hash != std::string::npos) leaf.resize(hash);
  return leaf;
}

LayerTable::LayerTable(
    const SpanLog& log, const std::vector<oregami::trace::Event>& events,
    const std::vector<std::pair<std::string, std::string>>& owners) {
  // Library spans, aggregated per path first: a path's parent is its
  // longest proper prefix that is itself a recorded span path (lane
  // re-bases such as "portfolio/cand#3" record no span of their own).
  struct PathAgg {
    double total_us = 0.0;
    std::vector<double> calls;
  };
  std::map<std::string, PathAgg> paths;
  for (const auto& e : events) {
    if (e.kind != oregami::trace::Event::Kind::Span) continue;
    PathAgg& agg = paths[e.path];
    agg.total_us += static_cast<double>(e.dur_us);
    agg.calls.push_back(static_cast<double>(e.dur_us));
  }
  std::map<std::string, double> child_us;     // path -> children's total
  std::map<std::string, double> owned_us;     // stage -> library roots
  for (const auto& [path, agg] : paths) {
    std::string parent;
    for (std::size_t cut = path.rfind('/'); cut != std::string::npos && cut > 0;
         cut = path.rfind('/', cut - 1)) {
      if (paths.count(path.substr(0, cut)) != 0) {
        parent = path.substr(0, cut);
        break;
      }
    }
    if (!parent.empty()) {
      child_us[parent] += agg.total_us;
      continue;
    }
    const std::string root = path.substr(0, path.find('/'));
    std::string owner;
    for (const auto& [prefix, stage] : owners) {
      if (prefix.empty() || span_leaf(root) == prefix) {
        owner = stage;
        break;
      }
    }
    owned_us[owner] += agg.total_us;
  }

  // The job row's self time is what its stages leave uncovered.
  Row job{"job", 0, 0.0, 0.0, {}};
  std::map<std::string, Row> stages;
  for (const SpanLog::Span& span : log.spans()) {
    const bool is_job = std::string_view(span.layer) == "job";
    Row& row = is_job ? job : stages[span.layer];
    row.layer = span.layer;
    ++row.calls;
    row.total_us += span.dur_us;
    row.per_call_us.push_back(span.dur_us);
    job.self_us += is_job ? span.dur_us : -span.dur_us;
  }
  for (auto& [layer, row] : stages) row.self_us = row.total_us - owned_us[layer];
  std::map<std::string, Row> library;
  for (const auto& [path, agg] : paths) {
    const std::string name = "trace:" + span_leaf(path);
    Row& row = library[name];
    row.layer = name;
    row.calls += static_cast<std::int64_t>(agg.calls.size());
    row.total_us += agg.total_us;
    row.self_us += agg.total_us - child_us[path];
    row.per_call_us.insert(row.per_call_us.end(), agg.calls.begin(),
                           agg.calls.end());
  }
  rows_.push_back(std::move(job));
  for (auto& [layer, row] : stages) rows_.push_back(std::move(row));
  std::vector<Row> lib_rows;
  for (auto& [name, row] : library) lib_rows.push_back(std::move(row));
  std::sort(lib_rows.begin(), lib_rows.end(),
            [](const Row& a, const Row& b) { return a.self_us > b.self_us; });
  for (Row& row : lib_rows) rows_.push_back(std::move(row));
}

void LayerTable::print(const std::string& title, double e2e_us) const {
  std::printf("%s\n", title.c_str());
  std::printf("  %-34s %9s %12s %12s %8s\n", "layer", "calls", "self_ms",
              "p50_us", "share");
  for (const Row& row : rows_) {
    std::printf("  %-34s %9lld %12.3f %12.2f %7.2f%%\n", row.layer.c_str(),
                static_cast<long long>(row.calls), row.self_us / 1000.0,
                quantile(row.per_call_us, 0.5),
                e2e_us > 0 ? 100.0 * row.self_us / e2e_us : 0.0);
  }
  std::printf("  accounted: %.3f ms of %.3f ms traced end-to-end (%.2f%%)\n",
              accounted_us() / 1000.0, e2e_us / 1000.0,
              e2e_us > 0 ? 100.0 * accounted_us() / e2e_us : 0.0);
}

double LayerTable::accounted_us() const {
  double sum = 0.0;
  for (const Row& row : rows_) {
    if (row.layer != "job") sum += row.self_us;
  }
  return sum;
}

double LayerTable::p50_us(const std::string& layer) const {
  for (const Row& row : rows_) {
    if (row.layer == layer) return quantile(row.per_call_us, 0.5);
  }
  return 0.0;
}

std::int64_t LayerTable::calls(const std::string& layer) const {
  for (const Row& row : rows_) {
    if (row.layer == layer) return row.calls;
  }
  return 0;
}

}  // namespace perfbench
