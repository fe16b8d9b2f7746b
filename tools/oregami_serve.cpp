// oregami_serve -- the long-lived mapping daemon.
//
//   oregami_serve [--jobs J] [--queue-capacity N] [--cache-capacity N]
//                 [--cache-shards S] [--deadline MS] [--deterministic]
//                 [--cache-file PATH] [--failpoints SCHED]
//                 [--trace FILE] [--trace-summary]
//                 [--metrics-file PATH] [--metrics-interval SEC]
//                 [--log FILE] [--log-level LVL]
//
// Reads newline-delimited JSON jobs from stdin (protocol in
// src/oregami/server/wire.hpp), emits one JSON result line per job on
// stdout in completion order, and prints a one-line JSON stats summary
// (ServerStats::to_json) on stderr at shutdown. Bad jobs produce
// structured error lines, not process exits; the daemon drains every
// admitted job on EOF, SIGINT or SIGTERM before exiting.
//
// --cache-file makes the result cache crash-safe (server/persist.hpp):
// boot recovers every valid record of PATH into the cache (a warm
// restart; the recovery report goes to stderr) and every computed
// outcome is journaled, so even a kill -9 mid-write only costs the
// torn tail. --failpoints arms the deterministic chaos schedule
// (support/failpoint.hpp grammar).
//
// --metrics-file publishes the live metrics registry
// (support/metrics.hpp) as Prometheus text exposition via temp file +
// atomic rename: on every --metrics-interval tick, on SIGUSR1, and at
// shutdown. --log writes a structured NDJSON event log
// (server/telemetry.hpp). An unwritable metrics/log path degrades
// telemetry with a stderr warning; the daemon keeps serving.
//
//   $ echo '{"id":1,"program":"jacobi","bind":{"n":8,"iters":10},"topology":"mesh:4x4"}' |
//       oregami_serve
//
// Exit codes: 0 clean drain (even if every job failed), 2 usage error,
// 1 internal error.
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "oregami/server/persist.hpp"
#include "oregami/server/server.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/support/deadline.hpp"
#include "oregami/support/failpoint.hpp"
#include "oregami/support/metrics.hpp"
#include "oregami/support/trace.hpp"

#if defined(__linux__) || defined(__APPLE__)
#include <signal.h>
#endif

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump_metrics{false};

extern "C" void handle_dump_signal(int) {
  // Async-signal-safe: just raise the flag; the metrics thread writes.
  g_dump_metrics.store(true, std::memory_order_relaxed);
}

extern "C" void handle_stop_signal(int sig) {
  // Stop admitting; in-flight jobs drain and the journal flushes. A
  // second signal kills via the restored default handler.
  g_stop.store(true, std::memory_order_relaxed);
#if defined(__linux__) || defined(__APPLE__)
  std::signal(sig, SIG_DFL);
#else
  (void)sig;
#endif
}

int usage() {
  std::cerr
      << "usage: oregami_serve [options]  (jobs on stdin, results on "
         "stdout)\n"
      << "  --jobs J            worker threads (0 = all cores; default 1)\n"
      << "  --queue-capacity N  admission bound: reject jobs (code 5) when\n"
      << "                      N are already pending (default 64)\n"
      << "  --cache-capacity N  resident result-cache entries "
         "(default 1024)\n"
      << "  --cache-shards S    cache lock stripes (default 8)\n"
      << "  --deadline MS       default per-job deadline; jobs may "
         "override\n"
      << "                      with \"deadline_ms\" (0 = none)\n"
      << "  --deterministic     print wall_ms as 0.000 (byte-stable "
         "output)\n"
      << "  --cache-file PATH   crash-safe cache persistence: recover "
         "PATH\n"
      << "                      on boot (warm restart), journal every\n"
      << "                      computed outcome (report on stderr)\n"
      << "  --failpoints SCHED  arm a deterministic chaos schedule, "
         "e.g.\n"
      << "                      \"persist.write:err@3,job.run:hang@7\"\n"
      << "  --trace FILE        write a Chrome trace-event JSON of the "
         "run\n"
      << "  --trace-summary     print the ASCII span tree to stderr\n"
      << "  --metrics-file PATH publish Prometheus text exposition to "
         "PATH\n"
      << "                      (atomic rename) at shutdown, on SIGUSR1,\n"
      << "                      and every --metrics-interval seconds\n"
      << "  --metrics-interval SEC  periodic metrics publication "
         "(needs\n"
      << "                      --metrics-file; 1..86400)\n"
      << "  --log FILE          structured NDJSON event log\n"
      << "  --log-level LVL     debug|info|warn (default info; needs "
         "--log)\n"
      << "exit codes: 0 clean drain, 1 internal error, 2 usage\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    oregami::server::ServerOptions options;
    std::size_t cache_capacity = 1024;
    int cache_shards = 8;
    std::optional<std::string> trace_file;
    std::optional<std::string> cache_file;
    std::optional<std::string> failpoints;
    std::optional<std::string> metrics_file;
    std::optional<std::string> log_file;
    long long metrics_interval = 0;
    auto log_level = oregami::server::EventLog::Level::kInfo;
    bool log_level_set = false;
    bool trace_summary = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next_int = [&](long long lo, long long hi,
                          const char* what) -> std::optional<long long> {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs an argument\n";
          return std::nullopt;
        }
        try {
          const long long v = std::stoll(argv[++i]);
          if (v < lo || v > hi) {
            std::cerr << arg << " expects " << what << "\n";
            return std::nullopt;
          }
          return v;
        } catch (const std::exception&) {
          std::cerr << "bad " << arg << " value '" << argv[i] << "'\n";
          return std::nullopt;
        }
      };
      if (arg == "--jobs") {
        const auto v = next_int(0, 4096, "J >= 0 (0 = all cores)");
        if (!v) return usage();
        options.jobs = static_cast<int>(*v);
      } else if (arg == "--queue-capacity") {
        const auto v = next_int(1, 1 << 20, "N >= 1");
        if (!v) return usage();
        options.queue_capacity = static_cast<int>(*v);
      } else if (arg == "--cache-capacity") {
        const auto v = next_int(1, 1LL << 30, "N >= 1");
        if (!v) return usage();
        cache_capacity = static_cast<std::size_t>(*v);
      } else if (arg == "--cache-shards") {
        const auto v = next_int(1, 256, "1 <= S <= 256");
        if (!v) return usage();
        cache_shards = static_cast<int>(*v);
      } else if (arg == "--deadline") {
        // Negative = already expired: deterministic, used by tests.
        const auto v = next_int(-1, oregami::kMaxBudgetMs,
                                "-1 <= MS <= 2^40");
        if (!v) return usage();
        options.default_deadline_ms = *v;
      } else if (arg == "--deterministic") {
        options.deterministic = true;
      } else if (arg == "--cache-file") {
        if (i + 1 >= argc) {
          std::cerr << "--cache-file needs an argument\n";
          return usage();
        }
        cache_file = argv[++i];
      } else if (arg == "--failpoints") {
        if (i + 1 >= argc) {
          std::cerr << "--failpoints needs an argument\n";
          return usage();
        }
        failpoints = argv[++i];
      } else if (arg == "--trace") {
        if (i + 1 >= argc) {
          std::cerr << "--trace needs an argument\n";
          return usage();
        }
        trace_file = argv[++i];
      } else if (arg == "--trace-summary") {
        trace_summary = true;
      } else if (arg == "--metrics-file") {
        if (i + 1 >= argc) {
          std::cerr << "--metrics-file needs an argument\n";
          return usage();
        }
        metrics_file = argv[++i];
      } else if (arg == "--metrics-interval") {
        const auto v = next_int(1, 86400, "1 <= SEC <= 86400");
        if (!v) return usage();
        metrics_interval = *v;
      } else if (arg == "--log") {
        if (i + 1 >= argc) {
          std::cerr << "--log needs an argument\n";
          return usage();
        }
        log_file = argv[++i];
      } else if (arg == "--log-level") {
        if (i + 1 >= argc) {
          std::cerr << "--log-level needs an argument\n";
          return usage();
        }
        const auto lvl =
            oregami::server::EventLog::parse_level(argv[++i]);
        if (!lvl) {
          std::cerr << "bad --log-level '" << argv[i]
                    << "' (expected debug|info|warn)\n";
          return usage();
        }
        log_level = *lvl;
        log_level_set = true;
      } else {
        std::cerr << "unknown option '" << arg << "'\n";
        return usage();
      }
    }
    if (metrics_interval > 0 && !metrics_file) {
      std::cerr << "--metrics-interval needs --metrics-file\n";
      return usage();
    }
    if (log_level_set && !log_file) {
      std::cerr << "--log-level needs --log\n";
      return usage();
    }

#if defined(__linux__) || defined(__APPLE__)
    // No SA_RESTART: a signal interrupts the blocking stdin read so
    // the drain runs instead of waiting for the next input line.
    // SIGTERM gets the same graceful treatment as ^C: stop admitting,
    // drain, flush the journal, exit 0.
    struct sigaction sa = {};
    sa.sa_handler = handle_stop_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
#else
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
#endif

    if (failpoints) {
      try {
        oregami::failpoint::configure(*failpoints);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return usage();
      }
    }

    // The tool owns the cache (and journal) so warm state survives in
    // one place: serve() borrows both.
    oregami::server::ResultCache cache(cache_capacity, cache_shards);
    options.cache = &cache;
    std::optional<oregami::server::CacheJournal> journal;
    if (cache_file) {
      journal.emplace(*cache_file, cache);
      const auto recovery = journal->open_and_recover();
      std::cerr << "cache-file " << *cache_file << ": "
                << recovery.to_string() << "\n";
      options.journal = &*journal;
    }

    if (trace_file || trace_summary) {
      oregami::trace::enable();
    }

    // Telemetry: the deterministic contract applies to metrics and the
    // event log exactly as it does to the wire format.
    oregami::metrics::set_deterministic(options.deterministic);
    std::optional<oregami::server::EventLog> event_log;
    if (log_file) {
      event_log.emplace(*log_file, log_level, options.deterministic);
      if (!event_log->ok()) {
        std::cerr << "warning: cannot write log to '" << *log_file
                  << "'; event logging disabled\n";
        event_log.reset();
      } else {
        options.log = &*event_log;
        event_log->event(oregami::server::EventLog::Level::kInfo,
                         oregami::server::EventLog::kServerStart,
                         "server_start", "");
      }
    }
    std::thread metrics_thread;
    std::atomic<bool> metrics_thread_stop{false};
    if (metrics_file) {
      oregami::metrics::enable();
      // Register the full server series set up front so every
      // exposition -- including an early SIGUSR1 dump -- has it.
      oregami::server::server_metrics();
#if defined(__linux__) || defined(__APPLE__)
      struct sigaction usr1 = {};
      usr1.sa_handler = handle_dump_signal;
      sigemptyset(&usr1.sa_mask);
      usr1.sa_flags = SA_RESTART;  // a dump must not interrupt the read
      sigaction(SIGUSR1, &usr1, nullptr);
#endif
      metrics_thread = std::thread([&metrics_thread_stop, metrics_interval,
                                    path = *metrics_file] {
        bool warned = false;
        auto last = std::chrono::steady_clock::now();
        while (!metrics_thread_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          bool due = g_dump_metrics.exchange(false);
          if (metrics_interval > 0 &&
              std::chrono::steady_clock::now() - last >=
                  std::chrono::seconds(metrics_interval)) {
            due = true;
          }
          if (!due) continue;
          last = std::chrono::steady_clock::now();
          if (!oregami::metrics::write_prometheus_file(path) && !warned) {
            std::cerr << "warning: cannot write metrics to '" << path
                      << "'\n";
            warned = true;
          }
        }
      });
    }

    const oregami::server::ServerStats stats =
        oregami::server::serve(std::cin, std::cout, options, &g_stop);
    if (metrics_thread.joinable()) {
      metrics_thread_stop.store(true, std::memory_order_relaxed);
      metrics_thread.join();
    }
    if (event_log && g_stop.load(std::memory_order_relaxed)) {
      event_log->event(oregami::server::EventLog::Level::kInfo,
                       oregami::server::EventLog::kServerStop,
                       "shutdown_signal", "");
    }
    if (journal) {
      journal->flush();
      const auto pstats = journal->stats();
      std::cerr << "cache-file " << *cache_file << ": appended "
                << pstats.appended << ", compactions "
                << pstats.compactions << ", io_errors " << pstats.io_errors
                << (pstats.degraded ? ", persistence degraded" : "")
                << "\n";
      if (event_log && (pstats.io_errors > 0 || pstats.degraded)) {
        event_log->event(oregami::server::EventLog::Level::kWarn,
                         oregami::server::EventLog::kServerStop,
                         "persist_warning",
                         "\"io_errors\":" +
                             std::to_string(pstats.io_errors) +
                             ",\"degraded\":" +
                             (pstats.degraded ? "true" : "false"));
      }
    }
    if (failpoints) {
      const std::string fired = oregami::failpoint::report();
      if (!fired.empty()) {
        std::cerr << "failpoints: " << fired << "\n";
      }
    }
    if (event_log) {
      event_log->event(
          oregami::server::EventLog::Level::kInfo,
          oregami::server::EventLog::kServerStop, "server_stop",
          "\"lines\":" + std::to_string(stats.lines) +
              ",\"ok\":" + std::to_string(stats.ok) +
              ",\"errors\":" + std::to_string(stats.errors));
      event_log->close();
    }
    if (metrics_file &&
        !oregami::metrics::write_prometheus_file(*metrics_file)) {
      std::cerr << "warning: cannot write metrics to '" << *metrics_file
                << "'\n";
    }
    std::cerr << stats.to_json() << "\n";

    if (trace_file || trace_summary) {
      oregami::trace::disable();
      const auto events = oregami::trace::snapshot();
      if (trace_file) {
        std::ofstream out(*trace_file);
        if (!out) {
          std::cerr << "warning: cannot write trace to '" << *trace_file
                    << "'\n";
        } else {
          oregami::trace::write_chrome_json(out, events);
        }
      }
      if (trace_summary) {
        std::cerr << oregami::trace::summary_tree(events);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    return 1;
  }
}
