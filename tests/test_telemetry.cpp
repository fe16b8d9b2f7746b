// Tests for the process-wide metrics registry (support/metrics) and the
// server telemetry layer built on top of it (server/telemetry).
//
// The contracts under test:
//   * registration is idempotent and kind-checked; snapshots are
//     name-sorted and stable;
//   * log2 histogram buckets have exact boundaries and the quantile
//     interpolation matches hand-computed reference values;
//   * the disabled hot path performs zero heap allocations, and so does
//     the enabled hot path after registration (the same operator-new
//     counting assertion style as test_trace.cpp);
//   * concurrent recording from 8 threads loses no updates (the TSan CI
//     job hammers this suite);
//   * deterministic mode zeroes everything a scheduler could perturb,
//     so expositions are byte-identical across worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "oregami/server/server.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/support/metrics.hpp"

// ------------------------------------------------- allocation counting
//
// Global counting overrides so the hot-path tests can assert "zero
// allocations" instead of eyeballing the code. Relaxed atomics: the
// counter only needs to be exact while the test runs single-threaded
// code.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace oregami {
namespace {

namespace m = metrics;

// The registry is process-global; every test scopes itself with unique
// series names and restores the disabled/non-deterministic default.
class MetricsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    m::reset_values();
    m::set_deterministic(false);
    m::enable();
  }
  void TearDown() override {
    m::disable();
    m::set_deterministic(false);
    m::reset_values();
  }
};

using MetricsRegistry = MetricsFixture;
using MetricsHistogram = MetricsFixture;
using MetricsPrometheus = MetricsFixture;
using MetricsHammer = MetricsFixture;
using MetricsDeterminism = MetricsFixture;
using MetricsServer = MetricsFixture;

// --------------------------------------------------------- registry

TEST_F(MetricsRegistry, RegistrationIsIdempotent) {
  m::Counter& a = m::counter("test_registry_idempotent_total");
  m::Counter& b = m::counter("test_registry_idempotent_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7);

  m::Histogram& h1 = m::histogram("test_registry_idempotent_us");
  m::Histogram& h2 = m::histogram("test_registry_idempotent_us");
  EXPECT_EQ(&h1, &h2);
}

TEST_F(MetricsRegistry, KindMismatchThrows) {
  m::counter("test_registry_kind_clash");
  EXPECT_THROW(m::gauge("test_registry_kind_clash"), std::logic_error);
  EXPECT_THROW(m::histogram("test_registry_kind_clash"), std::logic_error);
}

TEST_F(MetricsRegistry, SnapshotIsNameSortedAndFindable) {
  m::counter("test_registry_snap_b_total").add(2);
  m::counter("test_registry_snap_a_total").add(1);
  m::gauge("test_registry_snap_depth").set(5);

  const m::Snapshot snap = m::snapshot();
  for (std::size_t i = 1; i < snap.series.size(); ++i) {
    EXPECT_LT(snap.series[i - 1].name, snap.series[i].name);
  }
  const m::SeriesValue* a = snap.find("test_registry_snap_a_total");
  const m::SeriesValue* b = snap.find("test_registry_snap_b_total");
  const m::SeriesValue* g = snap.find("test_registry_snap_depth");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(a->scalar, 1);
  EXPECT_EQ(b->scalar, 2);
  EXPECT_EQ(g->scalar, 5);
  EXPECT_EQ(snap.find("test_registry_snap_missing"), nullptr);
}

TEST_F(MetricsRegistry, DisabledSitesRecordNothing) {
  m::Counter& c = m::counter("test_registry_disabled_total");
  m::Gauge& g = m::gauge("test_registry_disabled_depth");
  m::Histogram& h = m::histogram("test_registry_disabled_us");
  m::disable();
  c.add(10);
  g.set(10);
  h.record(10);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(MetricsRegistry, ResetValuesKeepsRegistrations) {
  m::Counter& c = m::counter("test_registry_reset_total");
  c.add(9);
  m::reset_values();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(&m::counter("test_registry_reset_total"), &c);
}

// -------------------------------------------------------- histograms

TEST_F(MetricsHistogram, BucketBoundariesAreExact) {
  // Bucket 0: v <= 0. Bucket b in [1, 62]: [2^(b-1), 2^b - 1].
  EXPECT_EQ(m::histogram_bucket(-5), 0);
  EXPECT_EQ(m::histogram_bucket(0), 0);
  EXPECT_EQ(m::histogram_bucket(1), 1);
  EXPECT_EQ(m::histogram_bucket(2), 2);
  EXPECT_EQ(m::histogram_bucket(3), 2);
  EXPECT_EQ(m::histogram_bucket(4), 3);
  EXPECT_EQ(m::histogram_bucket(7), 3);
  EXPECT_EQ(m::histogram_bucket(8), 4);
  EXPECT_EQ(m::histogram_bucket(15), 4);
  EXPECT_EQ(m::histogram_bucket(16), 5);
  EXPECT_EQ(m::histogram_bucket((std::int64_t{1} << 62) - 1), 62);
  EXPECT_EQ(m::histogram_bucket(std::int64_t{1} << 62), 63);
  EXPECT_EQ(m::histogram_bucket(INT64_MAX), 63);

  EXPECT_EQ(m::histogram_bucket_upper(0), 0);
  EXPECT_EQ(m::histogram_bucket_upper(1), 1);
  EXPECT_EQ(m::histogram_bucket_upper(2), 3);
  EXPECT_EQ(m::histogram_bucket_upper(3), 7);
  EXPECT_EQ(m::histogram_bucket_upper(4), 15);
  EXPECT_EQ(m::histogram_bucket_upper(63), INT64_MAX);
  EXPECT_EQ(m::histogram_bucket_lower(1), 1);
  EXPECT_EQ(m::histogram_bucket_lower(3), 4);
  EXPECT_EQ(m::histogram_bucket_lower(63), std::int64_t{1} << 62);
}

TEST_F(MetricsHistogram, QuantilesMatchReferenceValues) {
  m::Histogram& h = m::histogram("test_histogram_quantiles_us");
  for (std::int64_t v = 1; v <= 8; ++v) h.record(v);
  // Bucket counts: b1 {1} = 1, b2 {2,3} = 2, b3 {4..7} = 4, b4 {8} = 1.
  m::HistogramSnapshot snap;
  h.merge_into(snap);
  EXPECT_EQ(snap.count(), 8u);
  EXPECT_EQ(snap.sum, 36);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 4u);
  EXPECT_EQ(snap.buckets[4], 1u);

  // p50: rank 4 lands in b3 [4,7] after cumulative 3 -> 4 + 3*(1/4).
  EXPECT_NEAR(snap.quantile(0.50), 4.75, 1e-9);
  // p90: rank 7.2 lands in b4 [8,15] after cumulative 7 -> 8 + 7*0.2.
  EXPECT_NEAR(snap.quantile(0.90), 9.4, 1e-9);
  // p99: rank 7.92 -> 8 + 7*0.92.
  EXPECT_NEAR(snap.quantile(0.99), 14.44, 1e-9);
  // Extremes clamp to the data range.
  EXPECT_NEAR(snap.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(snap.quantile(1.0), 15.0, 1e-9);
}

TEST_F(MetricsHistogram, QuantileEdgeCases) {
  m::HistogramSnapshot empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  // All mass in bucket 0 (deterministic-mode shape).
  m::HistogramSnapshot zeros;
  zeros.buckets[0] = 10;
  EXPECT_EQ(zeros.quantile(0.99), 0.0);

  // Mass in the unbounded tail reports the tail's lower bound.
  m::HistogramSnapshot tail;
  tail.buckets[63] = 4;
  EXPECT_EQ(tail.quantile(0.5),
            static_cast<double>(std::int64_t{1} << 62));
}

// ------------------------------------------------------ zero-alloc

TEST_F(MetricsRegistry, DisabledHotPathAllocatesNothing) {
  m::Counter& c = m::counter("test_alloc_disabled_total");
  m::Gauge& g = m::gauge("test_alloc_disabled_depth");
  m::Histogram& h = m::histogram("test_alloc_disabled_us");
  m::disable();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    c.increment();
    g.set(i);
    h.record(i);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "disabled metric sites must be a single relaxed load";
  EXPECT_EQ(c.value(), 0);
}

TEST_F(MetricsRegistry, EnabledHotPathAllocatesNothingAfterRegistration) {
  m::Counter& c = m::counter("test_alloc_enabled_total");
  m::Histogram& h = m::histogram("test_alloc_enabled_us");
  // Warm this thread's stripe assignment (a thread_local int, but keep
  // first-touch out of the measured window).
  c.add(0);

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    c.increment();
    h.record(i);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "enabled metric sites must not touch the heap";
  EXPECT_EQ(c.value(), 1000);
  EXPECT_EQ(h.count(), 1000u);
}

// ---------------------------------------------------------- hammer

TEST_F(MetricsHammer, EightThreadsLoseNoUpdates) {
  m::Counter& c = m::counter("test_hammer_total");
  m::Gauge& g = m::gauge("test_hammer_inflight");
  m::Histogram& h = m::histogram("test_hammer_us");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.increment();
        g.add(1);
        g.add(-1);
        h.record((t * kPerThread + i) % 1000);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Snapshot under concurrent recording must also be safe; hammer it
  // once more with a reader in flight.
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) (void)m::snapshot();
  });
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      c.increment();
      h.record(i);
    }
  });
  reader.join();
  writer.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread + 20000);
}

// ------------------------------------------------------- exposition

TEST_F(MetricsPrometheus, LabelledFamiliesShareOneTypeLine) {
  m::counter("test_prom_jobs_total{outcome=\"hit\"}").add(3);
  m::counter("test_prom_jobs_total{outcome=\"miss\"}").add(4);
  const std::string text = m::to_prometheus(m::snapshot());

  const std::string type_line = "# TYPE test_prom_jobs_total counter";
  const auto first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos)
      << "one # TYPE line per family, not per labelled series";
  EXPECT_NE(text.find("test_prom_jobs_total{outcome=\"hit\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_jobs_total{outcome=\"miss\"} 4\n"),
            std::string::npos);
}

TEST_F(MetricsPrometheus, HistogramBucketsAreCumulative) {
  m::Histogram& h = m::histogram("test_prom_latency_us");
  for (std::int64_t v = 1; v <= 8; ++v) h.record(v);
  const std::string text = m::to_prometheus(m::snapshot());

  EXPECT_NE(text.find("# TYPE test_prom_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_latency_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_latency_us_bucket{le=\"3\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_latency_us_bucket{le=\"7\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_latency_us_bucket{le=\"15\"} 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_latency_us_bucket{le=\"+Inf\"} 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_latency_us_sum 36\n"), std::string::npos);
  EXPECT_NE(text.find("test_prom_latency_us_count 8\n"),
            std::string::npos);
}

// ---------------------------------------------------- deterministic

TEST_F(MetricsDeterminism, RecordsClampToZeroButKeepCounts) {
  m::Histogram& h = m::histogram("test_det_clamped_us");
  m::set_deterministic(true);
  h.record(12345);
  h.record(678);
  m::HistogramSnapshot snap;
  h.merge_into(snap);
  EXPECT_EQ(snap.count(), 2u);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.buckets[0], 2u);
}

TEST_F(MetricsDeterminism, VolatileSeriesAreZeroedInSnapshots) {
  m::Counter& joins =
      m::counter("test_det_joins_total", m::Determinism::kVolatile);
  m::Counter& stable = m::counter("test_det_stable_total");
  joins.add(7);
  stable.add(7);

  m::set_deterministic(true);
  const m::Snapshot det = m::snapshot();
  EXPECT_EQ(det.find("test_det_joins_total")->scalar, 0);
  EXPECT_EQ(det.find("test_det_stable_total")->scalar, 7);

  m::set_deterministic(false);
  const m::Snapshot live = m::snapshot();
  EXPECT_EQ(live.find("test_det_joins_total")->scalar, 7);
}

// ------------------------------------------------- server telemetry

TEST_F(MetricsServer, ElapsedUsIsZeroWhenDisabled) {
  m::disable();
  EXPECT_EQ(server::elapsed_us(std::chrono::steady_clock::now()), 0);
}

TEST_F(MetricsServer, DigestPrefixIsFirstEightHexDigits) {
  EXPECT_EQ(server::digest_prefix(0x0123456789abcdefULL), "01234567");
  EXPECT_EQ(server::digest_prefix(0), "00000000");
}

TEST_F(MetricsServer, ServerSeriesAreRegisteredEagerly) {
  server::ServerMetrics& sm = server::server_metrics();
  sm.jobs_submitted.increment();
  sm.jobs_hit.increment();
  const m::Snapshot snap = m::snapshot();
  EXPECT_NE(snap.find("oregami_server_jobs_submitted_total"), nullptr);
  EXPECT_NE(snap.find("oregami_server_jobs_total{outcome=\"hit\"}"),
            nullptr);
  EXPECT_NE(snap.find("oregami_server_jobs_total{outcome=\"abandoned\"}"),
            nullptr);
  EXPECT_NE(snap.find("oregami_failpoint_fired_total"), nullptr);
  EXPECT_NE(snap.find("oregami_persist_append_us"), nullptr);
}

TEST_F(MetricsServer, EventLogParsesLevelsStrictly) {
  using server::EventLog;
  EXPECT_EQ(EventLog::parse_level("debug"), EventLog::Level::kDebug);
  EXPECT_EQ(EventLog::parse_level("info"), EventLog::Level::kInfo);
  EXPECT_EQ(EventLog::parse_level("warn"), EventLog::Level::kWarn);
  EXPECT_FALSE(EventLog::parse_level("INFO").has_value());
  EXPECT_FALSE(EventLog::parse_level("trace").has_value());
}

TEST_F(MetricsServer, RenderStatsLineCarriesEveryField) {
  server::ServerStats stats;
  stats.lines = 50;
  stats.ok = 30;
  stats.errors = 20;
  stats.rejected = 0;
  stats.abandoned = 0;
  stats.cache_hits = 10;
  stats.cache_misses = 20;
  stats.cache_evictions = 2;
  stats.deduped = 3;
  stats.uptime_ms = 1234;
  // ServerStats::to_json() is the daemon's one stats line.
  const std::string line = stats.to_json();
  EXPECT_EQ(line.rfind("{", 0), 0u);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"lines\":50"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":30"), std::string::npos);
  EXPECT_NE(line.find("\"errors\":20"), std::string::npos);
  EXPECT_NE(line.find("\"cache_evictions\":2"), std::string::npos);
  EXPECT_NE(line.find("\"deduped\":3"), std::string::npos);
  EXPECT_NE(line.find("\"uptime_ms\":1234"), std::string::npos);
}

}  // namespace
}  // namespace oregami
