// The mapping server's storage layer: FNV-1a digest combinators, the
// canonical job digest, the sharded LRU result cache and its alias
// index, and the admission count behind the serve loop
// (ThreadPool::pending). The digest pins here are the
// cache-format contract: if one breaks, bump oregami::kDigestVersion
// instead of editing the constant.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/result_cache.hpp"
#include "oregami/support/hash.hpp"
#include "oregami/support/thread_pool.hpp"

namespace oregami::server {
namespace {

// ---------------------------------------------------------------- hash

TEST(Fnv1a, EmptyInputIsOffsetBasis) {
  Fnv1a h;
  EXPECT_EQ(h.digest(), Fnv1a::kOffset);
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Classic FNV-1a 64-bit test vectors.
  Fnv1a a;
  a.bytes("a", 1);
  EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL);
  Fnv1a foobar;
  foobar.bytes("foobar", 6);
  EXPECT_EQ(foobar.digest(), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, LengthPrefixPreventsConcatenationAliasing) {
  Fnv1a ab_c;
  ab_c.str("ab");
  ab_c.str("c");
  Fnv1a a_bc;
  a_bc.str("a");
  a_bc.str("bc");
  EXPECT_NE(ab_c.digest(), a_bc.digest());
}

TEST(Fnv1a, IntegersFoldAsFixedWidthLittleEndian) {
  Fnv1a via_u64;
  via_u64.u64(0x0102030405060708ULL);
  Fnv1a via_bytes;
  const unsigned char le[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  via_bytes.bytes(le, 8);
  EXPECT_EQ(via_u64.digest(), via_bytes.digest());
}

TEST(Fnv1a, DigestHexIsSixteenLowercaseZeroPadded) {
  EXPECT_EQ(digest_hex(0), "0000000000000000");
  EXPECT_EQ(digest_hex(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(digest_hex(0xFFFFFFFFFFFFFFFFULL), "ffffffffffffffff");
}

// --------------------------------------------------------- job digest

struct DigestInputs {
  larcs::CompiledProgram compiled;
  Topology topo;
};

DigestInputs compile_catalog(const std::string& name,
                             const std::string& topo_spec) {
  for (const auto& entry : larcs::programs::catalog()) {
    if (entry.name != name) continue;
    const larcs::Program ast = larcs::parse_program(entry.source);
    std::map<std::string, long> binds(entry.example_bindings.begin(),
                                      entry.example_bindings.end());
    return DigestInputs{larcs::compile(ast, binds),
                        parse_topology_spec(topo_spec)};
  }
  throw std::runtime_error("no catalog program " + name);
}

TEST(JobDigest, PinnedForJacobiMesh4x4Defaults) {
  // The cache-key format contract. oregami_map --digest prints the
  // same value; tests/cli_exit_codes.cmake and the server e2e rely on
  // cross-binary agreement.
  const DigestInputs in = compile_catalog("jacobi", "mesh:4x4");
  const MapperOptions options;
  EXPECT_EQ(digest_hex(job_digest(in.compiled.graph, in.topo, options)),
            "7bb2d7d76f7682a2");
}

TEST(JobDigest, StableAcrossRecompiles) {
  const DigestInputs a = compile_catalog("nbody", "mesh:4x4");
  const DigestInputs b = compile_catalog("nbody", "mesh:4x4");
  const MapperOptions options;
  EXPECT_EQ(job_digest(a.compiled.graph, a.topo, options),
            job_digest(b.compiled.graph, b.topo, options));
}

TEST(JobDigest, SensitiveToProgramTopologyAndOptions) {
  const DigestInputs jacobi = compile_catalog("jacobi", "mesh:4x4");
  const DigestInputs sor = compile_catalog("sor", "mesh:4x4");
  const DigestInputs ring = compile_catalog("jacobi", "ring:16");
  const MapperOptions defaults;
  const std::uint64_t base =
      job_digest(jacobi.compiled.graph, jacobi.topo, defaults);
  EXPECT_NE(base, job_digest(sor.compiled.graph, sor.topo, defaults));
  EXPECT_NE(base, job_digest(ring.compiled.graph, ring.topo, defaults));

  MapperOptions portfolio;
  portfolio.portfolio = 4;
  EXPECT_NE(base,
            job_digest(jacobi.compiled.graph, jacobi.topo, portfolio));
}

TEST(JobDigest, ExecutionWidthDoesNotChangeTheKey) {
  // `jobs` is how fast we compute, not what we compute: two requests
  // differing only in worker count must share a cache entry.
  const DigestInputs in = compile_catalog("jacobi", "mesh:4x4");
  MapperOptions serial;
  serial.jobs = 1;
  MapperOptions wide;
  wide.jobs = 8;
  EXPECT_EQ(job_digest(in.compiled.graph, in.topo, serial),
            job_digest(in.compiled.graph, in.topo, wide));
}

// -------------------------------------------------------- result cache

std::shared_ptr<const CachedOutcome> outcome_with(int completion) {
  auto o = std::make_shared<CachedOutcome>();
  o->ok = true;
  o->completion = completion;
  return o;
}

TEST(ResultCache, MissThenHit) {
  ResultCache cache(8, 2);
  EXPECT_EQ(cache.lookup(42), nullptr);
  cache.insert(42, outcome_with(7));
  const auto hit = cache.lookup(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->completion, 7);
  EXPECT_EQ(cache.stats().size, 1);
}

TEST(ResultCache, ReinsertReplacesWithoutEviction) {
  ResultCache cache(8, 1);
  EXPECT_EQ(cache.insert(1, outcome_with(10)), 0);
  EXPECT_EQ(cache.insert(1, outcome_with(20)), 0);
  EXPECT_EQ(cache.lookup(1)->completion, 20);
  EXPECT_EQ(cache.stats().size, 1);
}

TEST(ResultCache, EvictsLeastRecentlyUsedFirst) {
  // Single shard so the LRU order is global and observable.
  ResultCache cache(3, 1);
  cache.insert(1, outcome_with(1));
  cache.insert(2, outcome_with(2));
  cache.insert(3, outcome_with(3));
  ASSERT_NE(cache.lookup(1), nullptr);  // refresh 1; LRU tail is now 2
  EXPECT_EQ(cache.insert(4, outcome_with(4)), 1);
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(ResultCache, BoundHoldsUnderChurn) {
  // Property: resident size never exceeds shards * ceil(cap/shards),
  // whatever the insert sequence.
  ResultCache cache(16, 4);
  const std::size_t slack_bound =
      static_cast<std::size_t>(cache.num_shards()) *
      ((cache.capacity() + cache.num_shards() - 1) /
       static_cast<std::size_t>(cache.num_shards()));
  std::int64_t evicted = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    // Spread across shards: shard index comes from the top bits. The
    // odd multiplier keeps the 500 digests distinct.
    evicted += cache.insert(i * 0x9e3779b97f4a7c15ULL, outcome_with(1));
    EXPECT_LE(static_cast<std::size_t>(cache.stats().size), slack_bound);
  }
  // Every digest is resident or was evicted exactly once.
  EXPECT_EQ(evicted + cache.stats().size, 500);
}

TEST(ResultCache, EvictedEntryStaysAliveForExistingReaders) {
  ResultCache cache(1, 1);
  cache.insert(1, outcome_with(11));
  const auto held = cache.lookup(1);
  cache.insert(2, outcome_with(22));  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->completion, 11);  // refcount kept it alive
}

TEST(ResultCache, ShardCountClampedToCapacity) {
  ResultCache tiny(2, 64);
  EXPECT_LE(tiny.num_shards(), 2);
  ResultCache one(1, 8);
  EXPECT_EQ(one.num_shards(), 1);
}

TEST(ResultCache, ConcurrentHammerIsRaceFreeAndConsistent) {
  // TSan-checked in CI: 8 threads mixing hits, misses, inserts and
  // evictions on a small cache. The assertions are deliberately weak
  // (evictions add up, bound holds) -- the real check is no data race.
  ResultCache cache(32, 4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<int> ready{0};
  std::atomic<std::int64_t> evicted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &ready, &evicted, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto digest =
            static_cast<std::uint64_t>((t * kOpsPerThread + i) % 64) *
            0x9e3779b97f4a7c15ULL;
        if (cache.lookup(digest) == nullptr) {
          evicted.fetch_add(cache.insert(digest, outcome_with(i)));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = cache.stats();
  EXPECT_LE(stats.size, 32 + 4);  // capacity + one-per-shard slack
  // All 64 digests were inserted; each one not resident was evicted.
  EXPECT_GE(evicted.load() + stats.size, 64);
}

// ---------------------------------------------------------- aliases

TEST(RequestKey, FoldsTheSpellingButNotTheWorkerCount) {
  const std::map<std::string, long> binds{{"n", 8}, {"iters", 10}};
  MapperOptions serial;
  serial.jobs = 1;
  MapperOptions wide;
  wide.jobs = 8;
  MapperOptions portfolio;
  portfolio.portfolio = 4;
  const std::string key =
      request_key("jacobi", "", binds, "mesh:4x4", serial);
  EXPECT_EQ(key, request_key("jacobi", "", binds, "mesh:4x4", wide));
  // Inline text that happens to equal a catalog name is another job.
  EXPECT_NE(key, request_key("", "jacobi", binds, "mesh:4x4", serial));
  EXPECT_NE(key, request_key("jacobi", "", {{"n", 8}, {"iters", 11}},
                             "mesh:4x4", serial));
  EXPECT_NE(key, request_key("jacobi", "", binds, "ring:16", serial));
  EXPECT_NE(key, request_key("jacobi", "", binds, "mesh:4x4", portfolio));
}

TEST(ResultCache, AliasesEvictLeastRecentlyUsedAndCountNothing) {
  ResultCache cache(2, 1);
  cache.insert_alias("a", 1);
  cache.insert_alias("b", 2);
  ASSERT_EQ(cache.find_alias("a"), std::optional<std::uint64_t>(1));
  cache.insert_alias("c", 3);  // evicts "b", the least recently used
  EXPECT_EQ(cache.find_alias("b"), std::nullopt);
  EXPECT_EQ(cache.find_alias("a"), std::optional<std::uint64_t>(1));
  EXPECT_EQ(cache.find_alias("c"), std::optional<std::uint64_t>(3));
  EXPECT_EQ(cache.find_alias(std::string("c\0", 2)), std::nullopt);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.aliases, 2);
  EXPECT_EQ(stats.size, 0);  // an alias is not an entry
}

TEST(ResultCache, AliasesNeverExceedCapacity) {
  for (const int shards : {1, 3, 8}) {
    ResultCache cache(10, shards);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      cache.insert_alias("key" + std::to_string(i), i);
      ASSERT_LE(cache.stats().aliases, 10) << "shards " << shards;
    }
    EXPECT_EQ(cache.find_alias("key999"), std::optional<std::uint64_t>(999));
  }
}

TEST(ResultCache, AliasHammerIsRaceFreeUnderEviction) {
  // TSan-checked in CI: 8 threads resolving keys through the alias
  // index into a 4-entry cache, the way serve() workers do, while
  // eviction churns both. A key's alias must only ever name its own
  // digest.
  ResultCache cache(4, 2);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<int> ready{0};
  std::atomic<int> wrong{0};
  std::atomic<std::int64_t> evicted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &ready, &wrong, &evicted, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto k = static_cast<std::uint64_t>((t * 7 + i) % 16);
        const std::string key = "job" + std::to_string(k);
        const std::uint64_t digest = (k + 1) * 0x9e3779b97f4a7c15ULL;
        const auto aliased = cache.find_alias(key);
        if (aliased.has_value() && *aliased != digest) {
          wrong.fetch_add(1);
        }
        if (cache.lookup(digest) == nullptr) {
          evicted.fetch_add(cache.insert(digest, outcome_with(i)));
        }
        if (!aliased.has_value()) {
          cache.insert_alias(key, digest);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const auto stats = cache.stats();
  EXPECT_LE(stats.aliases, 4);
  EXPECT_LE(stats.size, 4 + 2);  // capacity + one-per-shard slack
  EXPECT_GE(evicted.load() + stats.size, 16);  // 16 digests inserted
}

// ------------------------------------------------- ThreadPool pending

TEST(ThreadPool, PendingTracksSubmittedMinusFinished) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.pending(), 0);
  std::atomic<bool> release{false};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.submit([&release] {
      while (!release.load()) {
        std::this_thread::yield();
      }
    }));
  }
  EXPECT_EQ(pool.pending(), 4);  // 2 running + 2 queued
  release.store(true);
  for (auto& f : futures) f.get();
  // Workers decrement after completing the job body; getting the
  // future guarantees the body ran, then the counter lands at 0.
  while (pool.pending() != 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.pending(), 0);
}

}  // namespace
}  // namespace oregami::server
