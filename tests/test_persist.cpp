// Crash-safe cache persistence: record round trips, the journal /
// compaction lifecycle, and -- the heart of it -- a property suite of
// 200+ seeded corruptions (boundary truncations, payload bit flips,
// duplicate digests, version-skewed headers) asserting the recovery
// loader never throws, never loads an invalid record, and reports
// exact restored/skipped counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "oregami/server/persist.hpp"
#include "oregami/server/result_cache.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/support/failpoint.hpp"
#include "oregami/support/metrics.hpp"
#include "oregami/support/rng.hpp"

namespace oregami::server {
namespace {

/// A deterministic outcome family: even i = success (with a placement
/// whose size varies by i), odd i = cached deterministic failure.
CachedOutcome make_outcome(int i) {
  CachedOutcome outcome;
  if (i % 2 == 0) {
    outcome.ok = true;
    outcome.strategy = "strategy-" + std::to_string(i);
    outcome.completion = 100 + i;
    outcome.external_ipc = 200 + i;
    outcome.max_load = 300 + i;
    outcome.num_procs = 16;
    for (int t = 0; t < 8 + i; ++t) {
      outcome.proc_of_task.push_back(t % 16);
    }
  } else {
    outcome.ok = false;
    outcome.error_code = 4;
    outcome.error = "job " + std::to_string(i) + ": mapping infeasible";
  }
  return outcome;
}

std::uint64_t digest_of(int i) {
  // Spread digests across shards; any distinct values work.
  return 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Clears the global failpoint schedule even when a test fails.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::clear(); }
};

// ------------------------------------------------------- round trips

TEST(Persist, RecordRoundTripsBitExactly) {
  for (int i = 0; i < 6; ++i) {
    const CachedOutcome original = make_outcome(i);
    const std::string record = encode_record(digest_of(i), original);
    // Strip the 16-byte record header to get the payload.
    const std::string payload = record.substr(16);
    std::uint64_t digest = 0;
    CachedOutcome decoded;
    ASSERT_TRUE(decode_record_payload(payload, digest, decoded)) << i;
    EXPECT_EQ(digest, digest_of(i));
    EXPECT_EQ(decoded.ok, original.ok);
    EXPECT_EQ(decoded.error_code, original.error_code);
    EXPECT_EQ(decoded.error, original.error);
    EXPECT_EQ(decoded.strategy, original.strategy);
    EXPECT_EQ(decoded.completion, original.completion);
    EXPECT_EQ(decoded.external_ipc, original.external_ipc);
    EXPECT_EQ(decoded.max_load, original.max_load);
    EXPECT_EQ(decoded.num_procs, original.num_procs);
    EXPECT_EQ(decoded.proc_of_task, original.proc_of_task);
  }
}

TEST(Persist, DecodeRejectsTruncatedAndPaddedPayloads) {
  const std::string payload =
      encode_record(digest_of(2), make_outcome(2)).substr(16);
  std::uint64_t digest = 0;
  CachedOutcome decoded;
  // Every strict prefix fails ("valid" means bit-exact, whole payload).
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(
        decode_record_payload(payload.substr(0, cut), digest, decoded))
        << "prefix of length " << cut << " decoded";
  }
  EXPECT_FALSE(decode_record_payload(payload + '\0', digest, decoded));
  EXPECT_TRUE(decode_record_payload(payload, digest, decoded));
}

// ---------------------------------------------------------- recovery

TEST(Persist, MissingAndEmptyFilesAreCleanColdBoots) {
  const std::string path = temp_path("persist_missing.bin");
  std::remove(path.c_str());
  ResultCache cache(64, 4);
  RecoveryStats stats = recover_cache_file(path, cache);
  EXPECT_TRUE(stats.missing);
  EXPECT_EQ(stats.restored, 0);
  EXPECT_NE(stats.to_string().find("cold boot"), std::string::npos);

  write_bytes(path, "");
  stats = recover_cache_file(path, cache);
  EXPECT_FALSE(stats.missing);
  EXPECT_EQ(stats.restored, 0);
  EXPECT_EQ(stats.skipped, 0);
  std::remove(path.c_str());
}

TEST(Persist, VersionSkewAndForeignHeadersSkipTheWholeFile) {
  const std::string path = temp_path("persist_skew.bin");
  const std::string record = encode_record(digest_of(0), make_outcome(0));

  // Future format version: right magic, wrong version word.
  std::string future = encode_header() + record;
  future[8] = static_cast<char>(future[8] + 1);
  write_bytes(path, future);
  ResultCache cache(64, 4);
  RecoveryStats stats = recover_cache_file(path, cache);
  EXPECT_TRUE(stats.version_skew);
  EXPECT_EQ(stats.restored, 0);
  EXPECT_EQ(cache.stats().size, 0);

  // Foreign file entirely.
  write_bytes(path, "#!/bin/sh\necho not a cache\n");
  stats = recover_cache_file(path, cache);
  EXPECT_TRUE(stats.version_skew);
  EXPECT_EQ(stats.restored, 0);
  std::remove(path.c_str());
}

TEST(Persist, DuplicateDigestsResolveToTheLastRecord) {
  const std::string path = temp_path("persist_dupes.bin");
  CachedOutcome first = make_outcome(0);
  CachedOutcome second = make_outcome(2);
  std::string file = encode_header();
  file += encode_record(42, first);
  file += encode_record(43, make_outcome(4));
  file += encode_record(42, second);  // journal order: last wins
  write_bytes(path, file);

  ResultCache cache(64, 4);
  const RecoveryStats stats = recover_cache_file(path, cache);
  EXPECT_EQ(stats.records, 3);
  EXPECT_EQ(stats.duplicates, 1);
  EXPECT_EQ(stats.restored, 2);
  EXPECT_EQ(stats.skipped, 0);
  const auto entry = cache.lookup(42);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->completion, second.completion);
  std::remove(path.c_str());
}

// ------------------------------------- the corruption property suite

/// The shared fixture file: header + kRecords records of varying size.
constexpr int kRecords = 8;

std::string fixture_file(std::vector<std::size_t>* boundaries = nullptr) {
  std::string file = encode_header();
  if (boundaries != nullptr) {
    boundaries->push_back(file.size());
  }
  for (int i = 0; i < kRecords; ++i) {
    file += encode_record(digest_of(i), make_outcome(i));
    if (boundaries != nullptr) {
      boundaries->push_back(file.size());
    }
  }
  return file;
}

/// Recovery must never load an entry whose bytes were not bit-exact:
/// every restored digest must decode to exactly the outcome written.
void expect_only_valid_entries(ResultCache& cache) {
  for (int i = 0; i < kRecords; ++i) {
    const auto entry = cache.lookup(digest_of(i));
    if (entry == nullptr) {
      continue;  // skipped is fine; serving garbage is not
    }
    const CachedOutcome expected = make_outcome(i);
    EXPECT_EQ(entry->ok, expected.ok) << "entry " << i;
    EXPECT_EQ(entry->error, expected.error) << "entry " << i;
    EXPECT_EQ(entry->strategy, expected.strategy) << "entry " << i;
    EXPECT_EQ(entry->completion, expected.completion) << "entry " << i;
    EXPECT_EQ(entry->proc_of_task, expected.proc_of_task) << "entry " << i;
  }
}

TEST(PersistProperties, TruncationAtEveryRecordBoundaryPlusMinusOne) {
  std::vector<std::size_t> boundaries;
  const std::string file = fixture_file(&boundaries);
  const std::string path = temp_path("persist_truncate.bin");
  int cases = 0;
  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    for (const int delta : {-1, 0, 1}) {
      const std::size_t cut =
          static_cast<std::size_t>(static_cast<long long>(boundaries[k]) +
                                   delta);
      if (cut > file.size()) {
        continue;  // boundary[last] + 1 is past EOF
      }
      ++cases;
      write_bytes(path, file.substr(0, cut));
      ResultCache cache(64, 4);
      const RecoveryStats stats = recover_cache_file(path, cache);

      if (cut == 0) {
        EXPECT_FALSE(stats.version_skew);
        EXPECT_EQ(stats.restored, 0);
      } else if (cut < 16) {
        // Not even a whole header survived.
        EXPECT_TRUE(stats.version_skew);
        EXPECT_EQ(stats.restored, 0);
      } else {
        // Complete records before the cut all load; a partial tail is
        // exactly one skipped record, a clean boundary cut none.
        const std::size_t complete = k - (delta == -1 ? 1 : 0);
        EXPECT_EQ(stats.restored, static_cast<std::int64_t>(complete))
            << "cut at " << cut;
        EXPECT_EQ(stats.skipped, delta == 0 ? 0 : 1) << "cut at " << cut;
        EXPECT_FALSE(stats.version_skew);
      }
      expect_only_valid_entries(cache);
    }
  }
  EXPECT_GE(cases, 26);
  std::remove(path.c_str());
}

TEST(PersistProperties, SeededPayloadBitFlipsSkipExactlyOneRecord) {
  std::vector<std::size_t> boundaries;
  const std::string file = fixture_file(&boundaries);
  const std::string path = temp_path("persist_bitflip.bin");

  // Collect every payload byte position (record offset >= 16), so a
  // flip always hits checksummed bytes, never a record header; the
  // contract is then exact: that one record is skipped, all others
  // load.
  std::vector<std::size_t> payload_positions;
  for (std::size_t k = 0; k + 1 < boundaries.size(); ++k) {
    for (std::size_t at = boundaries[k] + 16; at < boundaries[k + 1];
         ++at) {
      payload_positions.push_back(at);
    }
  }
  ASSERT_FALSE(payload_positions.empty());

  SplitMix64 rng(0xC0FFEEULL);
  const int kCases = 170;
  for (int c = 0; c < kCases; ++c) {
    const std::size_t at = payload_positions[static_cast<std::size_t>(
        rng.next_below(payload_positions.size()))];
    const int bit = static_cast<int>(rng.next_below(8));
    std::string corrupted = file;
    corrupted[at] = static_cast<char>(
        static_cast<unsigned char>(corrupted[at]) ^ (1U << bit));
    write_bytes(path, corrupted);

    ResultCache cache(64, 4);
    const RecoveryStats stats = recover_cache_file(path, cache);
    EXPECT_EQ(stats.restored, kRecords - 1) << "flip at byte " << at;
    EXPECT_EQ(stats.skipped, 1) << "flip at byte " << at;
    EXPECT_FALSE(stats.version_skew);
    expect_only_valid_entries(cache);
  }
  std::remove(path.c_str());
}

TEST(PersistProperties, GarbageTailsAndInterleavedGarbageNeverThrow) {
  const std::string file = fixture_file();
  const std::string path = temp_path("persist_garbage.bin");
  SplitMix64 rng(0xDEADULL);
  // Appended garbage of every small length: valid records load, the
  // garbage is skipped (counted as >= 1), nothing ever throws.
  for (int len = 1; len <= 24; ++len) {
    std::string tail;
    for (int i = 0; i < len; ++i) {
      tail += static_cast<char>(rng.next_below(256));
    }
    write_bytes(path, file + tail);
    ResultCache cache(64, 4);
    const RecoveryStats stats = recover_cache_file(path, cache);
    EXPECT_EQ(stats.restored, kRecords) << "tail length " << len;
    EXPECT_GE(stats.skipped, 1) << "tail length " << len;
    expect_only_valid_entries(cache);
  }
  std::remove(path.c_str());
}

// --------------------------------------------- journal & compaction

TEST(Persist, JournalAppendsSurviveRestart) {
  const std::string path = temp_path("persist_journal.bin");
  std::remove(path.c_str());
  {
    ResultCache cache(64, 4);
    CacheJournal journal(path, cache);
    const RecoveryStats recovery = journal.open_and_recover();
    EXPECT_TRUE(recovery.missing);
    for (int i = 0; i < kRecords; ++i) {
      cache.insert(digest_of(i),
                   std::make_shared<const CachedOutcome>(make_outcome(i)));
      EXPECT_TRUE(journal.append(digest_of(i), make_outcome(i)));
    }
    const PersistStats stats = journal.stats();
    EXPECT_EQ(stats.appended, kRecords);
    EXPECT_EQ(stats.io_errors, 0);
    EXPECT_FALSE(stats.degraded);
  }
  ResultCache cache(64, 4);
  CacheJournal journal(path, cache);
  const RecoveryStats recovery = journal.open_and_recover();
  EXPECT_EQ(recovery.restored, kRecords);
  EXPECT_EQ(recovery.skipped, 0);
  expect_only_valid_entries(cache);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Persist, PeriodicCompactionShedsSupersededRecords) {
  const std::string path = temp_path("persist_compact.bin");
  std::remove(path.c_str());
  ResultCache cache(64, 4);
  CacheJournal journal(path, cache, /*compact_every=*/4);
  (void)journal.open_and_recover();
  // 12 appends of only 2 unique digests: compaction should leave a
  // file with just the live entries.
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t digest = digest_of(i % 2);
    cache.insert(digest,
                 std::make_shared<const CachedOutcome>(make_outcome(i % 2)));
    EXPECT_TRUE(journal.append(digest, make_outcome(i % 2)));
  }
  EXPECT_GE(journal.stats().compactions, 3);  // boot + every 4 appends

  ResultCache recovered(64, 4);
  const RecoveryStats stats = recover_cache_file(path, recovered);
  EXPECT_EQ(stats.restored, 2);
  // Compacted snapshot + at most the appends since the last compaction.
  EXPECT_LE(stats.records, 2 + 4);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Persist, KillDuringSnapshotLeavesThePreviousFileIntact) {
  FailpointGuard guard;
  const std::string path = temp_path("persist_kill_snapshot.bin");
  std::remove(path.c_str());
  // With metrics on, every journal event must reach its registry
  // series, the public compact() path included.
  ServerMetrics& sm = server_metrics();
  metrics::reset_values();
  metrics::enable();
  ResultCache cache(64, 4);
  CacheJournal journal(path, cache);
  (void)journal.open_and_recover();
  for (int i = 0; i < kRecords; ++i) {
    cache.insert(digest_of(i),
                 std::make_shared<const CachedOutcome>(make_outcome(i)));
    EXPECT_TRUE(journal.append(digest_of(i), make_outcome(i)));
  }

  // A "kill -9" mid-snapshot write: the temp file is torn, the rename
  // never happens, and the journal we already wrote stays intact.
  failpoint::configure("persist.write:short");
  EXPECT_FALSE(journal.compact());
  failpoint::clear();

  // And an injected rename failure after a good write: same guarantee.
  failpoint::configure("persist.rename:err");
  EXPECT_FALSE(journal.compact());
  failpoint::clear();

  // An injected fsync failure too.
  failpoint::configure("persist.fsync:err");
  EXPECT_FALSE(journal.compact());
  failpoint::clear();

  metrics::disable();
  const PersistStats persisted = journal.stats();
  EXPECT_GE(persisted.io_errors, 3);
  EXPECT_FALSE(persisted.degraded);  // appends still work
  EXPECT_EQ(sm.persist_io_errors.value(), persisted.io_errors);
  EXPECT_EQ(sm.persist_appends.value(), persisted.appended);
  EXPECT_EQ(sm.persist_compactions.value(), persisted.compactions);

  ResultCache recovered(64, 4);
  const RecoveryStats stats = recover_cache_file(path, recovered);
  EXPECT_EQ(stats.restored, kRecords);
  EXPECT_EQ(stats.skipped, 0);
  expect_only_valid_entries(recovered);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Persist, WriteFailureDegradesPersistenceNotTheDaemon) {
  FailpointGuard guard;
  const std::string path = temp_path("persist_degraded.bin");
  std::remove(path.c_str());
  ResultCache cache(64, 4);
  CacheJournal journal(path, cache);
  (void)journal.open_and_recover();
  // Write #1 was the boot snapshot; the next append hits the error.
  failpoint::configure("persist.write:err");
  EXPECT_FALSE(journal.append(digest_of(0), make_outcome(0)));
  EXPECT_TRUE(journal.stats().degraded);
  EXPECT_EQ(journal.stats().io_errors, 1);
  // Further appends are silently refused -- no crash, no throw.
  EXPECT_FALSE(journal.append(digest_of(1), make_outcome(1)));
  EXPECT_EQ(journal.stats().io_errors, 1);  // refused, not re-failed
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Persist, LoadFailpointStopsRecoveryAtTheFailure) {
  FailpointGuard guard;
  const std::string path = temp_path("persist_load_fp.bin");
  write_bytes(path, fixture_file());
  failpoint::configure("persist.load:err@4");
  ResultCache cache(64, 4);
  const RecoveryStats stats = recover_cache_file(path, cache);
  // Records 1-3 loaded; the injected read error at record 4 stops the
  // scan (a short, valid prefix -- exactly what a truncated disk read
  // looks like).
  EXPECT_EQ(stats.restored, 3);
  expect_only_valid_entries(cache);
  std::remove(path.c_str());
}

TEST(Persist, UnwritablePathDegradesWithoutThrowing) {
  ResultCache cache(64, 4);
  CacheJournal journal("/nonexistent-dir/oregami-cache.bin", cache);
  const RecoveryStats recovery = journal.open_and_recover();
  EXPECT_TRUE(recovery.missing);
  EXPECT_TRUE(journal.stats().degraded);
  EXPECT_FALSE(journal.append(digest_of(0), make_outcome(0)));
}

TEST(Persist, BootCompactionReplacesVersionSkewedFiles) {
  const std::string path = temp_path("persist_skew_replace.bin");
  std::string future = encode_header() +
                       encode_record(digest_of(0), make_outcome(0));
  future[8] = static_cast<char>(future[8] + 1);
  write_bytes(path, future);

  ResultCache cache(64, 4);
  CacheJournal journal(path, cache);
  const RecoveryStats recovery = journal.open_and_recover();
  EXPECT_TRUE(recovery.version_skew);
  EXPECT_EQ(recovery.restored, 0);
  EXPECT_TRUE(journal.append(digest_of(1), make_outcome(1)));

  // The skewed file is gone: a fresh boot reads the current format.
  ResultCache recovered(64, 4);
  const RecoveryStats stats = recover_cache_file(path, recovered);
  EXPECT_FALSE(stats.version_skew);
  EXPECT_EQ(stats.restored, 1);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace oregami::server
