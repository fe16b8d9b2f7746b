// Crash-safe persistence for the mapping server's result cache
// (ROADMAP "cache persistence across daemon restarts"): an append-only
// journal of cache entries plus periodic compacted snapshots, designed
// so a kill -9 at any byte, a truncated copy, or a bit-flipped disk
// can degrade the cache back to cold -- never crash the daemon, and
// never serve a corrupt entry.
//
// File format (PATH, one file; all integers little-endian fixed
// width):
//
//   header (16 bytes)
//     0   8  magic "OREGCACH"
//     8   4  u32 format version (kPersistFormatVersion)
//     12  4  u32 digest version (hash.hpp kDigestVersion)
//   record (repeated; appended one write() each)
//     0   4  u32 record magic "OREC"
//     4   4  u32 payload length
//     8   8  u64 FNV-1a checksum of the payload bytes
//     16  n  payload: digest + the full CachedOutcome (encode_record)
//
// Durability model:
//   * appends are single buffered writes flushed per record: a crash
//     mid-append leaves a torn tail that recovery skips (the checksum
//     and exact-length decode make "valid" mean "bit-exact");
//   * every `compact_every` appends, the live cache is rewritten as a
//     compacted snapshot: temp file + fsync + atomic rename, so the
//     journal never grows without bound and a crash during compaction
//     leaves the previous file intact;
//   * any I/O failure (real or injected via support/failpoint.hpp
//     sites persist.write / persist.fsync / persist.rename /
//     persist.load) is counted and degrades persistence -- the daemon
//     keeps serving from memory.
//
// Recovery invariants (enforced by test_persist.cpp's corruption
// property suite):
//   * recover_cache_file() never throws on any byte sequence;
//   * every restored entry decoded bit-exactly from a checksummed
//     record (an invalid record is skipped and counted, never loaded);
//   * duplicate digests resolve to the *last* valid record (journal
//     order = write order);
//   * a header from a different format or digest version skips the
//     whole file (version_skew) rather than misreading it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "oregami/server/result_cache.hpp"

namespace oregami::server {

/// Bump when the record payload layout changes; folded into the header
/// next to kDigestVersion so old files are skipped, never misread.
inline constexpr std::uint32_t kPersistFormatVersion = 1;

/// What recovery found in a cache file. to_string() is the daemon's
/// boot report ("restored 12 entries, skipped 1 invalid record").
struct RecoveryStats {
  std::int64_t restored = 0;    ///< unique digests loaded into the cache
  std::int64_t records = 0;     ///< valid records seen (incl. duplicates)
  std::int64_t duplicates = 0;  ///< valid records superseded by a later one
  std::int64_t skipped = 0;     ///< invalid records skipped (corrupt/torn)
  bool version_skew = false;    ///< header from another version: all skipped
  bool missing = false;         ///< no file yet (a cold first boot)

  [[nodiscard]] std::string to_string() const;
};

/// Journal/snapshot health counters (the daemon's shutdown report).
/// Each count is booked together with its registry series
/// (oregami_persist_*_total), so the two agree while metrics are on.
struct PersistStats {
  std::int64_t appended = 0;     ///< records journaled
  std::int64_t compactions = 0;  ///< successful snapshot rewrites
  std::int64_t io_errors = 0;    ///< failed writes/fsyncs/renames
  bool degraded = false;  ///< journaling stopped after a write failure
};

/// Serializes one cache entry as a full record (magic + length +
/// checksum + payload). Exposed so tests and benches can craft files
/// and corruptions byte-exactly.
[[nodiscard]] std::string encode_record(std::uint64_t digest,
                                        const CachedOutcome& outcome);

/// The 16-byte file header for the current versions.
[[nodiscard]] std::string encode_header();

/// Decodes a record payload (the bytes after the checksum). Returns
/// false unless the payload decodes cleanly and completely.
[[nodiscard]] bool decode_record_payload(const std::string& payload,
                                         std::uint64_t& digest,
                                         CachedOutcome& outcome);

/// Loads every valid record of `path` into `cache` (file order, so the
/// LRU order matches write order and the last duplicate wins). Never
/// throws: corruption of any kind is skipped and counted.
RecoveryStats recover_cache_file(const std::string& path,
                                 ResultCache& cache);

/// The append-side of persistence: owns the journal file handle,
/// appends computed entries, and periodically rewrites the file as a
/// compacted snapshot of the live cache. Thread-safe (one internal
/// mutex; append order across workers is whatever completion order
/// was, which recovery treats as equivalent).
class CacheJournal {
 public:
  /// `cache` must outlive the journal; `compact_every` appends trigger
  /// a snapshot rewrite (<= 0 disables periodic compaction).
  CacheJournal(std::string path, ResultCache& cache,
               int compact_every = 256);
  ~CacheJournal();

  CacheJournal(const CacheJournal&) = delete;
  CacheJournal& operator=(const CacheJournal&) = delete;

  /// Loads the existing file into the cache (see recover_cache_file)
  /// and opens the journal for appending. On version skew or a corrupt
  /// header the old file is replaced by a fresh snapshot of the
  /// (empty or recovered) cache. Never throws; an unopenable path
  /// degrades persistence and counts an io_error.
  RecoveryStats open_and_recover();

  /// Journals one computed entry; triggers compaction on schedule.
  /// False when persistence is degraded or the write failed (the entry
  /// lives on in memory either way).
  bool append(std::uint64_t digest, const CachedOutcome& outcome);

  /// Rewrites the file as a compacted snapshot of the live cache
  /// (temp file + fsync + atomic rename). False on failure, in which
  /// case the previous file is left intact and appending continues.
  bool compact();

  /// Flushes and fsyncs the journal (the shutdown barrier).
  void flush();

  [[nodiscard]] PersistStats stats() const;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  /// The events the journal counts.
  enum class Event { kAppend, kCompaction, kIoError };
  /// Counts one `event` in stats_ and in its registry series: the one
  /// place a journal event is counted. Caller holds mutex_.
  void book_locked(Event event);
  bool write_record_locked(const std::string& record);
  bool compact_locked();
  bool compact_locked_impl();

  mutable std::mutex mutex_;
  std::string path_;
  ResultCache& cache_;
  int compact_every_;
  int appends_since_compact_ = 0;
  std::FILE* file_ = nullptr;
  PersistStats stats_;
};

}  // namespace oregami::server
