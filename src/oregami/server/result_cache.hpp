// The content-addressed result cache behind the mapping server:
// digest -> finished job outcome, sharded and mutex-striped so
// concurrent workers rarely contend, LRU-bounded per shard so the
// resident set stays capped no matter how long the daemon lives.
//
// Design:
//   * a digest picks its shard by its top bits (the FNV-1a avalanche
//     makes them uniform); each shard owns an independent mutex, a
//     std::unordered_map digest -> entry, and an LRU order in a
//     std::list;
//   * capacity is split evenly across shards (per-shard bound =
//     ceil(capacity / shards)), so the global bound holds within one
//     shard's worth of slack and eviction never takes a global lock;
//   * values are shared_ptr<const Outcome>: a hit hands back a
//     refcount, never a copy, and an entry evicted mid-use stays alive
//     until its last reader drops it;
//   * the cache counts nothing: insert() returns how many entries it
//     evicted, and the server books hits, misses and evictions
//     (server.cpp);
//   * an alias index maps a job's request key (server/digest.hpp) to
//     its digest, so a job spelled as before skips compiling. Aliases
//     shard by key hash into the same stripes, are LRU-bounded to at
//     most `capacity` in all, live only in memory, and match on the
//     key's full bytes. The digest stays the only cache key.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace oregami::server {

/// The cached portion of a finished job: everything deterministic that
/// a result line needs, and nothing else (routes are re-derivable and
/// heavy, so only the task placement is kept).
struct CachedOutcome {
  /// False when the mapping stage failed deterministically (e.g.
  /// infeasible); error outcomes are cached too, so repeated bad jobs
  /// are also O(1) and hit/miss accounting stays schedule-independent.
  bool ok = false;
  int error_code = 0;        ///< per-job error code (wire.hpp) when !ok
  std::string error;         ///< error message when !ok
  std::string strategy;      ///< winning MapStrategy name when ok
  std::int64_t completion = 0;
  std::int64_t external_ipc = 0;
  std::int64_t max_load = 0;
  int num_procs = 0;
  std::vector<int> proc_of_task;
};

class ResultCache {
 public:
  struct Stats {
    std::int64_t size = 0;     ///< current resident entries
    std::int64_t aliases = 0;  ///< current resident aliases
  };

  /// `capacity` = max resident entries (>= 1), split across `shards`
  /// stripes (clamped to [1, 256] and to <= capacity so every shard
  /// can hold at least one entry).
  explicit ResultCache(std::size_t capacity = 1024, int shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks up `digest`, refreshing its LRU position. nullptr on miss.
  [[nodiscard]] std::shared_ptr<const CachedOutcome> lookup(
      std::uint64_t digest);

  /// Inserts (or refreshes) `digest`; evicts the shard's LRU tail when
  /// the shard is over its bound. Returns the number of entries
  /// evicted: re-inserting an existing digest replaces the value and
  /// evicts nothing.
  std::int64_t insert(std::uint64_t digest,
                      std::shared_ptr<const CachedOutcome> outcome);

  /// True when `digest` is resident (no LRU refresh).
  [[nodiscard]] bool contains(std::uint64_t digest) const;

  /// The digest aliased by request key `key`, refreshing the alias's
  /// LRU position; nullopt when there is none. The caller's lookup() of
  /// the digest stays the job's one lookup, and finds nothing when that
  /// digest has since been evicted.
  [[nodiscard]] std::optional<std::uint64_t> find_alias(std::string_view key);

  /// Records (or refreshes) `key` -> `digest`; evicts the stripe's
  /// least recently used alias when it is over its bound.
  void insert_alias(std::string key, std::uint64_t digest);

  /// Every resident entry, sorted by digest: a deterministic snapshot
  /// for the persistence layer's compaction (the shared_ptr values
  /// keep entries alive across concurrent eviction). Takes each
  /// shard's lock in turn, never all at once.
  [[nodiscard]] std::vector<
      std::pair<std::uint64_t, std::shared_ptr<const CachedOutcome>>>
  snapshot_entries() const;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards_.size());
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    /// Most-recent first; nodes own the digest for O(1) erase-by-map.
    std::list<std::uint64_t> lru;
    struct Slot {
      std::shared_ptr<const CachedOutcome> outcome;
      std::list<std::uint64_t>::iterator lru_it;
    };
    std::unordered_map<std::uint64_t, Slot> map;
    /// Alias keys, most recent first. `aliases` views these strings:
    /// list nodes never move, so the views live as long as the nodes.
    std::list<std::string> alias_lru;
    struct AliasSlot {
      std::uint64_t digest = 0;
      std::list<std::string>::iterator lru_it;
    };
    std::unordered_map<std::string_view, AliasSlot> aliases;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t digest);
  [[nodiscard]] const Shard& shard_of(std::uint64_t digest) const;
  [[nodiscard]] Shard& alias_shard_of(std::string_view key);

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  /// floor(capacity / shards) >= 1, so aliases never exceed capacity.
  std::size_t per_shard_aliases_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace oregami::server
