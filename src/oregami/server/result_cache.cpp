#include "oregami/server/result_cache.hpp"

#include <algorithm>

namespace oregami::server {

ResultCache::ResultCache(std::size_t capacity, int shards) {
  capacity_ = std::max<std::size_t>(1, capacity);
  std::size_t n = shards <= 0 ? 1 : static_cast<std::size_t>(shards);
  n = std::min<std::size_t>(n, 256);
  n = std::min(n, capacity_);  // every shard must hold >= 1 entry
  per_shard_capacity_ = (capacity_ + n - 1) / n;
  per_shard_aliases_ = capacity_ / n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::shard_of(std::uint64_t digest) {
  // Top bits: FNV-1a mixes high bits well, and the map's own bucketing
  // uses the low bits, so shard and bucket choice stay independent.
  const std::size_t index =
      static_cast<std::size_t>(digest >> 48) % shards_.size();
  return *shards_[index];
}

const ResultCache::Shard& ResultCache::shard_of(std::uint64_t digest) const {
  const std::size_t index =
      static_cast<std::size_t>(digest >> 48) % shards_.size();
  return *shards_[index];
}

std::shared_ptr<const CachedOutcome> ResultCache::lookup(
    std::uint64_t digest) {
  Shard& shard = shard_of(digest);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(digest);
  if (it == shard.map.end()) {
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.outcome;
}

std::int64_t ResultCache::insert(std::uint64_t digest,
                                 std::shared_ptr<const CachedOutcome> outcome) {
  Shard& shard = shard_of(digest);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(digest);
  if (it != shard.map.end()) {
    it->second.outcome = std::move(outcome);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return 0;
  }
  shard.lru.push_front(digest);
  shard.map.emplace(digest, Shard::Slot{std::move(outcome), shard.lru.begin()});
  std::int64_t evicted = 0;
  while (shard.map.size() > per_shard_capacity_) {
    const std::uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    shard.map.erase(victim);
    ++evicted;
  }
  return evicted;
}

bool ResultCache::contains(std::uint64_t digest) const {
  const Shard& shard = shard_of(digest);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.map.find(digest) != shard.map.end();
}

ResultCache::Shard& ResultCache::alias_shard_of(std::string_view key) {
  return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
}

std::optional<std::uint64_t> ResultCache::find_alias(std::string_view key) {
  Shard& shard = alias_shard_of(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.aliases.find(key);
  if (it == shard.aliases.end()) {
    return std::nullopt;
  }
  shard.alias_lru.splice(shard.alias_lru.begin(), shard.alias_lru,
                         it->second.lru_it);
  return it->second.digest;
}

void ResultCache::insert_alias(std::string key, std::uint64_t digest) {
  Shard& shard = alias_shard_of(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.aliases.find(key);
  if (it != shard.aliases.end()) {
    it->second.digest = digest;
    shard.alias_lru.splice(shard.alias_lru.begin(), shard.alias_lru,
                           it->second.lru_it);
    return;
  }
  shard.alias_lru.push_front(std::move(key));
  shard.aliases.emplace(shard.alias_lru.front(),
                        Shard::AliasSlot{digest, shard.alias_lru.begin()});
  if (shard.aliases.size() > per_shard_aliases_) {
    shard.aliases.erase(shard.alias_lru.back());
    shard.alias_lru.pop_back();
  }
}

std::vector<std::pair<std::uint64_t, std::shared_ptr<const CachedOutcome>>>
ResultCache::snapshot_entries() const {
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const CachedOutcome>>>
      entries;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [digest, slot] : shard->map) {
      entries.emplace_back(digest, slot.outcome);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    s.size += static_cast<std::int64_t>(shard->map.size());
    s.aliases += static_cast<std::int64_t>(shard->aliases.size());
  }
  return s;
}

}  // namespace oregami::server
