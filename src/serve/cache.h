// avtk/serve/cache.h
//
// A sharded, memoized result cache for serialized query payloads. Keys are
// version-qualified canonical queries (serve/query.h), values are immutable
// shared strings so a hit never copies the payload and eviction never
// invalidates a response already handed to a reader.
//
// Sharding bounds contention: a key hashes to one shard, each shard holds
// its own mutex, LRU list and map, and capacity is split evenly across
// shards (so eviction is LRU *per shard* — global order is approximate by
// design; tests that need exact LRU semantics configure one shard). Each
// get/put hashes its key once: the same hash picks the shard and, passed
// through, the bucket in the shard's map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace avtk::serve {

class result_cache {
 public:
  /// `capacity` is the total entry budget across all shards (minimum one
  /// per shard). `shards` must be >= 1.
  explicit result_cache(std::size_t capacity, std::size_t shards = 8);

  result_cache(const result_cache&) = delete;
  result_cache& operator=(const result_cache&) = delete;

  /// The cached payload, refreshing its recency; nullptr on miss.
  std::shared_ptr<const std::string> get(const std::string& key);

  /// Inserts (or refreshes) `key`, evicting the shard's least-recently-used
  /// entries while it is over budget.
  void put(const std::string& key, std::shared_ptr<const std::string> value);

  /// Drops every entry whose key satisfies `pred`. Used on ingest to
  /// reclaim entries stranded under a superseded database version (they
  /// can never be hit again — their version-qualified keys are dead).
  /// Returns the number of entries dropped.
  template <typename Pred>
  std::size_t erase_if(const Pred& pred) {
    std::size_t dropped = 0;
    for (auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      for (auto it = shard.order.begin(); it != shard.order.end();) {
        if (pred(it->key)) {
          shard.index.erase(it->lookup());
          it = shard.order.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
    }
    return dropped;
  }

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// Cumulative eviction count (entries displaced by capacity pressure;
  /// erase_if drops are not evictions).
  std::uint64_t evictions() const;

 private:
  /// A key's text and its hash, computed once per call. The map's keys
  /// view the text their list entry owns (list nodes never move).
  struct hashed_key {
    std::string_view text;
    std::size_t hash = 0;
    bool operator==(const hashed_key& other) const {
      return hash == other.hash && text == other.text;
    }
  };
  struct pass_hash {
    std::size_t operator()(const hashed_key& key) const noexcept { return key.hash; }
  };
  struct entry {
    std::string key;
    std::size_t hash = 0;
    std::shared_ptr<const std::string> value;
    hashed_key lookup() const { return {key, hash}; }
  };
  struct shard {
    mutable std::mutex mutex;
    std::list<entry> order;  ///< front = most recently used
    std::unordered_map<hashed_key, std::list<entry>::iterator, pass_hash> index;
    std::uint64_t evictions = 0;
  };

  static hashed_key hash_key(const std::string& key);
  shard& shard_for(const hashed_key& key);

  std::size_t capacity_;
  std::size_t per_shard_capacity_;
  std::vector<shard> shards_;
};

}  // namespace avtk::serve
