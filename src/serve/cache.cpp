#include "serve/cache.h"

#include <algorithm>
#include <functional>

namespace avtk::serve {

result_cache::result_cache(std::size_t capacity, std::size_t shards)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      shards_(std::max<std::size_t>(std::min(shards, capacity_), 1)) {
  per_shard_capacity_ = std::max<std::size_t>(capacity_ / shards_.size(), 1);
}

result_cache::hashed_key result_cache::hash_key(const std::string& key) {
  return {key, std::hash<std::string_view>{}(key)};
}

result_cache::shard& result_cache::shard_for(const hashed_key& key) {
  return shards_[key.hash % shards_.size()];
}

std::shared_ptr<const std::string> result_cache::get(const std::string& key) {
  const auto hashed = hash_key(key);
  auto& s = shard_for(hashed);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(hashed);
  if (it == s.index.end()) return nullptr;
  s.order.splice(s.order.begin(), s.order, it->second);
  return it->second->value;
}

void result_cache::put(const std::string& key, std::shared_ptr<const std::string> value) {
  const auto hashed = hash_key(key);
  auto& s = shard_for(hashed);
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (const auto it = s.index.find(hashed); it != s.index.end()) {
    it->second->value = std::move(value);
    s.order.splice(s.order.begin(), s.order, it->second);
    return;
  }
  s.order.push_front(entry{key, hashed.hash, std::move(value)});
  s.index.emplace(s.order.front().lookup(), s.order.begin());
  while (s.order.size() > per_shard_capacity_) {
    s.index.erase(s.order.back().lookup());
    s.order.pop_back();
    ++s.evictions;
  }
}

std::size_t result_cache::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mutex);
    n += s.order.size();
  }
  return n;
}

std::uint64_t result_cache::evictions() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mutex);
    n += s.evictions;
  }
  return n;
}

}  // namespace avtk::serve
