// A thread-safe memo cache with single-flight fill and an optional LRU
// bound: the one implementation behind the evaluator memo (search), the
// decoded-program cache (sim) and the tuning service's evaluator and
// stale-result maps (svc).
//
// In get_or_compute() the first thread to miss on a key (the leader)
// claims a pending entry and computes outside the lock; threads missing on
// the same key meanwhile (followers) wait for the value and count as hits.
// A leader that throws erases its claim, so a follower leads the retry.
// Pending entries are never on the LRU list, hence never evicted.
//
// The service's in-flight request map (svc::TuningService::inflight_) is
// deliberately not built on this: its followers attach completion
// callbacks and return instead of blocking a worker thread, so sharing
// this code would make it branch on which kind of caller it serves.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace ilc::support {

template <typename K, typename V>
class SingleFlightCache {
 public:
  /// `capacity` bounds the published entries, evicting the least recently
  /// used beyond it; 0 means unbounded (no LRU list is kept). `on_evict`,
  /// when set, runs under the lock once per eviction (a telemetry hook; it
  /// must not call back into the cache).
  explicit SingleFlightCache(std::size_t capacity = 0,
                             void (*on_evict)() = nullptr)
      : capacity_(capacity), on_evict_(on_evict) {}

  SingleFlightCache(const SingleFlightCache&) = delete;
  SingleFlightCache& operator=(const SingleFlightCache&) = delete;

  /// The value for `key`, running `fn()` to produce it when no thread has.
  /// A hit promotes the entry. Concurrent misses on one key run `fn` once.
  template <typename Fn>
  V get_or_compute(const K& key, Fn&& fn) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        const auto it = map_.find(key);
        if (it == map_.end()) break;
        if (it->second.ready) {
          ++hits_;
          promote(it->second);
          return it->second.value;
        }
        // Re-check from scratch after waking: a failed leader erases its
        // claim, making this thread the next leader.
        cv_.wait(lock);
      }
      ++misses_;
      map_.emplace(key, Entry{});  // pending: this thread leads
    }

    V value;
    try {
      value = fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(key);
      if (it != map_.end() && !it->second.ready) map_.erase(it);
      cv_.notify_all();
      throw;
    }
    std::lock_guard<std::mutex> lock(mu_);
    // clear() may have dropped the claim meanwhile (re-insert it), and
    // another leader or a put() may have published first (keep theirs).
    const auto it = map_.try_emplace(key).first;
    if (!it->second.ready) publish(it, value);
    cv_.notify_all();
    return value;
  }

  /// The published value for `key`, if any; a hit promotes the entry.
  std::optional<V> find(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end() || !it->second.ready) return std::nullopt;
    promote(it->second);
    return it->second.value;
  }

  /// Insert or replace the value for `key` and promote it. Publishing over
  /// a pending claim hands its followers this value.
  void put(const K& key, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    publish(map_.try_emplace(key).first, std::move(value));
    cv_.notify_all();
  }

  /// Entries held, pending claims included.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  /// Drop every entry. A leader computing meanwhile re-inserts its value
  /// when it publishes; waiting followers wake and re-check.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    cv_.notify_all();
  }

  /// get_or_compute() lookups served without computing, and computations.
  std::uint64_t hits() const { return read(hits_); }
  std::uint64_t misses() const { return read(misses_); }
  std::uint64_t evictions() const { return read(evictions_); }

 private:
  /// `ready == false` marks a pending claim. `lru_pos` is valid only for
  /// published entries of a bounded cache.
  struct Entry {
    bool ready = false;
    V value{};
    typename std::list<K>::iterator lru_pos;
  };
  using Map = std::unordered_map<K, Entry>;

  std::uint64_t read(const std::uint64_t& counter) const {
    std::lock_guard<std::mutex> lock(mu_);
    return counter;
  }

  void promote(Entry& e) {
    if (capacity_ != 0) lru_.splice(lru_.begin(), lru_, e.lru_pos);
  }

  void publish(typename Map::iterator it, V value) {
    Entry& e = it->second;
    e.value = std::move(value);
    if (e.ready) return promote(e);
    e.ready = true;
    if (capacity_ == 0) return;
    lru_.push_front(it->first);
    e.lru_pos = lru_.begin();
    while (lru_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++evictions_;
      if (on_evict_ != nullptr) on_evict_();
    }
  }

  const std::size_t capacity_;
  void (*const on_evict_)();
  mutable std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  Map map_;
  std::list<K> lru_;  // front = most recently used; published entries only
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ilc::support
