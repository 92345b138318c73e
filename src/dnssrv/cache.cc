#include "dnssrv/cache.h"

#include "core/obs/obs.h"

namespace netclients::dnssrv {

namespace {

// Fleet-wide cache telemetry, aggregated across every DnsCache instance
// (each Google PoP pool, each ISP resolver). Integer counters only, so
// concurrent bumps from distinct PoP shards stay deterministic in total.
struct CacheMetrics {
  obs::Counter& hits = obs::Registry::global().counter("dnssrv.cache.hit");
  obs::Counter& misses = obs::Registry::global().counter("dnssrv.cache.miss");
  obs::Counter& expirations =
      obs::Registry::global().counter("dnssrv.cache.expired");
  obs::Counter& inserts =
      obs::Registry::global().counter("dnssrv.cache.insert");
  obs::Counter& evictions =
      obs::Registry::global().counter("dnssrv.cache.evicted");

  static CacheMetrics& get() {
    static CacheMetrics metrics;
    return metrics;
  }
};

}  // namespace

const CacheEntry* DnsCache::lookup(const CacheKeyRef& key, net::SimTime now) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    CacheMetrics::get().misses.add();
    return nullptr;
  }
  if (it->second.entry.expires_at <= now) {
    lru_.erase(it->second.lru_it);
    map_.erase(it);
    ++misses_;
    CacheMetrics::get().misses.add();
    CacheMetrics::get().expirations.add();
    return nullptr;
  }
  ++hits_;
  CacheMetrics::get().hits.add();
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second.entry;
}

void DnsCache::insert(const CacheKey& key, CacheEntry entry) {
  CacheMetrics::get().inserts.add();
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  if (map_.size() >= capacity_ && !lru_.empty()) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    CacheMetrics::get().evictions.add();
  }
  lru_.push_front(key);
  map_.emplace(key, Slot{std::move(entry), lru_.begin()});
}

void DnsCache::clear() {
  map_.clear();
  lru_.clear();
}

}  // namespace netclients::dnssrv
