#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "dns/message.h"
#include "net/prefix.h"
#include "net/rng.h"
#include "net/sim_time.h"

namespace netclients::dnssrv {

/// Cache key for an ECS-aware resolver cache: Google Public DNS keeps one
/// entry per (name, type, ECS scope prefix) — the property that makes cache
/// probing possible at all, since a hit proves someone *in that prefix*
/// asked recently.
struct CacheKey {
  dns::DnsName name;
  dns::RecordType type = dns::RecordType::kA;
  net::Prefix scope;  // 0.0.0.0/0 for non-ECS entries

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// A borrowed CacheKey: the same (name, type, scope) triple with the name
/// by reference, so a lookup on the probe path copies no labels.
struct CacheKeyRef {
  const dns::DnsName& name;
  dns::RecordType type = dns::RecordType::kA;
  net::Prefix scope;
};

/// Transparent hashing so the cache accepts both owning CacheKey and
/// borrowed CacheKeyRef probes (equal triples hash equally).
struct CacheKeyHash {
  using is_transparent = void;
  std::size_t operator()(const CacheKeyRef& key) const noexcept {
    std::uint64_t h = std::hash<dns::DnsName>{}(key.name);
    h = net::hash_combine(h, static_cast<std::uint64_t>(key.type));
    h = net::hash_combine(h, std::hash<net::Prefix>{}(key.scope));
    return static_cast<std::size_t>(h);
  }
  std::size_t operator()(const CacheKey& key) const noexcept {
    return (*this)(CacheKeyRef{key.name, key.type, key.scope});
  }
};

struct CacheKeyEq {
  using is_transparent = void;
  bool operator()(const CacheKey& a, const CacheKey& b) const {
    return a == b;
  }
  bool operator()(const CacheKeyRef& a, const CacheKey& b) const {
    return a.type == b.type && a.scope == b.scope && a.name == b.name;
  }
  bool operator()(const CacheKey& a, const CacheKeyRef& b) const {
    return (*this)(b, a);
  }
};

struct CacheEntry {
  dns::RData rdata;
  std::uint8_t scope_length = 0;
  std::uint32_t original_ttl = 0;
  net::SimTime expires_at = 0;

  /// Remaining TTL a resolver reports when serving this entry at `now`.
  std::uint32_t remaining_ttl(net::SimTime now) const {
    return expires_at <= now
               ? 0
               : static_cast<std::uint32_t>(expires_at - now);
  }
};

/// A TTL + LRU cache, the building block of every recursive-resolver model
/// in the library (ISP resolvers and each Google Public DNS cache pool).
class DnsCache {
 public:
  explicit DnsCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the live entry or nullptr; expired entries are dropped on
  /// access. A successful lookup refreshes LRU position.
  const CacheEntry* lookup(const CacheKeyRef& key, net::SimTime now);
  const CacheEntry* lookup(const CacheKey& key, net::SimTime now) {
    return lookup(CacheKeyRef{key.name, key.type, key.scope}, now);
  }

  /// Inserts/overwrites; evicts the least-recently-used entry when full.
  void insert(const CacheKey& key, CacheEntry entry);

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  void clear();

 private:
  using LruList = std::list<CacheKey>;
  struct Slot {
    CacheEntry entry;
    LruList::iterator lru_it;
  };

  std::size_t capacity_;
  LruList lru_;  // front = most recent
  std::unordered_map<CacheKey, Slot, CacheKeyHash, CacheKeyEq> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace netclients::dnssrv
