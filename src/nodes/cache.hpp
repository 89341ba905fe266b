#pragma once
// DNS record cache with TTL decay and RFC 2308 negative caching. Used
// by recursive resolvers and caching forwarders; cache hit/miss counts
// feed the paper's Table 2 (method cost comparison). Entries are keyed
// by dnswire::wire_key(name, type).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnswire/arena_codec.hpp"
#include "util/time.hpp"

namespace odns::nodes {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
};

/// A cached answer: either a record set or a negative (NXDOMAIN /
/// NODATA) entry. Remaining TTL is computed against the clock at
/// lookup, so cached responses are served with decayed TTLs — the
/// observable the paper uses to demonstrate response caching (Fig. 7).
/// `records` borrows the cache's storage (TTLs as stored) and stays
/// valid until the next put.
struct CachedAnswer {
  std::span<const dnswire::ResourceRecord> records;  // empty for negative
  bool negative = false;
  dnswire::Rcode rcode = dnswire::Rcode::noerror;
  std::uint32_t remaining_ttl = 0;

  /// The records as views in `arena`, each with the remaining TTL:
  /// what a cache hit serves.
  [[nodiscard]] std::span<const dnswire::RecordView> views(
      dnswire::WireArena& arena) const;
};

class DnsCache {
 public:
  explicit DnsCache(std::uint32_t max_ttl = 86400, std::size_t max_entries = 1 << 20)
      : max_ttl_(max_ttl), max_entries_(max_entries) {}

  /// Stores an owned copy of a positive record set under `key`.
  void put(std::string key, std::span<const dnswire::RecordView> records,
           util::SimTime now);

  /// Stores a negative entry (rcode + SOA-derived TTL).
  void put_negative(std::string key, dnswire::Rcode rcode, std::uint32_t ttl,
                    util::SimTime now);

  /// Looks up `key`; expired entries are treated as misses and dropped
  /// lazily.
  std::optional<CachedAnswer> get(const std::string& key, util::SimTime now);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    std::vector<dnswire::ResourceRecord> records;
    bool negative = false;
    dnswire::Rcode rcode = dnswire::Rcode::noerror;
    util::SimTime expiry;
    std::uint32_t original_ttl = 0;
  };

  std::uint32_t max_ttl_;
  std::size_t max_entries_;
  std::unordered_map<std::string, Entry> entries_;
  CacheStats stats_;
};

}  // namespace odns::nodes
