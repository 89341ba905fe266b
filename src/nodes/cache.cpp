#include "nodes/cache.hpp"

#include <algorithm>

namespace odns::nodes {

std::span<const dnswire::RecordView> CachedAnswer::views(
    dnswire::WireArena& arena) const {
  const auto out = dnswire::view_of(arena, records);
  for (auto& rr : out) rr.ttl = remaining_ttl;
  return out;
}

void DnsCache::put(std::string key,
                   std::span<const dnswire::RecordView> records,
                   util::SimTime now) {
  if (records.empty()) return;
  std::uint32_t ttl = max_ttl_;
  for (const auto& rr : records) ttl = std::min(ttl, rr.ttl);
  if (entries_.size() >= max_entries_) {
    // Full: drop an arbitrary entry (the paper's resolvers face cache
    // eviction pressure from query-based scans; modeled coarsely).
    entries_.erase(entries_.begin());
    ++stats_.evictions;
  }
  Entry e;
  e.records.reserve(records.size());
  for (const auto& rr : records) e.records.push_back(rr.to_record());
  e.expiry = now + util::Duration::seconds(ttl);
  e.original_ttl = ttl;
  entries_[std::move(key)] = std::move(e);
  ++stats_.inserts;
}

void DnsCache::put_negative(std::string key, dnswire::Rcode rcode,
                            std::uint32_t ttl, util::SimTime now) {
  Entry e;
  e.negative = true;
  e.rcode = rcode;
  e.expiry = now + util::Duration::seconds(std::min(ttl, max_ttl_));
  e.original_ttl = ttl;
  entries_[std::move(key)] = std::move(e);
  ++stats_.inserts;
}

std::optional<CachedAnswer> DnsCache::get(const std::string& key,
                                          util::SimTime now) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second.expiry <= now) {
    entries_.erase(it);
    ++stats_.misses;
    return std::nullopt;
  }
  const auto& e = it->second;
  CachedAnswer out;
  out.negative = e.negative;
  out.rcode = e.rcode;
  const auto remaining =
      static_cast<std::uint32_t>((e.expiry - now).as_seconds());
  out.remaining_ttl = std::max<std::uint32_t>(remaining, 1);
  if (e.negative) {
    ++stats_.negative_hits;
  } else {
    out.records = e.records;
    ++stats_.hits;
  }
  return out;
}

}  // namespace odns::nodes
