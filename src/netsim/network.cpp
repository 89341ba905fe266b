#include "netsim/network.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

namespace odns::netsim {

namespace {
// Router interface addresses are carved from 100.64.0.0/10 (the CGNAT
// shared range), which the topology generator never assigns to hosts.
constexpr util::Ipv4 kRouterPoolBase{100, 64, 0, 1};
constexpr std::uint32_t kRouterPoolLimit =
    (std::uint32_t{100} << 24 | 128u << 16) - 1;  // end of 100.64/10
constexpr std::uint32_t kNoRouterOwner = 0xFFFFFFFFu;
// BFS parent of the source AS: the root of every parent chain.
constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
// BFS parent of an AS the BFS has not discovered (yet).
constexpr std::uint32_t kUnvisited = 0xFFFFFFFEu;

// Tail merge threshold. Below it, adds are duplicate-checked eagerly
// (binary search of the frozen table + a linear tail scan) and lookups
// scan the tail; above it — a bulk build in progress — both defer to
// the sort in freeze_addr_plane(), which detects duplicates as sorted
// neighbours. Bulk population therefore costs one O(n) radix sort
// total instead of a per-add structure update.
constexpr std::size_t kAddrTailMerge = 1024;

using AddrEntry = std::pair<util::Ipv4, HostId>;

// Stable LSD radix sort of (addr, host) entries by address, one byte
// per pass: four histograms from one read, then one scatter per byte
// (skipped when every entry shares that byte). Equal addresses — the
// duplicates the freeze rejects — end up adjacent.
void radix_sort_by_addr(std::vector<AddrEntry>& entries) {
  constexpr std::size_t kPasses = 4;
  std::array<std::array<std::size_t, 256>, kPasses> count{};
  for (const auto& e : entries) {
    for (std::size_t p = 0; p < kPasses; ++p) {
      ++count[p][(e.first.value() >> (8 * p)) & 0xFFu];
    }
  }
  std::vector<AddrEntry> scratch(entries.size());
  for (std::size_t p = 0; p < kPasses; ++p) {
    auto& offset = count[p];
    if (std::find(offset.begin(), offset.end(), entries.size()) !=
        offset.end()) {
      continue;
    }
    std::size_t sum = 0;
    for (auto& c : offset) sum += std::exchange(c, sum);
    for (const auto& e : entries) {
      scratch[offset[(e.first.value() >> (8 * p)) & 0xFFu]++] = e;
    }
    entries.swap(scratch);
  }
}

// Fibonacci-multiplicative hash for the open-addressed probe index;
// the top bits index the power-of-2 slot array (shift = 64 - log2 cap).
constexpr std::size_t addr_slot_home(util::Ipv4 addr, std::uint32_t shift) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(addr.value()) * 0x9E3779B97F4A7C15ull) >>
      shift);
}
}  // namespace

Network::Network() : next_router_ip_(kRouterPoolBase) {}

util::Ipv4 Network::allocate_router_ip() {
  if (next_router_ip_.value() >= kRouterPoolLimit) {
    throw std::runtime_error("router IP pool exhausted");
  }
  auto ip = next_router_ip_;
  next_router_ip_ = next_router_ip_.next();
  return ip;
}

AsInfo& Network::add_as(const AsConfig& cfg) {
  if (cfg.internal_hops < 1) {
    throw std::invalid_argument("add_as: internal_hops must be >= 1");
  }
  if (asn_to_index_.contains(cfg.asn)) {
    throw std::invalid_argument("duplicate ASN " + std::to_string(cfg.asn));
  }
  const auto as_idx = static_cast<std::uint32_t>(ases_.size());
  asn_to_index_.emplace(cfg.asn, as_idx);
  asn_order_.push_back(cfg.asn);
  auto& info = ases_.emplace_back();
  info.cfg = cfg;
  info.router_ips.reserve(static_cast<std::size_t>(cfg.internal_hops));
  for (int i = 0; i < cfg.internal_hops; ++i) {
    auto ip = allocate_router_ip();
    info.router_ips.push_back(ip);
    // Sequential allocation keeps the owner table dense: the slot for
    // `ip` is exactly the next one.
    router_owner_.push_back(as_idx);
  }
  ++graph_epoch_;
  bump_epoch();
  return info;
}

void Network::link(Asn a, Asn b) {
  auto* ia = find_as_mutable(a);
  auto* ib = find_as_mutable(b);
  if (ia == nullptr || ib == nullptr) {
    throw std::invalid_argument("link between unknown ASNs");
  }
  if (a == b) return;
  if (std::find(ia->neighbors.begin(), ia->neighbors.end(), b) ==
      ia->neighbors.end()) {
    ia->neighbors.push_back(b);
    ib->neighbors.push_back(a);
    ++graph_epoch_;
    bump_epoch();
  }
}

void Network::announce(Asn asn, Prefix4 prefix) {
  auto* info = find_as_mutable(asn);
  if (info == nullptr) throw std::invalid_argument("announce: unknown ASN");
  info->owned.push_back(prefix);
  // Deliberately conservative: cached routes never read announced
  // prefixes today, but "every topology mutation bumps the epoch" is a
  // simpler invariant to rely on than tracking which mutations the
  // route computation happens to consume.
  bump_epoch();
}

void Network::index_address(util::Ipv4 addr, HostId id) {
  if (addr_tail_.size() < kAddrTailMerge) {
    // Affordable eager duplicate check; past the threshold (bulk
    // build) it is deferred to the freeze-time sort.
    bool dup = frozen_owner(addr) != kInvalidHost;
    for (const auto& [a, h] : addr_tail_) dup = dup || a == addr;
    if (dup) {
      throw std::invalid_argument("address already assigned: " + addr.to_string());
    }
  }
  addr_tail_.emplace_back(addr, id);
}

HostId Network::add_host(Asn asn, std::span<const util::Ipv4> addrs) {
  auto* info = find_as_mutable(asn);
  if (info == nullptr) throw std::invalid_argument("add_host: unknown ASN");
  const auto id = static_cast<HostId>(hosts_.size());
  auto& h = hosts_.emplace_back();
  h.id = id;
  h.asn = asn;
  h.addr_off = static_cast<std::uint32_t>(addr_pool_.size());
  h.addr_count = static_cast<std::uint32_t>(addrs.size());
  addr_pool_.insert(addr_pool_.end(), addrs.begin(), addrs.end());
  try {
    for (auto a : addrs) index_address(a, id);
  } catch (...) {
    // Strong guarantee: a duplicate address leaves no phantom host
    // behind.
    addr_pool_.resize(h.addr_off);
    hosts_.pop_back();
    while (!addr_tail_.empty() && addr_tail_.back().second == id) {
      addr_tail_.pop_back();
    }
    throw;
  }
  info->hosts.push_back(id);
  bump_epoch();
  return id;
}

void Network::add_host_address(HostId id, util::Ipv4 addr) {
  index_address(addr, id);
  Host& h = hosts_[id];
  if (h.addr_off + h.addr_count == addr_pool_.size()) {
    // Host owns the pool's end — extend its span in place.
    addr_pool_.push_back(addr);
  } else {
    // Relocate the host's span to the end (leaves a small hole; this
    // path only runs for interactive post-construction edits).
    const auto new_off = static_cast<std::uint32_t>(addr_pool_.size());
    for (std::uint32_t i = 0; i < h.addr_count; ++i) {
      addr_pool_.push_back(addr_pool_[h.addr_off + i]);
    }
    addr_pool_.push_back(addr);
    h.addr_off = new_off;
  }
  ++h.addr_count;
  bump_epoch();
}

void Network::join_anycast(util::Ipv4 addr, HostId host) {
  // Insert before the first entry of a greater address: groups stay
  // sorted by address while members keep insertion order (the
  // nearest-PoP tie-break).
  const auto it = std::upper_bound(
      anycast_.begin(), anycast_.end(), addr,
      [](util::Ipv4 a, const auto& e) { return a < e.first; });
  anycast_.emplace(it, addr, host);
  anycast_dirty_ = true;
  bump_epoch();
}

const AsInfo* Network::find_as(Asn asn) const {
  auto it = asn_to_index_.find(asn);
  return it == asn_to_index_.end() ? nullptr : &ases_[it->second];
}

AsInfo* Network::find_as_mutable(Asn asn) {
  auto it = asn_to_index_.find(asn);
  return it == asn_to_index_.end() ? nullptr : &ases_[it->second];
}

std::size_t Network::as_index(Asn asn) const {
  auto it = asn_to_index_.find(asn);
  if (it == asn_to_index_.end()) {
    throw std::out_of_range("as_index: unknown ASN " + std::to_string(asn));
  }
  return it->second;
}

void Network::freeze_addr_plane() const {
  if (addr_tail_.empty()) return;
  addr_index_.insert(addr_index_.end(), addr_tail_.begin(), addr_tail_.end());
  addr_tail_.clear();
  addr_tail_.shrink_to_fit();
  radix_sort_by_addr(addr_index_);
  for (std::size_t i = 1; i < addr_index_.size(); ++i) {
    if (addr_index_[i].first == addr_index_[i - 1].first) {
      // Bulk adds past the tail threshold defer their duplicate check
      // to this sort (same contract, detected at freeze).
      throw std::invalid_argument("address already assigned: " +
                                  addr_index_[i].first.to_string());
    }
  }
  rebuild_addr_slots();
}

void Network::rebuild_addr_slots() const {
  // Capacity ≥ 2× entries keeps the load factor at or below 0.5, so a
  // probe chain is 1.5 slots on average — one expected cache miss per
  // point lookup, which is where the probe index beats both a binary
  // search (log n misses) and a node-based map (pointer chase).
  std::size_t cap = std::bit_ceil(
      std::max<std::size_t>(16, addr_index_.size() * 2));
  addr_slots_.assign(cap, {util::Ipv4{}, kInvalidHost});
  addr_slots_shift_ =
      64u - static_cast<std::uint32_t>(std::countr_zero(cap));
  const std::size_t mask = cap - 1;
  for (const auto& entry : addr_index_) {
    std::size_t slot = addr_slot_home(entry.first, addr_slots_shift_);
    while (addr_slots_[slot].second != kInvalidHost) {
      slot = (slot + 1) & mask;
    }
    addr_slots_[slot] = entry;
  }
}

HostId Network::frozen_owner(util::Ipv4 addr) const {
  if (addr_slots_.empty()) return kInvalidHost;
  const std::size_t mask = addr_slots_.size() - 1;
  std::size_t slot = addr_slot_home(addr, addr_slots_shift_);
  // Emptiness is flagged by the host sentinel alone, never by the
  // address value — 0.0.0.0 is a legal (if odd) probe target.
  while (addr_slots_[slot].second != kInvalidHost) {
    if (addr_slots_[slot].first == addr) return addr_slots_[slot].second;
    slot = (slot + 1) & mask;
  }
  return kInvalidHost;
}

HostId Network::unicast_owner(util::Ipv4 addr) const {
  if (!addr_tail_.empty()) {
    if (addr_tail_.size() >= kAddrTailMerge) {
      freeze_addr_plane();
    } else {
      for (const auto& [a, h] : addr_tail_) {
        if (a == addr) return h;
      }
    }
  }
  return frozen_owner(addr);
}

bool Network::is_anycast(util::Ipv4 addr) const {
  const auto it = std::lower_bound(
      anycast_.begin(), anycast_.end(), addr,
      [](const auto& e, util::Ipv4 a) { return e.first < a; });
  return it != anycast_.end() && it->first == addr;
}

void Network::freeze_routing() const {
  const bool graph_moved = adj_epoch_ != graph_epoch_;
  if (graph_moved) {
    adj_off_.assign(ases_.size() + 1, 0);
    adj_.clear();
    for (std::size_t i = 0; i < ases_.size(); ++i) {
      for (Asn nb : ases_[i].neighbors) {
        adj_.push_back(asn_to_index_.find(nb)->second);
      }
      adj_off_[i + 1] = static_cast<std::uint32_t>(adj_.size());
    }
    adj_epoch_ = graph_epoch_;
  }
  if (!graph_moved && !anycast_dirty_) return;

  // One multi-source BFS per group, seeded with the member ASes in
  // member order. Inductively each BFS level is queued in label order,
  // so an AS takes the label of its first-queued predecessor: the
  // lowest-order member among those fewest hops away. `link` is
  // symmetric, so hops from the member equal hops to it — exactly the
  // nearest-PoP rule (fewest AS hops, then member order), and
  // kInvalidHost where no member is reachable.
  const std::size_t n = ases_.size();
  anycast_groups_.clear();
  for (const auto& [addr, host] : anycast_) {
    if (anycast_groups_.empty() || anycast_groups_.back() != addr) {
      anycast_groups_.push_back(addr);
    }
  }
  nearest_.assign(anycast_groups_.size() * n, kInvalidHost);
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  auto member = anycast_.begin();
  for (std::size_t g = 0; g < anycast_groups_.size(); ++g) {
    HostId* nearest = nearest_.data() + g * n;
    queue.clear();
    for (; member != anycast_.end() && member->first == anycast_groups_[g];
         ++member) {
      const auto s = asn_to_index_.find(hosts_[member->second].asn)->second;
      if (nearest[s] != kInvalidHost) continue;
      nearest[s] = member->second;
      queue.push_back(s);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto u = queue[head];
      for (auto e = adj_off_[u]; e < adj_off_[u + 1]; ++e) {
        if (nearest[adj_[e]] == kInvalidHost) {
          nearest[adj_[e]] = nearest[u];
          queue.push_back(adj_[e]);
        }
      }
    }
  }
  anycast_dirty_ = false;
}

HostId Network::resolve_destination(util::Ipv4 addr, Asn from_as) const {
  freeze_routing();
  const auto g = std::lower_bound(anycast_groups_.begin(),
                                  anycast_groups_.end(), addr);
  if (g == anycast_groups_.end() || *g != addr) return unicast_owner(addr);
  const auto from = asn_to_index_.find(from_as);
  if (from == asn_to_index_.end()) return kInvalidHost;
  return nearest_[static_cast<std::size_t>(g - anycast_groups_.begin()) *
                      ases_.size() +
                  from->second];
}

std::optional<Asn> Network::router_owner(util::Ipv4 addr) const {
  if (addr.value() < kRouterPoolBase.value()) return std::nullopt;
  const std::uint32_t slot = addr.value() - kRouterPoolBase.value();
  if (slot >= router_owner_.size()) return std::nullopt;
  const std::uint32_t as_idx = router_owner_[slot];
  if (as_idx == kNoRouterOwner) return std::nullopt;
  return ases_[as_idx].cfg.asn;
}

bool Network::owns_source(const AsInfo& info, util::Ipv4 src) {
  return std::any_of(info.owned.begin(), info.owned.end(),
                     [src](const Prefix4& p) { return p.contains(src); });
}

bool Network::source_is_legitimate(Asn asn, util::Ipv4 src) const {
  const auto* info = find_as(asn);
  if (info == nullptr) return false;
  return owns_source(*info, src);
}

const RouteCache::BfsEntry& Network::bfs_for(RouteCache& cache,
                                             std::uint32_t src,
                                             std::uint32_t target) const {
  freeze_routing();
  auto [bfs_it, bfs_inserted] = cache.bfs.try_emplace(src);
  auto& entry = bfs_it->second;
  if (bfs_inserted) {
    // FIFO bound: evict the oldest source AS once over the cap. Only
    // scratch is dropped — span entries derived from it stay cached —
    // and a re-missed source restarts its BFS from scratch.
    cache.bfs_order.push_back(src);
    while (cache.bfs.size() > RouteCache::kMaxBfsEntries) {
      const auto victim = cache.bfs_order.front();
      cache.bfs_order.pop_front();
      if (victim != src) cache.bfs.erase(victim);
    }
  }
  if (bfs_inserted || entry.graph_epoch != graph_epoch_) {
    entry.graph_epoch = graph_epoch_;
    entry.parent.assign(ases_.size(), kUnvisited);
    entry.queue.clear();  // capacity retained across a stale restart
    entry.head = 0;
    entry.parent[src] = kNoParent;
    entry.queue.push_back(src);
  }
  // Expand whole vertices in queue order until `target` is discovered:
  // exactly the prefix of the exhaustive BFS, so every parent is the
  // one the exhaustive BFS would assign.
  auto& parent = entry.parent;
  auto& queue = entry.queue;
  while (parent[target] == kUnvisited && entry.head < queue.size()) {
    const auto u = queue[entry.head++];
    for (auto e = adj_off_[u]; e < adj_off_[u + 1]; ++e) {
      const auto v = adj_[e];
      if (parent[v] == kUnvisited) {
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  return entry;
}

int Network::as_distance(Asn from, Asn to) const {
  const auto f = asn_to_index_.find(from);
  const auto t = asn_to_index_.find(to);
  if (f == asn_to_index_.end() || t == asn_to_index_.end()) return -1;
  const auto& parent = bfs_for(default_cache_, f->second, t->second).parent;
  if (parent[t->second] == kUnvisited) return -1;
  int d = 0;
  for (auto cur = parent[t->second]; cur != kNoParent; cur = parent[cur]) ++d;
  return d;
}

std::optional<Route> Network::route(HostId from, util::Ipv4 dst) const {
  return route_from_as(hosts_[from].asn, dst);
}

const PathSpan* Network::span_for(RouteCache& cache, std::uint32_t from,
                                  std::uint32_t to) const {
  const auto key = static_cast<std::uint64_t>(from) << 32 | to;
  auto [it, inserted] = cache.spans.try_emplace(key);
  RouteCache::SpanEntry& entry = it->second;
  if (!inserted && entry.graph_epoch == graph_epoch_) {
    ++cache.stats.hits;
  } else {
    if (!inserted) ++cache.stats.stale_evictions;
    ++cache.stats.misses;
    entry.graph_epoch = graph_epoch_;
    PathSpan& span = entry.span;
    span.as_path.clear();
    span.router_hops.clear();
    const auto& bfs = bfs_for(cache, from, to);
    if (bfs.parent[to] != kUnvisited) {
      // Walk the parent chain twice: once for the AS path and the hop
      // total, once to fill each AS's router chain from the back.
      std::size_t total = 0;
      for (auto cur = to; cur != kNoParent; cur = bfs.parent[cur]) {
        span.as_path.push_back(ases_[cur].cfg.asn);
        total += ases_[cur].router_ips.size();
      }
      std::reverse(span.as_path.begin(), span.as_path.end());
      span.router_hops.resize(total);
      auto out = span.router_hops.end();
      for (auto cur = to; cur != kNoParent; cur = bfs.parent[cur]) {
        const auto& ips = ases_[cur].router_ips;
        out -= static_cast<std::ptrdiff_t>(ips.size());
        std::copy(ips.begin(), ips.end(), out);
      }
    }
  }
  return entry.span.as_path.empty() ? nullptr : &entry.span;
}

std::optional<RouteView> Network::route_view(Asn from, util::Ipv4 dst) const {
  return route_view(default_cache_, from, dst);
}

std::optional<RouteView> Network::route_view(RouteCache& cache, Asn from,
                                             util::Ipv4 dst) const {
  const HostId dst_host = resolve_destination(dst, from);
  if (dst_host == kInvalidHost) return std::nullopt;
  const PathSpan* span =
      span_for(cache, static_cast<std::uint32_t>(as_index(from)),
               static_cast<std::uint32_t>(as_index(hosts_[dst_host].asn)));
  if (span == nullptr) return std::nullopt;
  return RouteView{&span->router_hops, &span->as_path, dst_host};
}

std::optional<Route> Network::route_from_as(Asn from, util::Ipv4 dst) const {
  const auto view = route_view(from, dst);
  if (!view) return std::nullopt;
  Route r;
  r.router_hops = *view->router_hops;
  r.as_path = *view->as_path;
  r.dst_host = view->dst_host;
  return r;
}

const std::vector<std::pair<Prefix4, Asn>>& Network::announced_prefixes()
    const {
  if (announced_epoch_ != epoch_) {
    announced_cache_.clear();
    for (const auto& info : ases_) {
      for (const auto& p : info.owned) {
        announced_cache_.emplace_back(p, info.cfg.asn);
      }
    }
    announced_epoch_ = epoch_;
  }
  return announced_cache_;
}

}  // namespace odns::netsim
