#pragma once
// Static network model: autonomous systems, their adjacency, hosts,
// address ownership, anycast groups, and path computation. The dynamic
// part (packets in flight) lives in Simulator.
//
// Routing is AS-granular: the packet's router-level path is the
// concatenation of each traversed AS's internal router chain, which
// gives hop-accurate TTL semantics (what DNSRoute++ measures) without
// simulating per-router FIBs.
//
// A route lookup is two steps: resolve the destination host (anycast
// table read, else the flat address plane), then look up the hop span
// for the (source AS, destination AS) pair in an epoch-tagged
// RouteCache (route_cache.hpp). The classic shapes use the
// Network-owned default cache (single-threaded callers); the `const`
// overload taking an explicit RouteCache& lets a sharded simulator
// hand every shard a private cache. Once `freeze_routing()` has run,
// the Network itself is immutable shared state, safe to read from any
// number of shard threads concurrently.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/packet.hpp"
#include "netsim/route_cache.hpp"
#include "util/ipv4.hpp"

namespace odns::netsim {

using Prefix4 = util::Prefix;

struct AsConfig {
  Asn asn = 0;
  std::string country;  // ISO-3166 alpha-3, e.g. "BRA"
  /// Egress source-address validation (BCP 38). Transparent forwarders
  /// can only operate from ASes where this is false.
  bool source_address_validation = true;
  /// Router hops a packet spends crossing this AS (>= 1).
  int internal_hops = 2;
};

struct AsInfo {
  AsConfig cfg;
  std::vector<Asn> neighbors;
  std::vector<util::Ipv4> router_ips;  // one per internal hop
  std::vector<Prefix4> owned;          // announced prefixes (SAV scope)
  std::vector<HostId> hosts;
};

/// Hosts no longer own their addresses: `addr_off`/`addr_count` is a
/// span into the Network's shared interned address pool
/// (`Network::host_addrs` / `Network::primary_addr`). At million-host
/// scale a per-host heap vector was the single largest world-build
/// allocation class.
struct Host {
  HostId id = kInvalidHost;
  Asn asn = 0;
  std::uint32_t addr_off = 0;
  std::uint32_t addr_count = 0;
};

/// Result of a route lookup: the ordered router hops between (but not
/// including) the source host and the destination host.
struct Route {
  std::vector<util::Ipv4> router_hops;
  std::vector<Asn> as_path;  // includes source and destination AS
  HostId dst_host = kInvalidHost;
};

class Network {
 public:
  Network();

  // --- construction ------------------------------------------------
  /// Throws std::invalid_argument on a duplicate ASN or
  /// internal_hops < 1.
  AsInfo& add_as(const AsConfig& cfg);
  /// Declares a bidirectional inter-AS adjacency.
  void link(Asn a, Asn b);
  /// Registers a prefix as legitimately originated by `asn` (SAV scope
  /// and synthetic-Routeviews source).
  void announce(Asn asn, Prefix4 prefix);
  HostId add_host(Asn asn, std::span<const util::Ipv4> addrs);
  HostId add_host(Asn asn, const std::vector<util::Ipv4>& addrs) {
    return add_host(asn, std::span<const util::Ipv4>(addrs));
  }
  HostId add_host(Asn asn, std::initializer_list<util::Ipv4> addrs) {
    return add_host(asn, std::span<const util::Ipv4>(addrs.begin(), addrs.size()));
  }
  void add_host_address(HostId id, util::Ipv4 addr);
  /// Sorts the unmerged address tail into the dense lookup table and
  /// verifies address uniqueness (throws on duplicates, same contract
  /// as add_host). Called automatically by the first lookup after a
  /// mutation batch; bulk builders call it once after population so
  /// the merge cost is paid off the packet path.
  void freeze_addr_plane() const;
  /// Adds `host` as a member of the anycast group for `addr`. Lookups
  /// resolve to the member closest (AS hops) to the querying AS.
  void join_anycast(util::Ipv4 addr, HostId host);
  /// Rebuilds the read-only routing tables if the AS graph or the
  /// anycast membership moved: the CSR adjacency the BFS walks, and one
  /// nearest-member table per anycast group. Called lazily by every
  /// lookup; the topology builder and the sharded simulator call it
  /// before shard threads start, so those threads only read.
  void freeze_routing() const;

  // --- lookups -----------------------------------------------------
  [[nodiscard]] const Host& host(HostId id) const { return hosts_[id]; }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  /// All addresses of `id`, as a view into the shared address pool.
  /// Valid until the next add_host/add_host_address call.
  [[nodiscard]] std::span<const util::Ipv4> host_addrs(HostId id) const {
    const Host& h = hosts_[id];
    return {addr_pool_.data() + h.addr_off, h.addr_count};
  }
  /// First (primary) address of `id`; the host must have one.
  [[nodiscard]] util::Ipv4 primary_addr(HostId id) const {
    return addr_pool_[hosts_[id].addr_off];
  }
  [[nodiscard]] const AsInfo* find_as(Asn asn) const;
  [[nodiscard]] AsInfo* find_as_mutable(Asn asn);
  [[nodiscard]] const std::vector<Asn>& all_asns() const { return asn_order_; }
  [[nodiscard]] std::size_t as_count() const { return ases_.size(); }
  /// Dense index of an ASN in construction order (stable, 0-based).
  /// Throws std::out_of_range on an unknown ASN.
  [[nodiscard]] std::size_t as_index(Asn asn) const;

  /// Exact-match host owning `addr` (unicast), or the nearest anycast
  /// member seen from `from_as`. kInvalidHost if nobody owns it.
  /// Ties between equally near members break on member order.
  [[nodiscard]] HostId resolve_destination(util::Ipv4 addr, Asn from_as) const;
  [[nodiscard]] HostId unicast_owner(util::Ipv4 addr) const;
  [[nodiscard]] bool is_anycast(util::Ipv4 addr) const;

  /// ASN owning a router IP (for synthetic registry generation and
  /// DNSRoute++ hop attribution). nullopt if not a router address.
  [[nodiscard]] std::optional<Asn> router_owner(util::Ipv4 addr) const;

  /// True if `src` is a legitimate source address for traffic leaving
  /// `asn` (i.e. covered by a prefix it announces).
  [[nodiscard]] bool source_is_legitimate(Asn asn, util::Ipv4 src) const;
  /// Same check against an already-resolved AsInfo — lets the per-packet
  /// SAV path reuse the `find_as` lookup it has already paid for.
  [[nodiscard]] static bool owns_source(const AsInfo& info, util::Ipv4 src);

  /// AS-level distance (hop count) between two ASes; -1 if unreachable.
  [[nodiscard]] int as_distance(Asn from, Asn to) const;

  /// Computes the router-level route from a host to an IP address.
  /// Returns nullopt when the destination does not resolve or no AS
  /// path exists.
  [[nodiscard]] std::optional<Route> route(HostId from, util::Ipv4 dst) const;
  /// Same, but originating inside an AS (used for ICMP errors emitted
  /// by routers).
  [[nodiscard]] std::optional<Route> route_from_as(Asn from,
                                                   util::Ipv4 dst) const;

  /// Zero-copy route lookup for the per-packet hot path: the resolved
  /// destination host plus a view of the cached hop span. The view
  /// stays valid until the next `add_as` or `link`. `route()` and
  /// `route_from_as()` copy it.
  [[nodiscard]] std::optional<RouteView> route_view(Asn from,
                                                    util::Ipv4 dst) const;
  /// Per-shard variant: fills/serves `cache` instead of the built-in
  /// default cache. Thread-safe as long as each cache is driven by one
  /// thread, `freeze_routing()` ran after the last mutation, and the
  /// topology is not mutated concurrently.
  [[nodiscard]] std::optional<RouteView> route_view(RouteCache& cache,
                                                    Asn from,
                                                    util::Ipv4 dst) const;

  /// Monotonic counter bumped by every topology mutation (`add_as`,
  /// `link`, `announce`, `add_host`, `add_host_address`,
  /// `join_anycast`).
  [[nodiscard]] std::uint64_t topology_epoch() const { return epoch_; }
  [[nodiscard]] const RouteCacheStats& route_cache_stats() const {
    return default_cache_.stats;
  }

  /// All announced prefixes with their origin ASN (synthetic
  /// Routeviews dump source). Cached behind the topology epoch; the
  /// returned reference is valid until the next mutation.
  [[nodiscard]] const std::vector<std::pair<Prefix4, Asn>>& announced_prefixes()
      const;

 private:
  /// BFS over the CSR adjacency from AS index `src`, via the cache's
  /// FIFO-bounded BFS table, expanded (or resumed) until AS index
  /// `target` is discovered or the graph is exhausted.
  const RouteCache::BfsEntry& bfs_for(RouteCache& cache, std::uint32_t src,
                                      std::uint32_t target) const;
  util::Ipv4 allocate_router_ip();
  void bump_epoch() { ++epoch_; }
  /// Hop span for an AS-index pair, via the cache's span table;
  /// nullptr when no AS path exists.
  const PathSpan* span_for(RouteCache& cache, std::uint32_t from,
                           std::uint32_t to) const;

  /// Appends `addr` to the lookup tail; throws on duplicates when the
  /// check is affordable (see .cpp).
  void index_address(util::Ipv4 addr, HostId id);
  /// Rebuilds the open-addressed probe index over addr_index_ (called
  /// at the end of every freeze); O(1)-amortized frozen-table lookup.
  void rebuild_addr_slots() const;
  /// Probe-index point lookup over the frozen table only (the caller
  /// handles the unsorted tail). kInvalidHost on miss.
  [[nodiscard]] HostId frozen_owner(util::Ipv4 addr) const;

  std::vector<AsInfo> ases_;
  std::vector<Asn> asn_order_;
  std::unordered_map<Asn, std::uint32_t> asn_to_index_;
  std::vector<Host> hosts_;

  // --- flat interned address plane ---------------------------------
  // A sorted dense (addr, host) table frozen into an open-addressed
  // probe index (O(1)-amortized point lookups, one expected cache
  // miss), plus a small unsorted tail for post-freeze mutations.
  /// Every host address, contiguous per host (Host::addr_off/count).
  std::vector<util::Ipv4> addr_pool_;
  /// Sorted (addr, host) table: the frozen lookup surface. `mutable`
  /// because freezing is lazy (first lookup after a mutation batch).
  mutable std::vector<std::pair<util::Ipv4, HostId>> addr_index_;
  /// Unsorted adds since the last freeze; merged into addr_index_ once
  /// it outgrows kAddrTailMerge (or at the first lookup). Scanned
  /// linearly meanwhile, so post-freeze adds stay cheap and correct.
  mutable std::vector<std::pair<util::Ipv4, HostId>> addr_tail_;
  /// Open-addressed linear-probe mirror of addr_index_, rebuilt at
  /// each freeze: power-of-2 capacity ≥ 2× entries (load ≤ 0.5),
  /// multiplicative hash, empty slots flagged by host == kInvalidHost.
  /// This is what makes frozen lookups O(1)-amortized — the sorted
  /// table stays the canonical surface for dup-checks and tail merges.
  mutable std::vector<std::pair<util::Ipv4, HostId>> addr_slots_;
  /// Right-shift applied to the 64-bit hash to index addr_slots_
  /// (64 - log2(capacity)); 0 means the probe index is empty.
  mutable std::uint32_t addr_slots_shift_ = 0;
  /// Anycast membership, flattened: sorted by address, insertion order
  /// preserved within a group (nearest-PoP ties break on it).
  std::vector<std::pair<util::Ipv4, HostId>> anycast_;
  /// AS index owning each router IP, dense over the sequential
  /// 100.64/10 allocation (slot = addr - kRouterPoolBase).
  std::vector<std::uint32_t> router_owner_;

  util::Ipv4 next_router_ip_;

  mutable std::vector<std::pair<Prefix4, Asn>> announced_cache_;
  mutable std::uint64_t announced_epoch_ = 0;

  std::uint64_t epoch_ = 1;
  /// Bumped only by graph-shape mutations (add_as / link) — the only
  /// events that invalidate the CSR adjacency, BFS results and spans.
  /// Keeping it separate from epoch_ means add_host/announce storms
  /// during world construction never force BFS recomputation.
  std::uint64_t graph_epoch_ = 1;

  // --- frozen routing tables (freeze_routing) -----------------------
  /// CSR adjacency over AS indices: the neighbors of AS `i` are
  /// adj_[adj_off_[i] .. adj_off_[i + 1]), in `link` order.
  mutable std::vector<std::uint32_t> adj_off_;
  mutable std::vector<std::uint32_t> adj_;
  /// graph_epoch_ the CSR adjacency was built at (0: never).
  mutable std::uint64_t adj_epoch_ = 0;
  /// Distinct anycast addresses, sorted; group g's nearest-member
  /// table is nearest_[g * as_count .. (g + 1) * as_count).
  mutable std::vector<util::Ipv4> anycast_groups_;
  mutable std::vector<HostId> nearest_;
  /// Set by join_anycast; the tables are also rebuilt with the CSR.
  mutable bool anycast_dirty_ = false;
  /// Cache behind the classic (cache-less) API shapes; shard 0 /
  /// single-threaded callers share it.
  mutable RouteCache default_cache_;
};

}  // namespace odns::netsim
