#pragma once
// Route-cache storage, factored out of Network so a sharded simulator
// can give every shard a private instance (no shared `mutable` maps
// across threads). Network stays the single owner of the *logic* —
// the cache-taking overload of `route_view` fills these structures —
// while this class is dumb epoch-tagged storage:
//
//   * span entries:  (source AS, destination AS) -> router-hop span
//   * BFS entries:   source AS -> a resumable BFS over the AS graph
//                    (parents, discovery queue, expansion head)
//
// Destination hosts are not cached here: they come from the flat
// address plane or from the frozen anycast tables (Network::
// freeze_routing). Both entry kinds are stamped with the graph epoch,
// which only add_as/link bump — the mutations that change a span. A
// lookup that finds an older stamp recomputes the entry in place;
// there is no mutation-time scan, so world construction stays cheap
// and the scan phase runs entirely on warm entries. Under sharding
// each shard's cache converges independently; entries are never
// shared between caches, so no locking is needed anywhere on the
// per-packet path.

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "netsim/packet.hpp"
#include "util/ipv4.hpp"

namespace odns::netsim {

/// Route-cache observability, counted at the span lookup: `hits` are
/// served without recomputation, `misses` fill a fresh entry,
/// `stale_evictions` count entries that were lazily recomputed because
/// the graph epoch moved past them.
struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale_evictions = 0;
};

/// Precomputed router-hop span for one (source AS, destination AS)
/// pair: the AS path plus the concatenation of every traversed AS's
/// internal router chain. An empty `as_path` means no AS path exists.
struct PathSpan {
  std::vector<Asn> as_path;
  std::vector<util::Ipv4> router_hops;
};

class RouteCache {
 public:
  struct SpanEntry {
    std::uint64_t graph_epoch = 0;
    PathSpan span;
  };
  /// A BFS from one source AS, expanded lazily: Network::bfs_for
  /// expands whole vertices from `head` only until the requested
  /// destination is discovered, and the source's next miss resumes
  /// there. Parents are fixed at discovery, so a partial BFS agrees
  /// with the exhaustive one on every discovered AS.
  struct BfsEntry {
    std::uint64_t graph_epoch = 0;
    /// AS index of each AS's predecessor (indexed by AS index); the
    /// source holds Network's root sentinel, undiscovered ASes its
    /// unvisited sentinel.
    std::vector<std::uint32_t> parent;
    /// Discovered ASes in discovery order; [head, end) await expansion.
    std::vector<std::uint32_t> queue;
    std::size_t head = 0;
  };

  /// FIFO bound on live BFS entries. A BfsEntry holds a 4-byte parent
  /// per AS (~60 KB in a 15k-AS world) plus its discovery queue, which
  /// stays a small fraction of the AS count while the BFS stops at its
  /// destinations. Span entries cache the derived results, so the
  /// per-source scratch is only needed on span misses. Unbounded,
  /// "every forwarder AS ever probed" retains O(ASes²) bytes (~1 GB at
  /// million-host scale); bounded, the hot working set (concurrent
  /// probe lifetimes per shard) stays resident and cold sources are
  /// recomputed deterministically on re-miss.
  static constexpr std::size_t kMaxBfsEntries = 1024;

  // Storage is public to its driver (Network); everything here is an
  // implementation detail of the routing fast path, not API.
  // (source AS index << 32 | destination AS index) -> hop span. Nodes
  // are never erased, so a span's vectors stay put until a stale entry
  // is recomputed in place.
  std::unordered_map<std::uint64_t, SpanEntry> spans;
  // source AS index -> BFS over the AS adjacency graph. Bounded by
  // kMaxBfsEntries via bfs_order (insertion-order eviction).
  std::unordered_map<std::uint32_t, BfsEntry> bfs;
  std::deque<std::uint32_t> bfs_order;
  RouteCacheStats stats;
};

}  // namespace odns::netsim
