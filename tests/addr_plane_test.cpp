// Flat interned address plane (docs/architecture.md, "Flat address
// plane"): every point lookup on a built world must agree with a plain
// map built from the hosts' own address spans, the freeze/tail/merge
// contract must hold, and world construction must stay under a
// recorded bytes-per-host heap ceiling. The census that runs on the
// plane is pinned in tests/golden_test.cpp.
//
// This binary replaces global operator new/delete with size-tracking
// versions feeding test::allocaudit::live_bytes (alongside the
// counters); no other binary except alloc_audit_test defines
// replacements, so the rest of the suite runs on the stock allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <malloc.h>
#include <new>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "topo/deployment.hpp"
#include "testutil.hpp"

// ---------------------------------------------------------------------
// Size-tracking global allocator (glibc malloc_usable_size gives the
// true block size, so live_bytes matches what the heap actually holds).
// ---------------------------------------------------------------------

namespace {

void* tracked_alloc(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  odns::test::allocaudit::allocations.fetch_add(1, std::memory_order_relaxed);
  odns::test::allocaudit::live_bytes.fetch_add(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  return p;
}

void* tracked_aligned_alloc(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc{};
  odns::test::allocaudit::allocations.fetch_add(1, std::memory_order_relaxed);
  odns::test::allocaudit::live_bytes.fetch_add(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  return p;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  odns::test::allocaudit::deallocations.fetch_add(1,
                                                  std::memory_order_relaxed);
  odns::test::allocaudit::live_bytes.fetch_sub(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tracked_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return tracked_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return tracked_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}

namespace odns {
namespace {

using netsim::HostId;
using netsim::kInvalidHost;
using netsim::Network;
using test::allocaudit::AllocationScope;
using util::Ipv4;

topo::TopologyConfig small_world_cfg(std::uint64_t seed) {
  topo::TopologyConfig cfg;
  cfg.scale = 0.0015;
  cfg.max_countries = 6;
  cfg.seed = seed;
  cfg.sim.seed = seed;
  return cfg;
}

TEST(AddrPlane, LookupsAgreeWithAMapOfHostAddresses) {
  // Per-lookup differential: on one built world, every interesting
  // address class — host unicast, anycast service addresses (from
  // several source ASes), router interfaces, and space nobody owns —
  // must resolve exactly as a map built from host_addrs() says.
  const auto world = topo::TopologyBuilder::build(small_world_cfg(11));
  const auto& net = world->sim().net();

  std::unordered_map<Ipv4, HostId> reference;
  for (HostId h = 0; h < net.host_count(); ++h) {
    for (const auto addr : net.host_addrs(h)) reference.emplace(addr, h);
  }
  auto expected_owner = [&](Ipv4 addr) {
    const auto it = reference.find(addr);
    return it == reference.end() ? kInvalidHost : it->second;
  };

  std::vector<Ipv4> probes;
  for (const auto& gt : world->ground_truth()) probes.push_back(gt.addr);
  for (const auto& pop : world->pops()) probes.push_back(pop.egress);
  for (const netsim::Asn asn : net.all_asns()) {
    for (const auto ip : net.find_as(asn)->router_ips) probes.push_back(ip);
  }
  probes.push_back(world->scanner_addr());
  probes.push_back(Ipv4{203, 0, 113, 77});  // unowned: must miss
  probes.push_back(Ipv4{0, 0, 0, 0});

  // A few query-source ASes exercise the nearest-PoP anycast path.
  std::vector<netsim::Asn> sources;
  for (std::size_t i = 0; i < net.all_asns().size(); i += 37) {
    sources.push_back(net.all_asns()[i]);
  }

  std::size_t owned = 0;
  for (const auto addr : probes) {
    const HostId owner = net.unicast_owner(addr);
    EXPECT_EQ(owner, expected_owner(addr)) << addr.to_string();
    if (owner != kInvalidHost) ++owned;
    for (const auto src : sources) {
      const HostId resolved = net.resolve_destination(addr, src);
      if (net.is_anycast(addr)) {
        EXPECT_NE(resolved, kInvalidHost) << addr.to_string();
      } else {
        EXPECT_EQ(resolved, owner) << addr.to_string();
      }
    }
  }
  EXPECT_GT(owned, 100u) << "differential must cover real addresses";
}

TEST(AddrPlane, PostFreezeTailKeepsLookupsExactAndRejectsDuplicates) {
  // The freeze/tail/merge contract: addresses added after a freeze are
  // visible immediately (linear tail), survive the merge, and
  // duplicate assignments throw.
  Network net;
  netsim::AsConfig ac;
  ac.asn = 64500;
  net.add_as(ac);
  std::vector<HostId> hosts;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    hosts.push_back(
        net.add_host(64500, {Ipv4{static_cast<std::uint32_t>(
            (10u << 24) | i)}}));
  }
  net.freeze_addr_plane();
  // Post-freeze adds sit in the unsorted tail until the next merge.
  const HostId late = net.add_host(64500, {Ipv4{10, 1, 0, 1}});
  EXPECT_EQ(net.unicast_owner(Ipv4{10, 1, 0, 1}), late);
  EXPECT_EQ(net.unicast_owner(Ipv4{(10u << 24) | 1234u}), hosts[1234]);
  net.freeze_addr_plane();
  EXPECT_EQ(net.unicast_owner(Ipv4{10, 1, 0, 1}), late);
  EXPECT_THROW(net.add_host(64500, {Ipv4{10, 1, 0, 1}}),
               std::invalid_argument);
  // A multi-address host grown in place keeps its span coherent.
  net.add_host_address(late, Ipv4{10, 1, 0, 2});
  EXPECT_EQ(net.unicast_owner(Ipv4{10, 1, 0, 2}), late);
  EXPECT_EQ(net.host_addrs(late).size(), 2u);
  EXPECT_EQ(net.primary_addr(late), (Ipv4{10, 1, 0, 1}));
}

TEST(AddrPlane, DuplicatePastTheEagerTailThrowsAtFreeze) {
  // Past kAddrTailMerge (1,024) unfrozen adds, the duplicate check
  // moves to the freeze-time sort, which must bring a duplicate next to
  // its original. Per byte position: 256 addresses that differ only in
  // that byte arrive shuffled, then a duplicate of an early one — so
  // only a sort that orders that byte makes the pair adjacent.
  for (std::uint32_t byte = 0; byte < 4; ++byte) {
    Network net;
    netsim::AsConfig ac;
    ac.asn = 64500;
    net.add_as(ac);
    for (std::uint32_t i = 0; i < 1024; ++i) {
      net.add_host(64500, {Ipv4{(20u << 24) | i}});
    }
    std::vector<std::uint32_t> varied(256);
    for (std::uint32_t v = 0; v < 256; ++v) {
      varied[v] = (0x0A0A0A0Au & ~(0xFFu << (8 * byte))) | v << (8 * byte);
    }
    std::mt19937_64 gen(byte);
    std::shuffle(varied.begin(), varied.end(), gen);
    for (const std::uint32_t a : varied) net.add_host(64500, {Ipv4{a}});
    EXPECT_NO_THROW(net.add_host(64500, {Ipv4{varied[3]}})) << byte;
    EXPECT_THROW(net.freeze_addr_plane(), std::invalid_argument) << byte;
  }
}

TEST(AddrPlane, BulkShuffledAddsResolveExactlyAfterTheFreeze) {
  // Addresses differ in every byte and arrive in shuffled order, so
  // every pass of the freeze-time radix sort moves entries; each must
  // still resolve to its own host, and space nobody owns to no host.
  Network net;
  netsim::AsConfig ac;
  ac.asn = 64500;
  net.add_as(ac);
  std::mt19937_64 gen(2021);
  std::unordered_map<std::uint32_t, HostId> owner;
  std::vector<std::uint32_t> addrs;
  while (addrs.size() < 50000) {
    const auto a = static_cast<std::uint32_t>(gen());
    if (owner.emplace(a, kInvalidHost).second) addrs.push_back(a);
  }
  std::shuffle(addrs.begin(), addrs.end(), gen);
  for (std::size_t i = 0; i < addrs.size(); i += 2) {
    // Two addresses per host: the plane indexes addresses, not hosts.
    const HostId h = net.add_host(64500, {Ipv4{addrs[i]}, Ipv4{addrs[i + 1]}});
    owner[addrs[i]] = h;
    owner[addrs[i + 1]] = h;
  }
  net.freeze_addr_plane();
  for (const auto& [a, h] : owner) {
    ASSERT_EQ(net.unicast_owner(Ipv4{a}), h) << Ipv4{a}.to_string();
  }
  std::size_t absent = 0;
  for (int k = 0; k < 10000; ++k) {
    const auto a = static_cast<std::uint32_t>(gen());
    if (owner.contains(a)) continue;
    EXPECT_EQ(net.unicast_owner(Ipv4{a}), kInvalidHost) << Ipv4{a}.to_string();
    ++absent;
  }
  EXPECT_GT(absent, 9000u);
}

TEST(AddrPlane, WorldConstructionBytesPerHostStaysUnderCeiling) {
  // The memory half of the tentpole, pinned: building a ~100k-host
  // world must stay under a recorded live-heap ceiling per
  // ground-truth host. The ceiling is the measured post-flat-plane
  // value plus headroom — a regression back to per-host heap vectors
  // (~100+ bytes/host of node overhead alone) trips it immediately.
  topo::TopologyConfig cfg;
  cfg.scale = 0.047;
  cfg.seed = 97;
  cfg.sim.seed = 97;

  AllocationScope scope;
  const auto world = topo::TopologyBuilder::build(cfg);
  const std::int64_t live = scope.live_bytes_in_scope();

  const std::size_t hosts = world->ground_truth().size();
  ASSERT_GE(hosts, 80000u);
  ASSERT_GT(live, 0);
  const double bytes_per_host =
      static_cast<double>(live) / static_cast<double>(hosts);
  RecordProperty("bytes_per_host", static_cast<int>(bytes_per_host));
  // Recorded ceiling: see docs/benchmarks.md ("Flat address plane").
  EXPECT_LT(bytes_per_host, 600.0)
      << "world construction regressed to " << bytes_per_host
      << " heap bytes per host (live=" << live << ", hosts=" << hosts << ")";
}

}  // namespace
}  // namespace odns
