// Property sweep over randomly generated AS topologies: routing,
// TTL accounting, SAV and ICMP invariants must hold for every graph.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "netsim/sim.hpp"
#include "util/rng.hpp"

namespace odns::netsim {
namespace {

using util::Ipv4;
using util::Prefix;
using util::Rng;

struct RandomWorld {
  Simulator sim;
  std::vector<Asn> asns;
  std::vector<HostId> hosts;  // one per AS
};

/// Random connected topology: a tree plus extra chords.
std::unique_ptr<RandomWorld> make_world(std::uint64_t seed, int n_ases) {
  // Heap-allocated: Simulator is pinned in memory (its shards hold
  // back-pointers), so RandomWorld is not movable.
  auto wp = std::make_unique<RandomWorld>();
  RandomWorld& w = *wp;
  Rng rng{seed};
  auto& net = w.sim.net();
  for (int i = 0; i < n_ases; ++i) {
    AsConfig cfg;
    cfg.asn = static_cast<Asn>(100 + i);
    cfg.internal_hops = rng.uniform_int(1, 4);
    cfg.source_address_validation = rng.chance(0.5);
    net.add_as(cfg);
    w.asns.push_back(cfg.asn);
    if (i > 0) {
      net.link(cfg.asn, w.asns[static_cast<std::size_t>(
                            rng.uniform_int(0, i - 1))]);
    }
  }
  for (int extra = 0; extra < n_ases / 3; ++extra) {
    net.link(rng.pick(w.asns), rng.pick(w.asns));
  }
  for (int i = 0; i < n_ases; ++i) {
    const Ipv4 addr{static_cast<std::uint32_t>((20u << 24) + (i << 8) + 1)};
    net.announce(w.asns[static_cast<std::size_t>(i)], Prefix{addr, 24});
    w.hosts.push_back(
        net.add_host(w.asns[static_cast<std::size_t>(i)], {addr}));
  }
  return wp;
}

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, HopCountEqualsSumOfInternalHops) {
  auto wp = make_world(GetParam(), 24);
  auto& w = *wp;
  const auto& net = w.sim.net();
  Rng rng{GetParam() ^ 1};
  for (int trial = 0; trial < 60; ++trial) {
    const auto from = rng.pick(w.hosts);
    const auto to = rng.pick(w.hosts);
    const auto dst = net.primary_addr(to);
    const auto route = net.route(from, dst);
    ASSERT_TRUE(route.has_value());
    std::size_t expected = 0;
    for (const auto asn : route->as_path) {
      expected += static_cast<std::size_t>(
          net.find_as(asn)->cfg.internal_hops);
    }
    EXPECT_EQ(route->router_hops.size(), expected);
    // AS path endpoints match source and destination ASes.
    EXPECT_EQ(route->as_path.front(), net.host(from).asn);
    EXPECT_EQ(route->as_path.back(), net.host(to).asn);
    // AS-path length consistent with BFS distance.
    EXPECT_EQ(static_cast<int>(route->as_path.size()) - 1,
              net.as_distance(net.host(from).asn, net.host(to).asn));
  }
}

TEST_P(RoutingProperty, EveryRouterHopBelongsToAnAsOnThePath) {
  auto wp = make_world(GetParam(), 16);
  auto& w = *wp;
  const auto& net = w.sim.net();
  Rng rng{GetParam() ^ 2};
  for (int trial = 0; trial < 40; ++trial) {
    const auto from = rng.pick(w.hosts);
    const auto to = rng.pick(w.hosts);
    const auto route = net.route(from, net.primary_addr(to));
    ASSERT_TRUE(route.has_value());
    for (const auto hop : route->router_hops) {
      const auto owner = net.router_owner(hop);
      ASSERT_TRUE(owner.has_value());
      EXPECT_NE(std::find(route->as_path.begin(), route->as_path.end(),
                          *owner),
                route->as_path.end());
    }
  }
}

class CountingSink : public App {
 public:
  void on_datagram(const Datagram& d) override {
    ++count;
    last_ttl = d.ttl;
  }
  int count = 0;
  int last_ttl = -1;
};

TEST_P(RoutingProperty, ExactTtlDeliveryBoundary) {
  // A packet with TTL exactly equal to the router-hop count expires at
  // the last router; TTL = hops + 1 is delivered with 1 remaining.
  auto wp = make_world(GetParam(), 12);
  auto& w = *wp;
  auto& net = w.sim.net();
  Rng rng{GetParam() ^ 3};
  const auto from = w.hosts[0];
  const auto to = w.hosts[w.hosts.size() - 1];
  const auto dst = net.primary_addr(to);
  const auto route = net.route(from, dst);
  ASSERT_TRUE(route.has_value());
  const int hops = static_cast<int>(route->router_hops.size());
  if (hops == 0) GTEST_SKIP() << "same-AS corner";

  CountingSink sink;
  w.sim.bind_udp(to, 53, &sink);
  int icmp_count = 0;
  w.sim.set_icmp_handler(from, [&](const Packet&) { ++icmp_count; });

  SendOptions at_boundary;
  at_boundary.dst = dst;
  at_boundary.dst_port = 53;
  at_boundary.ttl = hops;
  w.sim.send_udp(from, std::move(at_boundary));
  SendOptions above_boundary;
  above_boundary.dst = dst;
  above_boundary.dst_port = 53;
  above_boundary.ttl = hops + 1;
  w.sim.send_udp(from, std::move(above_boundary));
  w.sim.run();

  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(sink.last_ttl, 1);
  EXPECT_EQ(icmp_count, 1);
  (void)rng;
}

TEST_P(RoutingProperty, TracerouteReconstructsTheRoute) {
  // Probing with increasing TTLs yields exactly the route's router
  // list, in order — the invariant DNSRoute++ builds on.
  auto wp = make_world(GetParam(), 10);
  auto& w = *wp;
  auto& net = w.sim.net();
  const auto from = w.hosts[1];
  const auto to = w.hosts[w.hosts.size() - 2];
  const auto dst = net.primary_addr(to);
  const auto route = net.route(from, dst);
  ASSERT_TRUE(route.has_value());

  std::vector<Ipv4> seen;
  w.sim.set_icmp_handler(from, [&](const Packet& p) {
    if (p.icmp_type == IcmpType::ttl_exceeded) seen.push_back(p.src);
  });
  for (int ttl = 1; ttl <= static_cast<int>(route->router_hops.size());
       ++ttl) {
    SendOptions probe;
    probe.dst = dst;
    probe.dst_port = 33434;
    probe.ttl = ttl;
    w.sim.send_udp(from, std::move(probe));
    w.sim.run();
  }
  EXPECT_EQ(seen, route->router_hops);
}

TEST_P(RoutingProperty, SpoofingOnlyEscapesSavFreeAses) {
  auto wp = make_world(GetParam(), 14);
  auto& w = *wp;
  auto& net = w.sim.net();
  Rng rng{GetParam() ^ 4};
  const Ipv4 foreign{203, 0, 113, 7};
  for (int trial = 0; trial < 20; ++trial) {
    const auto from = rng.pick(w.hosts);
    const auto to = rng.pick(w.hosts);
    if (from == to) continue;
    const auto before = w.sim.counters().dropped_sav;
    SendOptions opts;
    opts.dst = net.primary_addr(to);
    opts.dst_port = 4000;
    opts.spoof_src = foreign;
    w.sim.send_udp(from, std::move(opts));
    const bool sav = net.find_as(net.host(from).asn)
                         ->cfg.source_address_validation;
    EXPECT_EQ(w.sim.counters().dropped_sav, before + (sav ? 1 : 0));
  }
  w.sim.run();
}

/// Parent of every AS (by AS index) in an exhaustive BFS from `src`
/// over each AS's neighbours in link order; kRoot marks the source,
/// kUnreached an AS with no path.
constexpr std::int64_t kRoot = -1;
constexpr std::int64_t kUnreached = -2;
std::vector<std::int64_t> reference_parents(const Network& net, Asn src) {
  std::vector<std::int64_t> parent(net.as_count(), kUnreached);
  std::vector<std::size_t> queue{net.as_index(src)};
  parent[queue[0]] = kRoot;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto u = queue[head];
    for (const Asn nb : net.find_as(net.all_asns()[u])->neighbors) {
      const auto v = net.as_index(nb);
      if (parent[v] == kUnreached) {
        parent[v] = static_cast<std::int64_t>(u);
        queue.push_back(v);
      }
    }
  }
  return parent;
}

/// Checks route() and as_distance() from `from` to `to` against the
/// reference BFS parents of `from`'s AS.
void expect_reference_route(const Network& net,
                            const std::vector<std::int64_t>& parent,
                            HostId from, HostId to) {
  std::vector<Asn> as_path;
  for (auto cur = static_cast<std::int64_t>(net.as_index(net.host(to).asn));
       cur != kRoot; cur = parent[static_cast<std::size_t>(cur)]) {
    ASSERT_NE(cur, kUnreached);
    as_path.insert(as_path.begin(),
                   net.all_asns()[static_cast<std::size_t>(cur)]);
  }
  std::vector<Ipv4> router_hops;
  for (const Asn asn : as_path) {
    const auto& ips = net.find_as(asn)->router_ips;
    router_hops.insert(router_hops.end(), ips.begin(), ips.end());
  }
  const auto route = net.route(from, net.primary_addr(to));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->as_path, as_path) << "from=" << from << " to=" << to;
  EXPECT_EQ(route->router_hops, router_hops) << "from=" << from << " to=" << to;
  EXPECT_EQ(route->dst_host, to);
  EXPECT_EQ(net.as_distance(net.host(from).asn, net.host(to).asn),
            static_cast<int>(as_path.size()) - 1);
}

TEST_P(RoutingProperty, ResumableBfsMatchesExhaustiveBfs) {
  // One source asks for every destination in shuffled order on a fresh
  // Network, so each route miss resumes the source's partial BFS where
  // the previous one stopped.
  auto wp = make_world(GetParam(), 40);
  auto& w = *wp;
  const auto& net = w.sim.net();
  Rng rng{GetParam() ^ 5};
  const HostId from = rng.pick(w.hosts);
  const auto parent = reference_parents(net, net.host(from).asn);
  std::vector<HostId> order = w.hosts;
  rng.shuffle(order);
  for (const HostId to : order) expect_reference_route(net, parent, from, to);
}

TEST(RoutingBfsCache, EvictedSourceRestartsAndMatchesExhaustiveBfs) {
  // More sources than the BFS table holds: the first source's partial
  // BFS is evicted (FIFO) by the others, and its next misses must
  // restart from scratch and still match the exhaustive BFS.
  constexpr int kAses = static_cast<int>(RouteCache::kMaxBfsEntries) + 64;
  auto wp = make_world(5, kAses);
  auto& w = *wp;
  const auto& net = w.sim.net();
  Rng rng{6};
  const HostId first = w.hosts[0];
  const auto first_parent = reference_parents(net, net.host(first).asn);
  std::vector<HostId> order = w.hosts;
  rng.shuffle(order);
  expect_reference_route(net, first_parent, first, order[0]);
  for (std::size_t i = 1; i < w.hosts.size(); ++i) {
    const HostId from = w.hosts[i];
    const HostId to = rng.pick(w.hosts);
    expect_reference_route(net, reference_parents(net, net.host(from).asn),
                           from, to);
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    expect_reference_route(net, first_parent, first, order[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(11, 23, 37, 59, 71, 97, 131));

}  // namespace
}  // namespace odns::netsim
